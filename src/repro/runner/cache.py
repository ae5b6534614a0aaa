"""Content-addressed result caching.

Two layers:

* :class:`ResultCache` — the on-disk store.  One JSON file per spec key
  under ``<root>/<key[:2]>/<key>.json``; writes go through a temp file in
  the same directory and an atomic ``os.replace`` so concurrent writers
  (two ``--jobs`` invocations racing on the same artifact) can never
  leave a torn entry — the last complete write wins and both are valid.
  Anything unreadable (truncated JSON, schema drift, a key mismatch from
  a hand-edited file) is treated as a miss: the entry is deleted and the
  run recomputed.  :meth:`ResultCache.prune` bounds the store's total
  size by unlinking least-recently-used entries; every hit refreshes the
  entry's timestamps explicitly, so the LRU order survives ``noatime``
  and ``relatime`` mounts.
* an in-process memo — spec key -> canonical payload JSON.  This is what
  lets ``python -m repro all`` share one wild dataset across Figures
  2a/2b/2c/4/5 the way the old ``lru_cache`` did, without any disk
  configuration.  Payloads are stored as JSON text and re-parsed on every
  hit, so callers can never mutate the cached copy.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.runner.spec import RunSpec, canonical_json

#: cache entry schema version (bump to invalidate the whole store).
#: v2: entries carry the run's metrics blob and no longer embed
#: ``wall_time_s`` — a wall-clock field made two runs of the same spec
#: produce different cache bytes, and replaying it as a hit's "wall
#: time" misreported hits as costing the original simulation time.
CACHE_VERSION = 2

_TEMP_COUNTER = itertools.count()

#: process-local memo: spec key -> (payload JSON, metrics JSON)
_MEMO: Dict[str, Tuple[str, str]] = {}


def memo_get(key: str) -> Optional[Tuple[str, str]]:
    return _MEMO.get(key)


def memo_put(key: str, payload_json: str, metrics_json: str) -> None:
    _MEMO[key] = (payload_json, metrics_json)


# test-isolation hook for the in-process result memo
def clear_memo() -> None:  # reproflow: disable=RCH602
    """Drop the in-process memo (tests; long-lived servers)."""
    _MEMO.clear()


class ResultCache:
    """The on-disk content-addressed store."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Where an entry for ``key`` lives (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: RunSpec) -> Optional[Tuple[str, str]]:
        """``(payload JSON, metrics JSON)`` for ``spec``, or ``None``.

        A corrupted or mismatched entry is deleted and reported as a
        miss so the run is recomputed and the entry rewritten.
        """
        path = self.path_for(spec.key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            entry = json.loads(data.decode("utf-8"))
            if (not isinstance(entry, dict)
                    or entry.get("version") != CACHE_VERSION
                    or entry.get("key") != spec.key
                    or "payload" not in entry
                    or "metrics" not in entry):
                raise ValueError("cache entry schema mismatch")
            payload_json = canonical_json(entry["payload"])
            metrics_json = canonical_json(entry["metrics"])
        except (ValueError, TypeError):
            # Any parse/shape failure means the entry is corrupt; the
            # recovery is to delete it and recompute the run.
            self._discard(path)
            return None
        self._touch(path)
        return payload_json, metrics_json

    def put(self, spec: RunSpec, payload_json: str,
            metrics_json: str) -> None:
        """Write an entry atomically (temp file + ``os.replace``).

        The entry is a pure function of the spec and the run's outputs —
        no wall-clock or host-specific fields — so two machines
        computing the same spec write byte-identical cache files.  Its
        text is :func:`~repro.runner.spec.canonical_json` of the entry
        object, spliced from the already-canonical config, metrics and
        payload strings in sorted-key order instead of re-parsing them
        (the runner asserts they are round-trip stable under
        ``REPRO_SANITIZE=1``).
        """
        path = self.path_for(spec.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = (f'{{"config":{spec.config_json},'
                f'"fingerprint":{canonical_json(spec.fingerprint)},'
                f'"key":{canonical_json(spec.key)},'
                f'"metrics":{metrics_json},'
                f'"payload":{payload_json},'
                f'"seed":{canonical_json(spec.seed)},'
                f'"task":{canonical_json(spec.task)},'
                f'"version":{CACHE_VERSION}}}')
        # Unique-per-writer temp name: concurrent writers never share a
        # temp file, and os.replace makes the publish atomic on POSIX.
        temp = path.parent / (
            f".{spec.key}.{os.getpid()}.{next(_TEMP_COUNTER)}.tmp")
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, path)

    def entries(self) -> Iterator[Path]:
        """Every entry file currently in the store (racy by nature)."""
        return self.root.glob("??/*.json")

    def size_bytes(self) -> int:
        """Total bytes of all readable entries right now."""
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - racing deleters
                continue
        return total

    def prune(self, max_bytes: int) -> int:
        """Unlink least-recently-used entries until the store fits in
        ``max_bytes``; returns the number of entries removed.

        Eviction order is oldest access first (atime, then mtime, then
        file name as a deterministic tie-break).  Each eviction is a
        single atomic ``unlink``, so a concurrent reader either wins the
        race and parses a complete entry, or loses it and sees a plain
        cache miss — never a torn read.  Entries that vanish or resist
        deletion mid-prune (a racing pruner) are simply skipped.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        survey = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - racing deleters
                continue
            survey.append((stat.st_atime, stat.st_mtime, path.name,
                           path, stat.st_size))
            total += stat.st_size
        removed = 0
        for _, _, _, path, size in sorted(survey):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing deleters
                continue
            total -= size
            removed += 1
        self._sweep_empty_shards()
        return removed

    def _sweep_empty_shards(self) -> None:
        """Drop fan-out directories emptied by pruning (best-effort:
        ``rmdir`` refuses non-empty directories, so a racing writer's
        shard survives)."""
        for shard in self.root.glob("??"):
            if not shard.is_dir():
                continue
            try:
                shard.rmdir()
            except OSError:
                pass

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an entry's timestamps after a hit (LRU bookkeeping;
        losing the race to a pruner is just a future miss)."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - racing deleters
            pass

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing deleters
            pass
