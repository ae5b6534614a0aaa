"""The runner job model: specs, results, canonical JSON.

A :class:`RunSpec` names one independent seeded simulation run: a *task*
(an importable ``"module:function"`` entry point), the per-run ``seed``,
a JSON-able ``config`` mapping (the task's keyword arguments), and the
*code fingerprint* of the ``repro`` package sources.  The spec's
:attr:`~RunSpec.key` is a SHA-256 over all four, so it is stable across
processes and machines and changes whenever the code or any input does —
the property the content-addressed cache rests on.

Payloads travel as *canonical JSON* (sorted keys, compact separators):
two equal payloads always serialize to the same bytes, so digests and
cache entries are byte-stable regardless of which worker produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, List, Mapping, Optional, Tuple

from repro.obs.export import EMPTY_METRICS_JSON, merge_metrics_json
from repro.obs.registry import MetricsRegistry


def _canonical_default(obj: Any) -> Any:
    """JSON fallback for the numpy scalar/array types tasks tend to leak."""
    # Local import keeps the job model importable without numpy at the
    # spec/key layer (workers that never touch arrays don't pay for it).
    import numpy as np

    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def canonical_json(payload: Any) -> str:
    """Serialize ``payload`` to byte-stable canonical JSON."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_canonical_default)


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One independent seeded run, identified by a content-addressed key.

    ``config_json`` is the canonical-JSON form of the task's keyword
    arguments; use :meth:`build` rather than the raw constructor so the
    canonicalization (and therefore the key) is always consistent.
    """

    task: str
    seed: int
    config_json: str
    fingerprint: str

    @classmethod
    def build(cls, task: str, seed: int,
              config: Optional[Mapping[str, Any]] = None,
              # test seam: tests fake a source change to check cache
              # invalidation
              fingerprint: Optional[str] = None,  # reproflow: disable=RCH603
              ) -> "RunSpec":
        """Construct a spec, canonicalizing ``config`` and defaulting the
        fingerprint to the current :func:`~repro.runner.fingerprint.code_fingerprint`."""
        if not isinstance(task, str) or ":" not in task:
            raise ValueError(
                f"task {task!r} is not a 'module:function' entry point "
                "string")
        if fingerprint is None:
            from repro.runner.fingerprint import code_fingerprint
            fingerprint = code_fingerprint()
        return cls(task=task, seed=int(seed),
                   config_json=canonical_json(dict(config or {})),
                   fingerprint=fingerprint)

    @property
    def config(self) -> Mapping[str, Any]:
        """The task keyword arguments (a fresh dict on every access)."""
        loaded: Mapping[str, Any] = json.loads(self.config_json)
        return loaded

    @property
    def key(self) -> str:
        """The content-addressed cache key (hex SHA-256)."""
        record = (f"{self.task}\n{self.seed}\n{self.config_json}\n"
                  f"{self.fingerprint}")
        return hashlib.sha256(record.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class RunResult:
    """The outcome of one spec: the parsed payload plus provenance."""

    spec: RunSpec
    payload_json: str
    wall_time_s: float
    cached: bool = False
    attempts: int = 1
    worker: str = "serial"
    #: canonical-JSON export of the run's metrics registry.  Cached runs
    #: replay the original run's metrics verbatim, so the blob (and
    #: therefore the batch digest) is identical whether the run executed
    #: or hit.
    metrics_json: str = EMPTY_METRICS_JSON
    #: wall seconds the cache lookup itself took, for hits only.  Kept
    #: separate from ``wall_time_s`` (the original simulation time is
    #: *not* replayed — a hit did no simulating) and never cached.
    hit_wall_time_s: float = 0.0

    @property
    def payload(self) -> Any:
        """The task's return value (a fresh parse on every access, so
        callers can never mutate a cached copy in place)."""
        return json.loads(self.payload_json)

    @property
    def metrics(self) -> MetricsRegistry:
        """The run's metrics (a fresh registry on every access)."""
        return merge_metrics_json([self.metrics_json])


def batch_digest(results: Tuple[RunResult, ...]) -> str:
    """SHA-256 of the merged, seed-ordered result sequence.

    The digest folds in ``(spec key, payload, metrics)`` triples *in
    spec order*, so it is identical for serial, parallel and warm-cache
    executions of the same batch — the determinism contract the
    sanitizer asserts.  Folding the metrics blob means nondeterministic
    *instrumentation* (a wall-clock read, hash-ordered labels) breaks
    the digest just as loudly as a nondeterministic payload.
    """
    digest = hashlib.sha256()
    for result in results:
        digest.update(result.spec.key.encode("ascii"))
        digest.update(b"|")
        digest.update(result.payload_json.encode("utf-8"))
        digest.update(b"|")
        digest.update(result.metrics_json.encode("utf-8"))
        digest.update(b"\n")
    return f"{digest.hexdigest()}#{len(results)}"


@dataclasses.dataclass
class BatchResult:
    """Everything one batch produced, in spec order."""

    results: Tuple[RunResult, ...]
    digest: str
    stats: "BatchStats"

    @property
    def payloads(self) -> List[Any]:
        return [result.payload for result in self.results]

@dataclasses.dataclass
class BatchStats:
    """Batch telemetry surfaced by the CLI and batch hooks."""

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    memo_hits: int = 0
    retries: int = 0
    jobs: int = 1
    pool_used: bool = False
    wall_time_s: float = 0.0
    run_wall_times_s: List[float] = dataclasses.field(default_factory=list)
    #: cache-lookup latencies for the hits (telemetry; see
    #: ``RunResult.hit_wall_time_s``)
    hit_wall_times_s: List[float] = dataclasses.field(default_factory=list)

    def summary(self) -> str:
        """One-line rendering for status footers."""
        mode = f"{self.jobs} worker(s)" if self.pool_used else "serial"
        return (f"{self.total} run(s), {self.executed} executed, "
                f"{self.cache_hits + self.memo_hits} cache hit(s), {mode}")
