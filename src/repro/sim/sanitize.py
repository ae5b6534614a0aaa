"""Opt-in runtime invariant sanitizer (``REPRO_SANITIZE=1``).

The static analysis (``tools/reproflow``) catches determinism hazards it
can see in the source; this module catches the ones only visible at run
time.  With ``REPRO_SANITIZE=1`` in the environment:

* :class:`repro.sim.engine.Simulator` asserts causality and key
  integrity (``Event.time`` still equal to its heap key) on every
  popped event and folds the executed event sequence into a
  :class:`DeterminismDigest` — two runs of the same scenario and seed must
  produce identical digests, and a digest mismatch pinpoints the first
  divergent run.
* :class:`repro.sim.random.RandomRouter` records the call site that first
  requested each stream name and raises :class:`StreamSharingError` when a
  *different* call site requests the same name — two components sharing
  one generator is exactly the coupling the named-stream design forbids.

The sanitizer is off by default and costs nothing when disabled: both
classes read the environment once at construction time.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional


def sanitizer_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to anything but ''/'0'."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class SanitizerError(AssertionError):
    """A runtime determinism invariant was violated."""


class StreamSharingError(SanitizerError):
    """Two distinct call sites requested the same RNG stream name."""


class HeapOrderError(SanitizerError):
    """A popped event is out of time order or moved off its heap key."""


class DeterminismDigest:
    """A rolling hash of the executed event sequence.

    Each executed event contributes ``(time, seq, callback label)``; the
    final hex digest is a compact fingerprint of *everything the simulator
    did, in order*.  Same scenario + same seed => same digest, bit for
    bit; any divergence (an unrouted RNG, wall-clock leakage, unordered
    iteration) changes it.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        #: number of events folded in so far
        self.events = 0

    @staticmethod
    def _label(callback: object) -> str:
        # Never repr(): bound-method reprs embed memory addresses, which
        # would make the digest differ across identical runs.
        name = getattr(callback, "__qualname__", None)
        return name if name else type(callback).__name__

    def update(self, time: float, seq: int, callback: object) -> None:
        record = f"{time!r}|{seq}|{self._label(callback)}\n"
        self._hash.update(record.encode("utf-8"))
        self.events += 1

    def hexdigest(self) -> str:
        """Current digest, e.g. ``'3f2a...#1042'`` (hash + event count)."""
        return f"{self._hash.hexdigest()}#{self.events}"


class StreamOwnerRegistry:
    """Maps stream names to the call site that first requested them."""

    def __init__(self) -> None:
        self._owners: dict = {}

    def claim(self, name: str, site: tuple) -> None:
        """Record ``site`` as the owner of ``name``; raise on conflict.

        ``site`` is ``(filename, lineno)`` of the requesting call.  The
        same site asking again (e.g. inside a loop) is fine — that is one
        component continuing its stream.  A *different* site asking for a
        claimed name means two components would share a generator, so one
        component's draws would perturb the other's.
        """
        owner: Optional[tuple] = self._owners.get(name)
        if owner is None:
            self._owners[name] = site
        elif owner != site:
            raise StreamSharingError(
                f"stream '{name}' is already owned by {owner[0]}:{owner[1]} "
                f"but was requested from {site[0]}:{site[1]}; give each "
                "component its own stream name")
