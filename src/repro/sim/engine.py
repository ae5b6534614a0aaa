"""The discrete-event simulation engine.

A :class:`Simulator` owns a simulated clock and a priority queue of pending
events.  Events scheduled for the same instant fire in the order they were
scheduled (FIFO tie-breaking via a monotonically increasing sequence number),
which keeps every run bit-for-bit deterministic — a property the whole
evaluation relies on for paired strategy comparisons.

Times are floats in **seconds**.  The engine enforces causality: an event may
never be scheduled in the past.

With ``REPRO_SANITIZE=1`` in the environment the engine additionally
asserts heap order on every pop and maintains a determinism digest of the
executed event sequence (see :mod:`repro.sim.sanitize`).
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.sanitize import (
    DeterminismDigest,
    HeapOrderError,
    sanitizer_enabled,
)

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for engine misuse (scheduling in the past, running twice...)."""


class Event:
    """A handle for a scheduled callback.

    Returned by :meth:`Simulator.call_at` / :meth:`Simulator.call_in`; the
    holder may :meth:`cancel` it before it fires.  Cancellation is O(1): the
    event is flagged and skipped when popped.

    The queue orders events by the ``(time, seq)`` key captured when they
    were scheduled, not by this object, so ``time`` is read-only in
    effect: changing it afterwards does not move the event.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """An event-driven simulator with a float clock (seconds).

    Usage::

        sim = Simulator()
        sim.call_in(0.02, handler, packet)
        sim.run(until=120.0)

    The queue is a binary heap of ``(time, seq, event)`` tuples, so every
    heap comparison runs in C; ``seq`` is unique, so the event itself is
    never compared.  Cancelled events stay in the heap until they reach
    its head.  :attr:`peak_queue_depth` is the heap's high-water mark with
    those cancelled-but-unpopped entries included; it is exported as the
    ``sim.peak_queue_depth`` metric, which the benchmark's golden digests
    cover, so compacting the heap would change recorded outputs.
    """

    def __init__(self):
        self._now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        #: number of events executed so far (observability / tests)
        self.events_executed = 0
        #: high-water mark of the heap, cancelled-but-unpopped entries
        #: included (observability; golden digests depend on it)
        self.peak_queue_depth = 0
        # Sanitizer state is resolved once at construction so the hot loop
        # pays a single attribute check when disabled.
        self._digest: Optional[DeterminismDigest] = \
            DeterminismDigest() if sanitizer_enabled() else None

    def determinism_digest(self) -> Optional[str]:
        """Digest of the event sequence executed so far.

        Two runs of the same scenario and seed must return the same
        string; a mismatch means nondeterminism leaked in.  ``None``
        unless the sanitizer is enabled.
        """
        return self._digest.hexdigest() if self._digest else None

    @property
    def now(self) -> float:
        """The current simulated time in seconds."""
        return self._now

    def call_at(self, time: float, callback: Callable[..., Any],
                *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        now = self._now
        if now > time:
            if time < now - 1e-12:
                raise SimulationError(
                    f"cannot schedule event at t={time:.9f} < now={now:.9f}")
            time = now   # within rounding of now: clamp
        seq = next(self._seq)
        event = Event(time, seq, callback, args)
        queue = self._queue
        heappush(queue, (time, seq, event))
        depth = len(queue)
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
        return event

    def call_in(self, delay: float, callback: Callable[..., Any],
                *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, callback, *args)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    # public engine API, kept with `Simulator.step`
    def peek(self) -> Optional[float]:  # reproflow: disable=RCH602
        """Time of the next pending (non-cancelled) event, or ``None``."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heappop(queue)
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Execute the single next event.  Returns False if queue is empty."""
        queue = self._queue
        while queue:
            time, seq, event = heappop(queue)
            if event.cancelled:
                continue
            if self._digest is not None:
                self._check_popped(self._digest, time, seq, event)
            self._now = time
            event.callback(*event.args)
            self.events_executed += 1
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Events scheduled exactly at ``until`` still fire.  Returns the final
        simulated time (``until`` if the horizon was reached with events
        still pending).
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        # The same loop as peek() + step(), inlined: each heap head is
        # inspected and popped once.
        queue = self._queue
        digest = self._digest
        pop = heappop
        horizon = _INF if until is None else until
        try:
            while queue and not self._stopped:
                time, seq, event = queue[0]
                if event.cancelled:
                    pop(queue)
                    continue
                if time > horizon:
                    self._now = until
                    break
                pop(queue)
                if digest is not None:
                    self._check_popped(digest, time, seq, event)
                self._now = time
                event.callback(*event.args)
                self.events_executed += 1
            if until is not None and self._now < until and not queue:
                self._now = until
        finally:
            self._running = False
        return self._now

    def _check_popped(self, digest: DeterminismDigest, time: float,
                      seq: int, event: Event) -> None:
        """Sanitizer: assert causality and key integrity of a popped
        event, then fold it into the determinism digest."""
        if event.time < self._now - 1e-12:
            raise HeapOrderError(
                f"event queue yielded t={event.time:.9f} after the "
                f"clock reached t={self._now:.9f}; an Event.time "
                "was mutated after scheduling or the heap was "
                "corrupted")
        # Exact on purpose: the key is a copy of Event.time, not a result.
        if event.time != time:
            raise HeapOrderError(
                f"event scheduled for t={time:.9f} now reads "
                f"t={event.time:.9f}; an Event.time was mutated after "
                "scheduling, so it would fire at its old time")
        digest.update(time, seq, event.callback)

    def record_metrics(self, registry: Any, **labels: Any) -> None:
        """Flush engine telemetry into a ``MetricsRegistry``.

        Call once, after the run: the counter increment is the run's
        cumulative event count, so counters merge additively across
        runs while the peak-depth gauge keeps last-write semantics.
        ``sim.peak_queue_depth`` is the heap's high-water mark with
        cancelled-but-unpopped entries included; golden digests depend
        on that definition.  ``registry`` is typed loosely to keep the
        engine importable without :mod:`repro.obs`.
        """
        registry.counter("sim.events_executed", **labels).inc(
            self.events_executed)
        registry.gauge("sim.peak_queue_depth", **labels).set(
            self.peak_queue_depth)
        registry.gauge("sim.final_time_s", **labels).set(self._now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator t={self._now:.6f} pending={len(self._queue)} "
                f"executed={self.events_executed}>")
