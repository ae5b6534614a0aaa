"""The span API: timed regions layered on :class:`EventLog`.

A span marks an interval of simulated time — a MAC retry burst, a
secondary-link visit, a PSM exchange::

    spans = SpanTracker(clock=lambda: sim.now, registry=registry,
                        event_log=log, source="client")
    with spans.span("client.secondary_visit", reason="recovery"):
        ...                      # body runs at simulated time

Event-driven code that cannot scope a ``with`` block begins a span and
ends it from a later callback::

    span = spans.span("client.secondary_visit", reason="keepalive")
    ...
    span.end()                   # in the return-to-primary handler

Each span records ``<name>.begin`` / ``<name>.end`` events into the
event log (when one is attached) and one observation into the
``<name>.duration_s`` histogram of the registry (when one is attached),
so both the timeline rendering and the aggregate metrics see the same
interval.  Span intervals are half-open ``[begin, end)`` like every
other interval in the repo.  Timestamps come exclusively from the
injected ``clock`` (simulated time), never from the host clock.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.obs.registry import (
    DURATION_BUCKETS_S,
    LabelValue,
    MetricsRegistry,
)
from repro.sim.tracing import EventLog


def _detail(labels: Mapping[str, LabelValue],
            extra: Optional[str] = None) -> str:
    parts = [f"{key}={labels[key]}" for key in sorted(labels)]
    if extra:
        parts.append(extra)
    return " ".join(parts)


class Span:
    """One open interval; close it with :meth:`end` (or ``with``)."""

    __slots__ = ("name", "labels", "begin_time", "end_time", "_tracker")

    def __init__(self, tracker: "SpanTracker", name: str,
                 begin_time: float,
                 labels: Dict[str, LabelValue]) -> None:
        self._tracker = tracker
        self.name = name
        self.labels = labels
        self.begin_time = begin_time
        self.end_time: Optional[float] = None

    def end(self) -> float:
        """Close the span at the tracker's current time; returns the
        duration.  Idempotent — a second call returns the recorded
        duration without re-observing."""
        if self.end_time is not None:
            return self.end_time - self.begin_time
        now = self._tracker.now()
        if now < self.begin_time:
            raise ValueError(
                f"span {self.name!r} would end at t={now!r} before its "
                f"begin t={self.begin_time!r}")
        self.end_time = now
        self._tracker._record_end(self)
        return now - self.begin_time

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: object, exc: object,
                 tb: object) -> None:
        self.end()


class SimulatedClock:
    """A span clock advanced explicitly in simulated units.

    Runner tasks must not observe wall-clock time (metrics travel with
    cached results, so any nondeterminism would poison digests); batch-
    style drivers instead advance this clock by the simulated quantity
    each phase covered — seconds of rendered traffic, calls generated —
    and bind it as a :class:`SpanTracker`'s clock.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"cannot advance a clock by {dt!r}")
        self._now += dt

    def __call__(self) -> float:
        return self._now


class SpanTracker:
    """Factory for spans bound to one clock, registry and event log."""

    def __init__(self, clock: Callable[[], float],
                 registry: Optional[MetricsRegistry] = None,
                 event_log: Optional[EventLog] = None,
                 source: str = "span") -> None:
        self._clock = clock
        self._registry = registry
        self._event_log = event_log
        self._source = source

    def now(self) -> float:
        return self._clock()

    def span(self, name: str, **labels: LabelValue) -> Span:
        """Begin a span named ``name`` at the current simulated time."""
        begin = self.now()
        span = Span(self, name, begin, dict(labels))
        if self._event_log is not None:
            self._event_log.record(begin, self._source, f"{name}.begin",
                                   _detail(span.labels))
        return span

    def _record_end(self, span: Span) -> None:
        assert span.end_time is not None
        duration = span.end_time - span.begin_time
        if self._event_log is not None:
            self._event_log.record(
                span.end_time, self._source, f"{span.name}.end",
                _detail(span.labels, extra=f"duration={duration:.6f}"))
        if self._registry is not None:
            self._registry.histogram(
                f"{span.name}.duration_s", bounds=DURATION_BUCKETS_S,
                **span.labels).observe(duration)
