"""Structured event tracing for simulation debugging and timelines.

An :class:`EventLog` collects timestamped, typed events from any
component (the DiversiFi client and WifiManager emit into one when given
a log).  Besides debugging, logs power the session timeline rendering
used in examples: *what did the client actually do during that call?*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List


@dataclass(frozen=True)
class TraceEvent:
    """One logged event."""

    time: float
    source: str
    kind: str
    detail: str = ""


class EventLog:
    """An append-only, queryable event record."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def record(self, time: float, source: str, kind: str,
               detail: str = "") -> None:
        """Append one event."""
        self._events.append(TraceEvent(time=time, source=source,
                                       kind=kind, detail=detail))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    # ROADMAP item 7: `--explain` reads the session's event log
    def of_kind(  # reproflow: disable=RCH602
            self, kind: str) -> List[TraceEvent]:
        return [e for e in self._events if e.kind == kind]

    # ROADMAP item 7: `--explain` reads the session's event log
    def between(  # reproflow: disable=RCH602
            self, start: float, end: float) -> List[TraceEvent]:
        """Events in the half-open interval ``[start, end)``.

        Half-open slices tile a timeline without double-counting:
        ``between(0, 5) + between(5, 10)`` sees every event exactly
        once.  (The old inclusive-on-both-ends behaviour counted an
        event at ``t=5`` in both windows, which skewed every per-window
        aggregate built on adjacent slices.)
        """
        return [e for e in self._events if start <= e.time < end]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def render_timeline(self, limit: int = 50) -> str:
        """A human-readable timeline (most recent ``limit`` events)."""
        lines = [f"{'t (s)':>10s}  {'source':12s} {'event':20s} detail"]
        recent = self._events[-limit:]
        for event in recent:
            lines.append(f"{event.time:10.4f}  {event.source:12s} "
                         f"{event.kind:20s} {event.detail}")
        if len(self._events) > limit:
            lines.insert(1, f"... ({len(self._events) - limit} earlier "
                            f"events elided)")
        return "\n".join(lines)
