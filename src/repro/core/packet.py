"""Packet and trace types shared across the stack.

The Section 4 analysis operates on :class:`LinkTrace` objects — the
per-packet outcome of sending one copy of a stream over one WiFi link —
mirroring the paper's methodology of recording a replicated stream on both
NICs and then replaying strategies over the recorded traces.
:func:`render_trace` records one by calling the link's
``transmit(send_time, size_bytes) -> (delivered, arrival_time)`` per copy.

The Section 6 system evaluation produces :class:`StreamTrace` objects — the
receiver-side view (arrival times per sequence number, possibly via the
secondary link) that the voice-quality pipeline consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.config import StreamProfile
from repro.core.types import BoolArray, FloatArray, NamedRadioLink


@dataclass(frozen=True)
class Packet:
    """A single stream packet travelling through the simulated network.

    Frozen, so a replication point (the sender, an SDN switch) hands the
    same object to every link.
    """

    seq: int
    send_time: float
    size_bytes: int = 160
    flow_id: str = "rt0"


class LinkTrace:
    """Per-packet outcomes for one copy of a stream over one link.

    Stored columnar (numpy arrays) because the analysis layer slides
    windows and computes correlations over thousands of packets per call.
    """

    def __init__(self, name: str, send_times: Sequence[float],
                 delivered: Sequence[bool], delays: Sequence[float]):
        self.name = name
        self.send_times: FloatArray = np.asarray(send_times, dtype=float)
        self.delivered: BoolArray = np.asarray(delivered, dtype=bool)
        self.delays: FloatArray = np.asarray(delays, dtype=float)
        if not (len(self.send_times) == len(self.delivered)
                == len(self.delays)):
            raise ValueError("trace columns must have equal length")

    def __len__(self) -> int:
        return len(self.send_times)

    @property
    def arrival_times(self) -> FloatArray:
        """Arrival time per packet (NaN where lost)."""
        arrivals = self.send_times + self.delays
        return np.where(self.delivered, arrivals, np.nan)

    @property
    def loss_indicator(self) -> FloatArray:
        """1.0 where the packet was lost, 0.0 where delivered."""
        return (~self.delivered).astype(float)

    @property
    def loss_rate(self) -> float:
        """Overall fraction of packets lost on this link."""
        if len(self) == 0:
            return 0.0
        return float(np.mean(~self.delivered))


def render_trace(link: NamedRadioLink, profile: StreamProfile) -> LinkTrace:
    """Send one copy of every packet of a ``profile`` call over ``link``,
    in order."""
    send_times = np.arange(profile.n_packets) * profile.inter_packet_spacing_s
    size_bytes = profile.packet_size_bytes
    delivered: List[bool] = []
    delays: List[float] = []
    for send_time in send_times.tolist():
        ok, arrival = link.transmit(send_time, size_bytes)
        delivered.append(ok)
        delays.append(arrival - send_time)   # NaN when lost
    return LinkTrace(link.name, send_times, delivered, delays)


def loss_array(trace: Union[LinkTrace, FloatArray]) -> FloatArray:
    """The 0/1 loss series of a trace, or ``trace`` itself as floats."""
    if isinstance(trace, LinkTrace):
        return trace.loss_indicator
    return np.asarray(trace, dtype=float)


@dataclass
class StreamTrace:
    """Receiver-side view of a stream: what arrived, and when.

    ``arrivals`` maps sequence number -> earliest arrival time. Packets
    absent from the map were never received.  ``duplicates`` counts copies
    received beyond the first (the paper's wasteful-duplication metric).
    """

    n_packets: int
    send_times: FloatArray
    arrivals: Dict[int, float] = field(default_factory=dict)
    duplicates: int = 0
    #: per-link receive counters for overhead accounting
    received_on: Dict[str, int] = field(default_factory=dict)

    def record_arrival(self, seq: int, time: float, link: str = "") -> bool:
        """Record a copy's arrival.  Returns True if it was the first copy."""
        if seq < 0 or seq >= self.n_packets:
            raise ValueError(f"sequence {seq} outside stream of "
                             f"{self.n_packets} packets")
        if link:
            self.received_on[link] = self.received_on.get(link, 0) + 1
        if seq in self.arrivals:
            self.duplicates += 1
            if time < self.arrivals[seq]:
                self.arrivals[seq] = time
            return False
        self.arrivals[seq] = time
        return True

    def effective_trace(self, deadline: Optional[float] = None,
                        name: str = "stream") -> LinkTrace:
        """Collapse to a LinkTrace: a packet counts as delivered only if it
        arrived, and (when ``deadline`` is given) within ``deadline`` seconds
        of its send time — the paper's MaxTolerableDelay accounting."""
        delivered = np.zeros(self.n_packets, dtype=bool)
        delays = np.full(self.n_packets, np.nan)
        for seq, arrival in self.arrivals.items():
            delay = arrival - self.send_times[seq]
            if deadline is not None and delay > deadline + 1e-12:
                continue
            delivered[seq] = True
            delays[seq] = delay
        return LinkTrace(name, self.send_times, delivered, delays)

    @property
    def loss_rate(self) -> float:
        """Fraction of stream packets never received (any copy, any time)."""
        if self.n_packets == 0:
            return 0.0
        return 1.0 - len(self.arrivals) / self.n_packets


def merge_traces(traces: Sequence[LinkTrace],
                 name: str = "merged") -> LinkTrace:
    """Receiver-diversity merge: delivered if delivered on *any* trace,
    with the earliest arrival winning.  This is naive two-NIC cross-link
    replication (Section 4), where the client receives both copies."""
    if not traces:
        raise ValueError("need at least one trace")
    n = len(traces[0])
    for trace in traces:
        if len(trace) != n:
            raise ValueError("traces must cover the same packet stream")
    send_times = traces[0].send_times
    arrival_stack = np.vstack([t.arrival_times for t in traces])
    # nanmin warns on all-NaN columns (packets no copy delivered); use a
    # sentinel instead.
    filled = np.where(np.isnan(arrival_stack), np.inf, arrival_stack)
    best_arrival = filled.min(axis=0)
    delivered = np.isfinite(best_arrival)
    best_arrival = np.where(delivered, best_arrival, np.nan)
    delays = best_arrival - send_times
    return LinkTrace(name, send_times, delivered, delays)
