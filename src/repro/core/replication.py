"""Two-NIC replication experiments: paired-run rendering (Section 4).

The paper's Section 4 methodology sends a copy of the same G.711-like
stream to each NIC of a two-NIC client and records both, then replays
selection/replication strategies over the recorded traces.  This module
renders the equivalent object: a :class:`PairedRun` holding, for one call
over one channel realization,

* ``trace_a`` / ``trace_b`` — per-packet outcomes of the stream copy on
  each link,
* ``offset_traces[delta]`` — outcomes of a second copy sent on link A with
  a temporal offset of ``delta`` seconds (for the temporal-replication
  comparison of Section 4.2),
* the RSSI each link showed (what the ``stronger`` policy consults).

All copies are transmitted in one pass in global time order so that every
strategy sees the *same* slow channel state (Gilbert sojourns, fades,
interference episodes) — the in-simulation analogue of replaying recorded
traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import StreamProfile
from repro.core.packet import LinkTrace

if TYPE_CHECKING:
    from repro.channel.link import WifiLink


@dataclass
class PairedRun:
    """Everything recorded for one two-NIC call."""

    profile: StreamProfile
    trace_a: LinkTrace
    trace_b: LinkTrace
    offset_traces: Dict[float, LinkTrace] = field(default_factory=dict)
    rssi_a_dbm: float = 0.0
    rssi_b_dbm: float = 0.0
    #: scenario tag ("weak_link", "mobility", "microwave", "congestion")
    scenario: str = ""

    @property
    def n_packets(self) -> int:
        return len(self.trace_a)


def render_paired_run(link_a: "WifiLink", link_b: "WifiLink",
                      profile: StreamProfile,
                      temporal_deltas: Sequence[float] = (),
                      scenario: str = "") -> PairedRun:
    """Simulate one call with full replication on both links.

    ``temporal_deltas`` additionally transmits offset copies on link A at
    ``send_time + delta`` for each delta (0.0 means back-to-back).
    """
    n = profile.n_packets
    spacing = profile.inter_packet_spacing_s
    send_times = np.arange(n) * spacing
    times = send_times.tolist()
    size = profile.packet_size_bytes

    # One column pair (delivered, delay) per stream copy; a stream's
    # rank is its key's place in sorted order.
    keys = sorted({"a", "b", *(f"offset:{d}" for d in temporal_deltas)})
    rank = {key: i for i, key in enumerate(keys)}
    columns = {key: ([False] * n, [np.nan] * n) for key in keys}
    streams = [(link_b if key == "b" else link_a, *columns[key])
               for key in keys]

    # The global transmission schedule (time, rank, seq), sorted: that is
    # (time, key) order.  A back-to-back copy (delta=0) still follows the
    # original by one frame's airtime; represent "immediately after" with
    # a tiny epsilon so ordering is well defined.
    offsets = [(rank[f"offset:{d}"], max(d, 1e-6)) for d in temporal_deltas]
    schedule: List[Tuple[float, int, int]] = []
    for seq, t in enumerate(times):
        schedule.append((t, rank["a"], seq))
        schedule.append((t, rank["b"], seq))
        for offset_rank, offset in offsets:
            schedule.append((t + offset, offset_rank, seq))
    schedule.sort()

    rssi_samples_a: List[float] = []
    rssi_samples_b: List[float] = []
    rssi_sample_period = 1.0
    next_rssi_sample = 0.0

    for time, stream, seq in schedule:
        if time >= next_rssi_sample:
            rssi_samples_a.append(link_a.rssi_dbm(time))
            rssi_samples_b.append(link_b.rssi_dbm(time))
            next_rssi_sample += rssi_sample_period
        link, delivered, delays = streams[stream]
        ok, arrival = link.transmit(time, size)
        if ok:
            delivered[seq] = True
            # Delay is accounted relative to the ORIGINAL send time, so an
            # offset copy's delay includes its temporal offset.
            delays[seq] = arrival - times[seq]

    def build(key: str, name: str) -> LinkTrace:
        return LinkTrace(name, send_times, *columns[key])

    offset_traces = {
        delta: build(f"offset:{delta}", f"{link_a.name}+{delta * 1e3:.0f}ms")
        for delta in temporal_deltas}
    return PairedRun(
        profile=profile,
        trace_a=build("a", link_a.name),
        trace_b=build("b", link_b.name),
        offset_traces=offset_traces,
        rssi_a_dbm=float(np.mean(rssi_samples_a)) if rssi_samples_a else 0.0,
        rssi_b_dbm=float(np.mean(rssi_samples_b)) if rssi_samples_b else 0.0,
        scenario=scenario)
