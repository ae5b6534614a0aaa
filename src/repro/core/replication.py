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
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import StreamProfile
from repro.core.packet import LinkTrace
from repro.core.types import NamedRadioLink


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


def render_paired_run(link_a: NamedRadioLink, link_b: NamedRadioLink,
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

    # Build the global transmission schedule: (time, stream_key, seq).
    schedule: List[Tuple[float, str, int]] = []
    for seq in range(n):
        t = float(send_times[seq])
        schedule.append((t, "a", seq))
        schedule.append((t, "b", seq))
        for delta in temporal_deltas:
            # A back-to-back copy (delta=0) still follows the original by
            # one frame's airtime; represent "immediately after" with a
            # tiny epsilon so ordering is well defined.
            offset_time = t + max(delta, 1e-6)
            schedule.append((offset_time, f"offset:{delta}", seq))
    schedule.sort(key=lambda item: (item[0], item[1]))

    columns: Dict[str, Dict[str, np.ndarray]] = {}
    keys = ["a", "b"] + [f"offset:{d}" for d in temporal_deltas]
    for key in keys:
        columns[key] = {
            "delivered": np.zeros(n, dtype=bool),
            "delays": np.full(n, np.nan),
        }

    rssi_samples_a: List[float] = []
    rssi_samples_b: List[float] = []
    rssi_sample_period = 1.0
    next_rssi_sample = 0.0

    for time, key, seq in schedule:
        link = link_b if key == "b" else link_a
        if time >= next_rssi_sample:
            rssi_samples_a.append(link_a.rssi_dbm(time))
            rssi_samples_b.append(link_b.rssi_dbm(time))
            next_rssi_sample += rssi_sample_period
        record = link.transmit(seq, time, profile.packet_size_bytes)
        columns[key]["delivered"][seq] = record.delivered
        if record.delivered:
            # Delay is accounted relative to the ORIGINAL send time, so an
            # offset copy's delay includes its temporal offset.
            columns[key]["delays"][seq] = (record.arrival_time
                                           - float(send_times[seq]))

    def build(key: str, name: str) -> LinkTrace:
        return LinkTrace(name, send_times,
                         columns[key]["delivered"], columns[key]["delays"])

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
