"""N-link generalization of cross-link replication.

The paper evaluates two links (primary + secondary) but motivates the
design with the *many* BSSIDs available at typical venues (Figure 1:
median 6).  This module generalizes the Section 4 analysis to N links:

* :func:`render_multilink_run` — record one call replicated over N links;
* :func:`best_of` — receiver diversity over any subset;
* :func:`diversity_gain_curve` — worst-window loss as a function of the
  number of links used, the classic diminishing-returns curve that says
  where hedging stops paying.

Also provides :func:`make_before_break`, the seamless-handoff baseline of
related work [19]: selection with hysteresis where the client associates
to the next AP *before* leaving the current one (no association gap), but
still receives on only one link at a time — diversity minus the
replication benefit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

import numpy as np

from repro.core.config import StreamProfile
from repro.core.packet import LinkTrace, merge_traces

if TYPE_CHECKING:
    from repro.channel.link import WifiLink

#: packets between the handoff baseline's link re-evaluations
HANDOFF_WINDOW = 50
#: handoff hysteresis: the margin, in delivery rate, by which another
#: link must beat the current one
HANDOFF_HYSTERESIS = 0.05


@dataclass
class MultiLinkRun:
    """One call recorded over N links simultaneously."""

    profile: StreamProfile
    traces: List[LinkTrace]
    rssi_dbm: List[float] = field(default_factory=list)

    @property
    def n_links(self) -> int:
        return len(self.traces)


def render_multilink_run(links: Sequence["WifiLink"],
                         profile: StreamProfile) -> MultiLinkRun:
    """Transmit one stream copy per link, all in global time order."""
    if not links:
        raise ValueError("need at least one link")
    n = profile.n_packets
    spacing = profile.inter_packet_spacing_s
    send_times = np.arange(n) * spacing

    columns = [{"delivered": np.zeros(n, dtype=bool),
                "delays": np.full(n, np.nan)} for _ in links]
    rssi_sums = [0.0] * len(links)
    rssi_counts = 0

    for seq in range(n):
        t = float(send_times[seq])
        if seq % 50 == 0:
            for i, link in enumerate(links):
                rssi_sums[i] += link.rssi_dbm(t)
            rssi_counts += 1
        for i, link in enumerate(links):
            delivered, arrival = link.transmit(t, profile.packet_size_bytes)
            columns[i]["delivered"][seq] = delivered
            if delivered:
                columns[i]["delays"][seq] = arrival - t

    traces = [LinkTrace(getattr(link, "name", f"link{i}"), send_times,
                        columns[i]["delivered"], columns[i]["delays"])
              for i, link in enumerate(links)]
    rssi = [s / rssi_counts for s in rssi_sums] if rssi_counts else []
    return MultiLinkRun(profile=profile, traces=traces, rssi_dbm=rssi)


def best_of(run: MultiLinkRun, k: int) -> LinkTrace:
    """Receiver diversity over the k strongest links (by mean RSSI)."""
    if not 1 <= k <= run.n_links:
        raise ValueError(f"k={k} outside 1..{run.n_links}")
    order = np.argsort(run.rssi_dbm)[::-1] if run.rssi_dbm \
        else np.arange(run.n_links)
    chosen = [run.traces[i] for i in order[:k]]
    if k == 1:
        return chosen[0]
    return merge_traces(chosen, name=f"best-of-{k}")


def diversity_gain_curve(runs: Sequence[MultiLinkRun],
                         metric: Callable[[LinkTrace], float]
                         ) -> Dict[int, float]:
    """Mean ``metric(trace)`` vs number of links used (1..N)."""
    if not runs:
        raise ValueError("no runs")
    n_links = min(run.n_links for run in runs)
    curve: Dict[int, float] = {}
    for k in range(1, n_links + 1):
        values = [metric(best_of(run, k)) for run in runs]
        curve[k] = float(np.mean(values))
    return curve


def make_before_break(run: MultiLinkRun) -> LinkTrace:
    """Seamless-handoff selection baseline ([19]-style).

    The client listens on ONE link, re-evaluates every
    ``HANDOFF_WINDOW`` packets, and hands off to another link when that
    link's recent delivery rate beats the current one by enough to
    overcome ``HANDOFF_HYSTERESIS``.  Because associations are
    pre-established (make-before-break) the handoff itself is lossless —
    but packets lost before the handoff are still gone, which is why
    replication wins.
    """
    n = run.profile.n_packets
    delivered = np.zeros(n, dtype=bool)
    delays = np.full(n, np.nan)
    # Start on the strongest link.
    current = int(np.argmax(run.rssi_dbm)) if run.rssi_dbm else 0

    for start in range(0, n, HANDOFF_WINDOW):
        block = slice(start, min(start + HANDOFF_WINDOW, n))
        trace = run.traces[current]
        delivered[block] = trace.delivered[block]
        delays[block] = trace.delays[block]
        # Re-evaluate on what each link delivered during this window
        # (the pre-associated client can snoop beacons cheaply).
        rates = [float(np.mean(t.delivered[block])) for t in run.traces]
        best = int(np.argmax(rates))
        if rates[best] > rates[current] + HANDOFF_HYSTERESIS:
            current = best
    return LinkTrace("make-before-break", run.traces[0].send_times,
                     delivered, delays)
