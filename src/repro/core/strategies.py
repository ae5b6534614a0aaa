"""The Section 4 strategy zoo.

Every strategy consumes a :class:`PairedRun` (both links' outcomes for the
same call) and returns the :class:`LinkTrace` the client would have
experienced:

* ``stronger``   — associate with the higher-RSSI link (what OSes do).
* ``better``     — sample both links for a 5 s trial, then settle on the
                   one that lost fewer packets during the trial.
* ``divert``     — fine-grained reactive link selection [28]: switch links
                   after every lost frame (H=1, T=1).  Losses before the
                   switch are NOT recovered — the paper's key contrast
                   with diversity.
* ``temporal``   — two copies on one link, offset by delta seconds.
* ``cross_link`` — replication across both links (receiver diversity).
"""

from __future__ import annotations

import numpy as np

from repro.core.packet import LinkTrace, merge_traces
from repro.core.replication import PairedRun

#: the strategies whose calls the Section 4 payload scores for PCR
#: (Figure 6) and for burst structure (Figure 5)
POOR_STRATEGIES = ("stronger", "cross-link")
BURST_STRATEGIES = ("stronger", "temporal:0.1", "cross-link")


def stronger(run: PairedRun) -> LinkTrace:
    """Pick the link with the higher average RSSI for the whole call."""
    if run.rssi_a_dbm >= run.rssi_b_dbm:
        return run.trace_a
    return run.trace_b


def better(run: PairedRun, trial_s: float = 5.0) -> LinkTrace:
    """Trial both links for ``trial_s``, then settle on the better one.

    During the trial the two-NIC client hears both links (it is receiving
    on both anyway), so the trial segment is the merged trace.
    """
    spacing = run.profile.inter_packet_spacing_s
    trial_packets = min(int(round(trial_s / spacing)), run.n_packets)
    loss_a = float(np.mean(~run.trace_a.delivered[:trial_packets]))
    loss_b = float(np.mean(~run.trace_b.delivered[:trial_packets]))
    chosen = run.trace_a if loss_a <= loss_b else run.trace_b

    merged = merge_traces([run.trace_a, run.trace_b], name="trial")
    delivered = np.concatenate([
        merged.delivered[:trial_packets], chosen.delivered[trial_packets:]])
    delays = np.concatenate([
        merged.delays[:trial_packets], chosen.delays[trial_packets:]])
    return LinkTrace("better", run.trace_a.send_times, delivered, delays)


def divert(run: PairedRun) -> LinkTrace:
    """Divert-style fine-grained selection: switch on loss.

    Every frame lost on the current link switches to the other one for
    the FUTURE packets (H=1, T=1, the setting of the paper's comparison).
    """
    n = run.n_packets
    delivered = np.zeros(n, dtype=bool)
    delays = np.full(n, np.nan)
    current = "a"
    for seq in range(n):
        trace = run.trace_a if current == "a" else run.trace_b
        delivered[seq] = trace.delivered[seq]
        delays[seq] = trace.delays[seq]
        if not trace.delivered[seq]:
            current = "b" if current == "a" else "a"
    return LinkTrace("divert", run.trace_a.send_times, delivered, delays)


def temporal(run: PairedRun, delta_s: float) -> LinkTrace:
    """Two copies on link A, the second offset by ``delta_s``."""
    offset = run.offset_traces.get(delta_s)
    if offset is None:
        raise KeyError(
            f"run was not rendered with temporal delta {delta_s!r}; "
            f"available: {sorted(run.offset_traces)}")
    return merge_traces([run.trace_a, offset],
                        name=f"temporal-{delta_s * 1e3:.0f}ms")


def cross_link(run: PairedRun) -> LinkTrace:
    """Full cross-link replication (receive on both links): the best of
    both copies."""
    return merge_traces([run.trace_a, run.trace_b], name="cross-link")


def baseline(run: PairedRun) -> LinkTrace:
    """No replication, no selection beyond the default (stronger)."""
    return stronger(run)

