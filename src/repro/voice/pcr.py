"""Poor-call-rate estimation from packet traces.

Pipeline per call (matching the paper's methodology in Sections 3.2/4):

1. Replay the network trace through the playout buffer (late = lost).
2. Account concealment (interpolation vs extrapolation degrees).
3. Score the call with the E-model, blending the whole-call impairment
   with the worst 5-second window (worst-segment quality dominates user
   ratings [38]).
4. Threshold MOS to "poor" — the two lowest bins of the 5-point scale.

PCR over a set of calls is the fraction scored poor; the drivers count
it from :func:`score_call`'s MOS.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.analysis.bursts import burst_lengths
from repro.analysis.windows import worst_window_loss
from repro.core.packet import LinkTrace, StreamTrace
from repro.voice.concealment import account_concealment
from repro.voice.playout import PlayoutBuffer
from repro.voice.quality import CallScore, emodel_r_factor, r_to_mos

#: MOS below which users land in the two lowest rating bins.  Calibrated so
#: that the paper's baseline populations reproduce their reported PCRs
#: (NetTest overall ~10%; the in-the-wild "stronger" baseline ~12%).
POOR_MOS_THRESHOLD = 3.0

#: weight of the worst 5-second window in the call score (vs whole call).
#: Calibrated so that a call with a single ~10% worst window but an
#: otherwise clean trace is not yet rated poor (the paper's office primary
#: has a 11.6% 90th-percentile worst window at only 4.9% PCR).
WORST_WINDOW_WEIGHT = 0.25

#: playout deadline: a packet later than this is lost to the listener
PLAYOUT_DELAY_S = 0.100
#: default one-way delay of the rest of the end-to-end path (WAN +
#: encode/decode) beyond the WiFi hop captured in the trace
EXTRA_ONE_WAY_DELAY_S = 0.050


def score_call(trace: Union[LinkTrace, StreamTrace],
               extra_one_way_delay_s: float = EXTRA_ONE_WAY_DELAY_S
               ) -> CallScore:
    """Score one call."""
    if isinstance(trace, StreamTrace):
        trace = trace.effective_trace(deadline=PLAYOUT_DELAY_S)
    playout = PlayoutBuffer(PLAYOUT_DELAY_S).replay(trace)
    concealment = account_concealment(playout)

    loss = playout.effective_loss_rate
    missing = (~playout.played).astype(float)
    worst = worst_window_loss(
        missing,
        inter_packet_spacing_s=_spacing_of(trace))
    bursts = burst_lengths(missing)
    mean_burst = float(np.mean(bursts)) if bursts else 0.0

    delays = trace.delays[trace.delivered]
    median_delay = float(np.median(delays)) if delays.size else 0.0
    one_way = extra_one_way_delay_s + max(median_delay, 0.0) \
        + PLAYOUT_DELAY_S / 2.0

    r_full = emodel_r_factor(loss, one_way, mean_burst)
    r_worst = emodel_r_factor(worst, one_way, mean_burst)
    r = ((1.0 - WORST_WINDOW_WEIGHT) * r_full
         + WORST_WINDOW_WEIGHT * r_worst)
    return CallScore(
        r_factor=r, mos=r_to_mos(r), loss_fraction=loss,
        worst_window_loss=worst, mean_burst_len=mean_burst,
        one_way_delay_s=one_way)


def _spacing_of(trace: LinkTrace) -> float:
    if len(trace) >= 2:
        return float(np.median(np.diff(trace.send_times)))
    return 0.020
