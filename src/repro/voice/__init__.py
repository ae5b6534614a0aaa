"""Voice-quality pipeline.

Replays a network trace through a playout buffer and loss concealment,
counted in 20 ms G.711 frames, then scores the call with the ITU-T E-model (G.107)
mapped to MOS — the reproduction's stand-in for the paper's PESQ-based
scoring ([10], [11]).  The poor-call threshold corresponds to the two
lowest bins of a 5-point user rating scale.

End to end::

    from repro.voice import POOR_MOS_THRESHOLD, score_call

    mos = score_call(trace).mos
    poor = mos < POOR_MOS_THRESHOLD
"""

from repro.voice.playout import PlayoutBuffer, PlayoutResult
from repro.voice.concealment import ConcealmentAccounting, account_concealment
from repro.voice.quality import CallScore, emodel_r_factor, r_to_mos
from repro.voice.pcr import POOR_MOS_THRESHOLD, score_call

__all__ = [
    "CallScore",
    "ConcealmentAccounting",
    "POOR_MOS_THRESHOLD",
    "PlayoutBuffer",
    "PlayoutResult",
    "account_concealment",
    "emodel_r_factor",
    "r_to_mos",
    "score_call",
]
