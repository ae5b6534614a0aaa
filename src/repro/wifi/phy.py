"""802.11 PHY abstraction: rates, per-frame error from SNR, MIMO streams.

The frame error model is the standard logistic approximation to measured
802.11 PER-vs-SNR curves: each MCS has a threshold SNR at which PER = 50%
and all share one slope; a frame succeeds when the instantaneous SNR (slow
RSSI-derived SNR + fading + interference penalties) clears the curve.

Rate adaptation is a Minstrel-flavoured long-term chooser: pick the highest
MCS whose expected PER at the *average* SNR stays below a target.  That
mirrors real drivers closely enough for the paper's purposes — what matters
is that a weak link drops to robust rates yet still suffers bursty loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class Mcs:
    """One modulation-and-coding scheme."""

    index: int
    name: str
    phy_rate_mbps: float
    #: SNR (dB) at which per-frame error is 50% for a ~1500 B frame
    snr_mid_db: float


#: logistic slope (dB) of every MCS's PER curve: smaller = sharper
#: transition
SNR_SLOPE_DB = 1.5
#: target PER used by rate adaptation
TARGET_PER = 0.10

#: 802.11n single-stream MCS ladder (20 MHz, 800 ns GI), thresholds from
#: published PER curves.
MCS_TABLE: List[Mcs] = [
    Mcs(0, "BPSK 1/2", 6.5, 2.0),
    Mcs(1, "QPSK 1/2", 13.0, 5.0),
    Mcs(2, "QPSK 3/4", 19.5, 8.0),
    Mcs(3, "16QAM 1/2", 26.0, 10.5),
    Mcs(4, "16QAM 3/4", 39.0, 14.0),
    Mcs(5, "64QAM 2/3", 52.0, 18.0),
    Mcs(6, "64QAM 3/4", 58.5, 19.5),
    Mcs(7, "64QAM 5/6", 65.0, 21.0),
]


@dataclass(frozen=True)
class PhyConfig:
    """PHY-level knobs for a link."""

    #: number of independent spatial/diversity branches (1 = SISO;
    #: >1 models 802.11n/ac MIMO receive diversity, Section 4.3)
    n_spatial_branches: int = 1


def frame_error_prob(snr_db: float, mcs: Mcs) -> float:
    """Per-frame error probability at ``snr_db`` for ``mcs``: logistic in
    SNR, on the ~1500 B reference curve every frame is scored against."""
    # np.exp, not math.exp: the two differ in the last bit on some
    # inputs, and per-attempt loss coins are compared against this.
    return 1.0 / (1.0 + float(np.exp((snr_db - mcs.snr_mid_db)
                                     / SNR_SLOPE_DB)))


def select_mcs(mean_snr_db: float) -> Mcs:
    """Long-term rate adaptation: highest MCS meeting the target PER."""
    chosen = MCS_TABLE[0]
    for mcs in MCS_TABLE:
        if frame_error_prob(mean_snr_db, mcs) <= TARGET_PER:
            chosen = mcs
    return chosen


#: per-frame MAC/PHY overhead: preamble, SIFS and ACK
MAC_OVERHEAD_S = 1.1e-4


def airtime_s(frame_bytes: int, mcs: Mcs) -> float:
    """Rough per-frame airtime: payload at PHY rate plus MAC/PHY overhead
    (preamble, SIFS, ACK) of ``MAC_OVERHEAD_S``."""
    payload_s = frame_bytes * 8.0 / (mcs.phy_rate_mbps * 1e6)
    return payload_s + MAC_OVERHEAD_S
