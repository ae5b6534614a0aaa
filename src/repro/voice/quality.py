"""Call-quality scoring of G.711 calls: the ITU-T E-model (G.107) mapped
to MOS.

Every call in the paper is G.711 with packet-loss concealment, so the
codec constants below are G.711's and no other codec is scored.  The
transmission rating factor is

    R = R0 - Is - Id - Ie_eff + A

with R0 = 93.2 for G.711 narrowband.  We use:

* ``Id`` — delay impairment, the standard piecewise G.107 approximation of
  one-way delay (mouth-to-ear).
* ``Ie_eff`` — effective equipment impairment from packet loss with the
  burstiness-aware form Ie_eff = Ie + (95 - Ie) * Ppl / (Ppl/BurstR + Bpl),
  where BurstR is the burst ratio (observed mean burst length relative to
  random loss).  G.711 with PLC: Ie = 0, Bpl = 25.1 (lower Bpl = less
  robust).  Extrapolated (burst) concealment is exactly what drives BurstR
  up, tying the score to the paper's interpolation/extrapolation degrees.

R maps to MOS by the G.107 Annex B cubic.  The paper's worst-window
evidence [38] enters through scoring: the call score is a blend of the
whole-call R and the worst 5-second window's R.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

#: G.711 with packet-loss concealment: R0, and the equipment impairment
#: and packet-loss robustness of ITU-T G.113 Appendix I
R0 = 93.2
IE_G711 = 0.0
BPL_G711 = 25.1


#: A float or a float64 array.  Every E-model function below is
#: elementwise: an array in gives an array out, a scalar in gives a
#: built-in ``float`` out, bit-identical to the array path per element.
Level = TypeVar("Level", float, np.ndarray)


def _scalar_or_array(value: Any) -> Any:
    return float(value) if np.ndim(value) == 0 else value


def delay_impairment(one_way_delay_s: Level) -> Level:
    """Id — G.107's delay impairment (simplified standard approximation).

    Linear in delay, with a steeper slope beyond 177.3 ms.
    """
    d_ms = np.maximum(one_way_delay_s, 0.0) * 1000.0
    return _scalar_or_array(
        0.024 * d_ms + 0.11 * (d_ms - 177.3) * (d_ms > 177.3))


def loss_impairment(loss_fraction: Level, burst_ratio: Level = 1.0) -> Level:
    """Ie_eff of G.711 with PLC — packet-loss impairment with burstiness
    (G.107 eq. 7-29)."""
    ppl = np.maximum(loss_fraction, 0.0) * 100.0
    burst_r = np.maximum(burst_ratio, 1.0)
    return _scalar_or_array(
        IE_G711 + (95.0 - IE_G711) * ppl / (ppl / burst_r + BPL_G711))


def burst_ratio(loss_fraction: Level, mean_burst_len: Level) -> Level:
    """BurstR = observed mean burst length / expected under random loss.

    Under Bernoulli loss at rate p, bursts have mean length 1/(1-p).  A
    non-positive ``mean_burst_len`` (no losses observed) gives 1.0.
    """
    p = np.minimum(np.maximum(loss_fraction, 0.0), 0.99)
    random_mean = 1.0 / (1.0 - p)
    ratio = np.maximum(mean_burst_len / random_mean, 1.0)
    return _scalar_or_array(np.where(mean_burst_len <= 0, 1.0, ratio))


def emodel_r_factor(loss_fraction: Level, one_way_delay_s: Level,
                    mean_burst_len: Level = 1.0) -> Level:
    """Full-call R factor of a G.711 call with PLC."""
    br = burst_ratio(loss_fraction, mean_burst_len)
    r = (R0 - delay_impairment(one_way_delay_s)
         - loss_impairment(loss_fraction, br))
    return _scalar_or_array(np.clip(r, 0.0, 100.0))


def r_to_mos(r: Level) -> Level:
    """G.107 Annex B mapping from R to MOS (1.0 .. 4.5)."""
    mos = 1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6
    # The cubic dips fractionally below 1.0 for tiny positive R; MOS is
    # defined on [1, 4.5].
    mos = np.minimum(np.maximum(mos, 1.0), 4.5)
    return _scalar_or_array(
        np.where(r <= 0, 1.0, np.where(r >= 100, 4.5, mos)))


@dataclass
class CallScore:
    """The quality verdict for one call."""

    r_factor: float
    mos: float
    loss_fraction: float
    worst_window_loss: float
    mean_burst_len: float
    one_way_delay_s: float
