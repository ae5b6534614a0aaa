"""Small-scale fading: Rayleigh and Rician envelopes with Doppler memory.

Fading is modelled as a complex Gaussian process sampled at packet times
with an autocorrelation set by the channel coherence time (Clarke's model
approximated by an AR(1) on the complex gain, which preserves the envelope
distribution and the coherence-time scaling that matter here).

The per-packet *fade margin* in dB is added to the slow-fading SNR before
the PHY error model.  Multiple MIMO spatial streams draw independent fading
chains — that is precisely the PHY-layer diversity of Section 4.3, and why
MIMO helps against multipath fading but not against shadowing/interference.

Each fading object is its stream's only consumer, so its Gaussian draws come
from a :class:`repro.sim.random.BufferedDraws` block (the same values the
scalar ``normal`` calls would return); the branches of a
:class:`SelectionDiversityFading` share one stream and hence one buffer.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from repro.sim.random import BufferedDraws

#: standard deviation of each quadrature of a unit-power complex gain
_QUADRATURE_SIGMA = math.sqrt(0.5)

# np.exp / np.log10, not math's: the two differ in the last bit on some
# inputs.  Bound once, since fade_db runs once per MAC attempt.
_exp = np.exp
_log10 = np.log10


class RayleighFading:
    """Rayleigh-faded channel gain with AR(1) temporal correlation."""

    #: line-of-sight amplitude added to the scaled scatter gain (Rician)
    _los_amplitude: Optional[float] = None
    _scatter_scale = 1.0

    def __init__(self, rng: Union[np.random.Generator, BufferedDraws],
                 coherence_time_s: float = 0.050):
        if coherence_time_s <= 0:
            raise ValueError("coherence time must be positive")
        self._draws = (rng if isinstance(rng, BufferedDraws)
                       else BufferedDraws(rng))
        self.coherence_time_s = coherence_time_s
        self._time: Optional[float] = None
        # complex gain, unit average power: Re/Im ~ N(0, 1/2)
        self._gain = self._fresh_gain()

    def _fresh_gain(self) -> complex:
        re = self._draws.normal(_QUADRATURE_SIGMA)
        return complex(re, self._draws.normal(_QUADRATURE_SIGMA))

    def fade_db(self, time: float) -> float:
        """Instantaneous fade relative to average power, in dB; advances
        the AR(1) gain to ``time`` (non-decreasing queries)."""
        if self._time is None:
            self._time = time
        else:
            dt = time - self._time
            if dt < -1e-12:
                raise ValueError("fading process queried backwards")
            if dt > 0:
                # AR(1) correlation decaying on the coherence timescale.
                rho = float(_exp(-dt / self.coherence_time_s))
                variance = (1.0 - rho ** 2) / 2.0
                sigma = math.sqrt(variance) if variance > 0.0 else 0.0
                re = self._draws.normal(sigma)
                innovation = complex(re, self._draws.normal(sigma))
                self._gain = rho * self._gain + innovation
                self._time = time
        gain = self._gain
        if self._los_amplitude is not None:
            gain = self._los_amplitude + gain * self._scatter_scale
        power = abs(gain) ** 2
        return 10.0 * float(_log10(1e-12 if 1e-12 > power else power))


class RicianFading(RayleighFading):
    """Rician fading: a line-of-sight component plus Rayleigh scatter.

    ``k_factor_db`` is the LOS-to-scatter power ratio; higher K means
    shallower fades (typical for a client near its AP).
    """

    def __init__(self, rng: Union[np.random.Generator, BufferedDraws],
                 coherence_time_s: float = 0.050,
                 k_factor_db: float = 6.0):
        super().__init__(rng, coherence_time_s)
        k = 10.0 ** (k_factor_db / 10.0)
        self._los_amplitude = math.sqrt(k / (k + 1.0))
        self._scatter_scale = math.sqrt(1.0 / (k + 1.0))


class SelectionDiversityFading:
    """Best-of-N independent fading branches (MIMO receive diversity).

    A first-order model of MRC/selection combining across spatial streams:
    the effective fade is the max over branches, which removes most deep
    multipath fades (Section 4.3's PHY-layer diversity).
    """

    def __init__(self, rng: np.random.Generator, n_branches: int = 2,
                 coherence_time_s: float = 0.050):
        if n_branches < 1:
            raise ValueError("need at least one branch")
        draws = BufferedDraws(rng)
        self._branches = [RayleighFading(draws, coherence_time_s)
                          for _ in range(n_branches)]

    @property
    def n_branches(self) -> int:
        return len(self._branches)

    def fade_db(self, time: float) -> float:
        """Best branch fade in dB at ``time``."""
        return max(branch.fade_db(time) for branch in self._branches)
