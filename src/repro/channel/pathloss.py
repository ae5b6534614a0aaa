"""Large-scale propagation: log-distance path loss, shadowing, RSSI.

Standard indoor model:  PL(d) = PL(d0) + 10·n·log10(d/d0) + X_sigma, with
path-loss exponent ``n`` around 3–4 for offices with walls and cubicles and
log-normal shadowing X_sigma.  RSSI = tx_power − PL.  SNR follows from the
thermal noise floor for a 20 MHz channel (≈ −101 dBm) plus a noise figure.

These feed the PHY error model (:mod:`repro.wifi.phy`), and — importantly
for the paper — RSSI is what the ``stronger`` selection policy sees, while
the *actual* loss process also depends on fading and interference the RSSI
does not capture.  That mismatch is why selection underperforms diversity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: thermal noise for a 20 MHz 802.11 channel at room temperature, dBm
NOISE_FLOOR_DBM = -101.0
#: typical client receiver noise figure, dB
NOISE_FIGURE_DB = 7.0
#: lag-one correlation of the shadowing term across a client move
SHADOWING_CORRELATION = 0.8
#: AP transmit power, dBm
TX_POWER_DBM = 20.0
#: reference distance d0 of the log-distance model, and PL(d0): ~2.4 GHz
#: free space at 1 m
REFERENCE_DISTANCE_M = 1.0
REFERENCE_LOSS_DB = 40.0


def rssi_to_snr_db(rssi_dbm: float) -> float:
    """Convert an RSSI reading to an SNR estimate in dB."""
    return rssi_dbm - (NOISE_FLOOR_DBM + NOISE_FIGURE_DB)


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance model parameters (indoor office defaults)."""

    exponent: float = 3.3             # office with cubicles and walls
    shadowing_sigma_db: float = 4.0


class LogDistancePathLoss:
    """RSSI as a function of distance, with frozen per-link shadowing.

    Shadowing is drawn once per link (it models obstructions, which change
    on mobility timescales, not per packet); mobility re-draws it through
    :meth:`redraw_shadowing`.
    """

    def __init__(self, params: PathLossParams, rng: np.random.Generator):
        self.params = params
        self._rng = rng
        self._shadowing_db = float(
            rng.normal(0.0, params.shadowing_sigma_db))

    @property
    def shadowing_db(self) -> float:
        """Current log-normal shadowing term in dB."""
        return self._shadowing_db

    def redraw_shadowing(self) -> None:
        """Evolve shadowing as an AR(1) step (used on client movement)."""
        correlation = SHADOWING_CORRELATION
        sigma = self.params.shadowing_sigma_db
        innovation = self._rng.normal(
            0.0, sigma * np.sqrt(1.0 - correlation ** 2))
        self._shadowing_db = correlation * self._shadowing_db + innovation

    def path_loss_db(self, distance_m: float) -> float:
        """Mean path loss at ``distance_m`` (shadowing included)."""
        d = max(distance_m, REFERENCE_DISTANCE_M)
        return (REFERENCE_LOSS_DB
                + 10.0 * self.params.exponent
                * np.log10(d / REFERENCE_DISTANCE_M)
                + self._shadowing_db)

    def rssi_dbm(self, distance_m: float) -> float:
        """RSSI at the client for a given AP distance."""
        return TX_POWER_DBM - self.path_loss_db(distance_m)

    def snr_db(self, distance_m: float) -> float:
        """SNR implied by the RSSI at ``distance_m``."""
        return rssi_to_snr_db(self.rssi_dbm(distance_m))
