"""A cellular (LTE-like) link model for cross-technology hedging.

Section 4.4 defers WiFi+cellular replication to future work; this module
provides the substrate to explore it.  Compared to WiFi, a cellular link
has:

* higher, more variable base latency (scheduling grants, core-network
  detour — tens of milliseconds);
* very low steady-state loss (HARQ) but occasional multi-second outages
  (handover, coverage gaps).

The model mirrors :class:`repro.channel.link.WifiLink`'s interface
(``transmit`` / ``generate_trace``) so the Section 4 strategy machinery
can consume it unchanged.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.channel.gilbert import GilbertElliott, GilbertParams
from repro.core.config import StreamProfile
from repro.core.packet import LinkTrace, render_trace
from repro.sim.random import RandomRouter


#: LTE-like base latency and lognormal jitter scale
BASE_DELAY_S = 0.040
JITTER_SCALE_S = 0.008
#: residual post-HARQ loss probability in coverage
RESIDUAL_LOSS = 0.0005
#: outage process: rare but long (handover / coverage gaps)
OUTAGE = GilbertParams(mean_good_s=120.0, mean_bad_s=2.0,
                       loss_good=0.0, loss_bad=1.0)


class CellularLink:
    """An LTE-like link with HARQ-clean loss and rare deep outages."""

    name = "lte"

    def __init__(self, rng_router: RandomRouter) -> None:
        prefix = f"cell.{self.name}"
        self._rng = rng_router.stream(f"{prefix}.loss")
        self._rng_delay = rng_router.stream(f"{prefix}.delay")
        self._outage = GilbertElliott(
            OUTAGE, rng_router.stream(f"{prefix}.outage"))

    def attempt_loss_prob(self, time: float) -> float:
        """Loss probability at ``time`` (outage dominates)."""
        p_outage = self._outage.loss_probability(time)
        return 1.0 - (1.0 - p_outage) * (1.0 - RESIDUAL_LOSS)

    def transmit(self, send_time: float,
                 size_bytes: int) -> Tuple[bool, float]:
        """Send one packet copy over the cellular path:
        ``(delivered, arrival_time)``, NaN arrival when lost."""
        if self._rng.random() < self.attempt_loss_prob(send_time):
            return False, math.nan
        delay = (BASE_DELAY_S
                 + float(self._rng_delay.lognormal(0.0, 1.0)
                         * JITTER_SCALE_S))
        return True, send_time + delay

    def generate_trace(self, profile: StreamProfile) -> LinkTrace:
        """Render a whole call over the cellular link."""
        return render_trace(self, profile)
