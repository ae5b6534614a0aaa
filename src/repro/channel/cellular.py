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

import numpy as np

from repro.channel.gilbert import GilbertElliott, GilbertParams
from repro.core.config import StreamProfile
from repro.core.packet import DeliveryRecord, LinkTrace
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

    def transmit(self, seq: int, send_time: float,
                 frame_bytes: int = 160) -> DeliveryRecord:
        """Send one packet copy over the cellular path."""
        lost = self._rng.random() < self.attempt_loss_prob(send_time)
        if lost:
            return DeliveryRecord(seq=seq, send_time=send_time,
                                  delivered=False)
        delay = (BASE_DELAY_S
                 + float(self._rng_delay.lognormal(0.0, 1.0)
                         * JITTER_SCALE_S))
        return DeliveryRecord(seq=seq, send_time=send_time, delivered=True,
                              arrival_time=send_time + delay)

    def generate_trace(self, profile: StreamProfile) -> LinkTrace:
        """Render a whole call over the cellular link."""
        n = profile.n_packets
        send_times = np.arange(n) * profile.inter_packet_spacing_s
        delivered = np.zeros(n, dtype=bool)
        delays = np.full(n, np.nan)
        for seq in range(n):
            record = self.transmit(seq, float(send_times[seq]),
                                   profile.packet_size_bytes)
            delivered[seq] = record.delivered
            if record.delivered:
                delays[seq] = record.delay
        return LinkTrace(self.name, send_times, delivered, delays)
