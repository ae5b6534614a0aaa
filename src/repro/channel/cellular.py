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

from dataclasses import dataclass, field

import numpy as np

from repro.channel.gilbert import GilbertElliott, GilbertParams
from repro.core.config import StreamProfile
from repro.core.packet import DeliveryRecord, LinkTrace
from repro.sim.random import RandomRouter


@dataclass
class CellularConfig:
    """LTE-like link parameters."""

    name: str = "lte"
    base_delay_s: float = 0.040
    jitter_scale_s: float = 0.008
    #: residual post-HARQ loss probability in coverage
    residual_loss: float = 0.0005
    #: outage process: rare but long (handover / coverage gaps)
    outage: GilbertParams = field(default_factory=lambda: GilbertParams(
        mean_good_s=120.0, mean_bad_s=2.0,
        loss_good=0.0, loss_bad=1.0))


class CellularLink:
    """An LTE-like link with HARQ-clean loss and rare deep outages."""

    def __init__(self, config: CellularConfig,
                 rng_router: RandomRouter) -> None:
        self.config = config
        self.name = config.name
        prefix = f"cell.{config.name}"
        self._rng = rng_router.stream(f"{prefix}.loss")
        self._rng_delay = rng_router.stream(f"{prefix}.delay")
        self._outage = GilbertElliott(
            config.outage, rng_router.stream(f"{prefix}.outage"))

    def attempt_loss_prob(self, time: float) -> float:
        """Loss probability at ``time`` (outage dominates)."""
        p_outage = self._outage.loss_probability(time)
        return 1.0 - (1.0 - p_outage) * (1.0 - self.config.residual_loss)

    def transmit(self, seq: int, send_time: float,
                 frame_bytes: int = 160) -> DeliveryRecord:
        """Send one packet copy over the cellular path."""
        lost = self._rng.random() < self.attempt_loss_prob(send_time)
        if lost:
            return DeliveryRecord(seq=seq, send_time=send_time,
                                  delivered=False)
        delay = (self.config.base_delay_s
                 + float(self._rng_delay.lognormal(0.0, 1.0)
                         * self.config.jitter_scale_s))
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
