"""Uplink DiversiFi — the paper's deferred direction, implemented.

Section 5 notes the design "would apply equally in the uplink direction
and would likely be easier to implement because the client would have
direct control over what packets are sent over which link and when".
This module provides that client:

* The client transmits the real-time stream on the primary link and gets
  *immediate* loss feedback from the missing MAC ACK (no network-side
  buffering or loss-detection timers needed).
* On a failure it switches to the secondary link (same 2.8 ms latency),
  retransmits the failed packet(s) and any packets that came due while
  off-channel, stays for ``SecondaryResidencyTime``, and returns.
* Packets older than ``MaxTolerableDelay`` are dropped rather than
  retransmitted — late audio is useless audio.

Duplication overhead is naturally zero (each packet is sent on exactly
one link unless its first transmission failed), confirming the paper's
intuition that the uplink is the easy direction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Deque, Tuple

import numpy as np

from repro.core.config import (
    LINK_SWITCH_LATENCY_S,
    SECONDARY_RESIDENCY_TIME_S,
    ClientConfig,
    StreamProfile,
)
from repro.core.packet import StreamTrace
from repro.core.types import NamedRadioLink
from repro.sim.engine import Simulator

if TYPE_CHECKING:
    from repro.sim.random import RandomRouter


@dataclass
class UplinkStats:
    """Uplink-session accounting."""

    sent_primary: int = 0
    sent_secondary: int = 0
    failures_primary: int = 0
    retransmissions: int = 0
    expired: int = 0
    switches: int = 0
    off_channel_time_s: float = 0.0


class UplinkDiversiFiClient:
    """Single-NIC uplink sender hedging across two links."""

    def __init__(self, sim: Simulator, link_primary: NamedRadioLink,
                 link_secondary: NamedRadioLink,
                 profile: StreamProfile,
                 enabled: bool = True):
        self.sim = sim
        self.link_primary = link_primary
        self.link_secondary = link_secondary
        self.profile = profile
        self.config = ClientConfig().for_profile(profile)
        self.enabled = enabled
        self.stats = UplinkStats()

        n = profile.n_packets
        self._send_times = np.arange(n) * profile.inter_packet_spacing_s
        #: receiver-side view (the AP/wired peer's perspective)
        self.trace = StreamTrace(n_packets=n, send_times=self._send_times)
        self._on_secondary = False
        self._switching = False
        self._retry_queue: Deque[int] = deque()
        self._return_event = None

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the whole stream."""
        for seq in range(self.profile.n_packets):
            self.sim.call_at(float(self._send_times[seq]),
                             self._packet_due, seq)

    def _deadline(self, seq: int) -> float:
        return (float(self._send_times[seq])
                + self.config.max_tolerable_delay_s)

    def _packet_due(self, seq: int) -> None:
        if self._switching:
            # Radio mid-retune: queue for transmission on arrival.
            self._retry_queue.append(seq)
            return
        link = (self.link_secondary if self._on_secondary
                else self.link_primary)
        self._transmit(seq, link, is_retry=False)

    def _transmit(self, seq: int, link: NamedRadioLink,
                  is_retry: bool) -> None:
        if self.sim.now > self._deadline(seq):
            self.stats.expired += 1
            return
        delivered, arrival = link.transmit(self.sim.now,
                                           self.profile.packet_size_bytes)
        if link is self.link_primary:
            self.stats.sent_primary += 1
        else:
            self.stats.sent_secondary += 1
        if is_retry:
            self.stats.retransmissions += 1
        if delivered:
            if arrival <= self._deadline(seq) + 1e-12:
                self.trace.record_arrival(seq, arrival,
                                          link=link.name)
            return
        # The MAC ACK never came: the client knows immediately.
        if link is self.link_primary:
            self.stats.failures_primary += 1
            if self.enabled:
                self._retry_queue.append(seq)
                self._go_to_secondary()
        elif self.enabled and self.sim.now < self._deadline(seq):
            # Failure on the secondary too: one more try back home.
            self._retry_queue.append(seq)

    # ------------------------------------------------------------------
    # switching

    def _go_to_secondary(self) -> None:
        if self._on_secondary or self._switching:
            return
        self._begin_switch(to_secondary=True)

    def _begin_switch(self, to_secondary: bool) -> None:
        self._switching = True
        self.stats.switches += 1
        started = self.sim.now
        if self._return_event is not None:
            self._return_event.cancel()
            self._return_event = None

        def done():
            self._switching = False
            self._on_secondary = to_secondary
            self.stats.off_channel_time_s += self.sim.now - started
            self._drain_retries()
            if to_secondary:
                self._return_event = self.sim.call_in(
                    SECONDARY_RESIDENCY_TIME_S, self._begin_switch, False)

        self.sim.call_in(LINK_SWITCH_LATENCY_S, done)

    def _drain_retries(self) -> None:
        link = (self.link_secondary if self._on_secondary
                else self.link_primary)
        while self._retry_queue:
            seq = self._retry_queue.popleft()
            if seq in self.trace.arrivals:
                continue
            self._transmit(seq, link, is_retry=True)


def run_uplink_session(link_factory: Callable[["RandomRouter"],
                                              Tuple[Any, Any]],
                       profile: StreamProfile,
                       seed: int = 0, enabled: bool = True
                       ) -> UplinkDiversiFiClient:
    """Run one uplink call and return the finished client."""
    from repro.sim.random import RandomRouter
    sim = Simulator()
    router = RandomRouter(seed)
    link_primary, link_secondary = link_factory(router)
    client = UplinkDiversiFiClient(sim, link_primary, link_secondary,
                                   profile, enabled=enabled)
    client.start()
    sim.run(until=profile.duration_s + 1.0)
    return client
