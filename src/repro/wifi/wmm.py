"""802.11e / WMM prioritized queueing at the AP.

The related-work discussion (Section 2) notes that DiffServ/802.11e give
real-time packets *priority* — which helps against congestion-induced
queueing — but is "of little use in the face of wireless packet loss",
which is DiversiFi's target.  This module provides the WMM substrate so
that claim can be demonstrated rather than asserted (see
``benchmarks/test_ablation_wmm.py``).

Model: four EDCA access categories with strict-priority dequeueing and
per-AC contention parameters (higher categories grab the medium faster).
Wireless loss is still whatever the attached link says — priority cannot
change that.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional

from repro.core.packet import Packet
from repro.sim.engine import Simulator
from repro.wifi.ap import SERVICE_TIME_S

#: access categories, highest priority first
AC_VOICE = "AC_VO"
AC_VIDEO = "AC_VI"
AC_BEST_EFFORT = "AC_BE"
AC_BACKGROUND = "AC_BK"
PRIORITY_ORDER = (AC_VOICE, AC_VIDEO, AC_BEST_EFFORT, AC_BACKGROUND)

#: EDCA medium-access penalty per category (AIFS + mean backoff), seconds
_ACCESS_DELAY_S = {
    AC_VOICE: 0.00005,
    AC_VIDEO: 0.0001,
    AC_BEST_EFFORT: 0.0003,
    AC_BACKGROUND: 0.0008,
}


@dataclass
class WmmStats:
    """Per-AC counters."""

    enqueued: Dict[str, int] = field(
        default_factory=lambda: {ac: 0 for ac in PRIORITY_ORDER})
    transmitted: Dict[str, int] = field(
        default_factory=lambda: {ac: 0 for ac in PRIORITY_ORDER})
    dropped: Dict[str, int] = field(
        default_factory=lambda: {ac: 0 for ac in PRIORITY_ORDER})
    queueing_delay_sum_s: Dict[str, float] = field(
        default_factory=lambda: {ac: 0.0 for ac in PRIORITY_ORDER})


class WmmAccessPoint:
    """An AP with four strict-priority EDCA queues over one link.

    Flow ids starting with "rt" are voice, "video" video, everything
    else best effort.  Each frame holds the air for at least
    ``SERVICE_TIME_S``.  With ``enabled=False`` all traffic shares one
    FIFO — the ablation baseline.
    """

    def __init__(self, sim: Simulator, link, queue_limit: int = 64,
                 enabled: bool = True):
        self.sim = sim
        self.link = link
        self.enabled = enabled
        self.queue_limit = queue_limit
        self._queues: Dict[str, Deque] = {
            ac: deque() for ac in PRIORITY_ORDER}
        self._serving = False
        self._receiver: Optional[Callable] = None
        self.stats = WmmStats()

    @staticmethod
    def _classify(packet: Packet) -> str:
        if packet.flow_id.startswith("rt"):
            return AC_VOICE
        if packet.flow_id.startswith("video"):
            return AC_VIDEO
        return AC_BEST_EFFORT

    def set_receiver(self, callback: Callable[[Packet, float, str],
                                              None]) -> None:
        self._receiver = callback

    def wired_arrival(self, packet: Packet) -> None:
        """Classify and enqueue an arriving downlink packet."""
        ac = self._classify(packet) if self.enabled else AC_BEST_EFFORT
        queue = self._queues[ac]
        if sum(len(q) for q in self._queues.values()) >= self.queue_limit:
            # Drop from the lowest-priority non-empty queue (WMM APs
            # protect voice); FIFO mode just tail-drops.
            victim_ac = ac
            if self.enabled:
                for candidate in reversed(PRIORITY_ORDER):
                    if self._queues[candidate]:
                        victim_ac = candidate
                        break
                if (PRIORITY_ORDER.index(victim_ac)
                        <= PRIORITY_ORDER.index(ac)):
                    victim_ac = ac   # nothing lower to evict
            if victim_ac == ac:
                self.stats.dropped[ac] += 1
                return
            self._queues[victim_ac].pop()
            self.stats.dropped[victim_ac] += 1
        queue.append((packet, self.sim.now))
        self.stats.enqueued[ac] += 1
        self._kick()

    def _kick(self) -> None:
        if not self._serving and any(self._queues.values()):
            self._serving = True
            self.sim.call_in(0.0, self._serve)

    def _serve(self) -> None:
        for ac in PRIORITY_ORDER:
            if self._queues[ac]:
                packet, enqueue_time = self._queues[ac].popleft()
                break
        else:
            self._serving = False
            return
        access_delay = _ACCESS_DELAY_S[ac] if self.enabled \
            else _ACCESS_DELAY_S[AC_BEST_EFFORT]
        start = self.sim.now + access_delay
        delivered, arrival = self.link.transmit(start, packet.size_bytes)
        self.stats.transmitted[ac] += 1
        self.stats.queueing_delay_sum_s[ac] += self.sim.now - enqueue_time
        service = max(arrival - start, 0.0) \
            if delivered else SERVICE_TIME_S
        finish = start + max(service, SERVICE_TIME_S)

        def complete():
            if delivered and self._receiver is not None:
                self._receiver(packet, self.sim.now, "wmm")
            self._serve()

        self.sim.call_at(finish, complete)
