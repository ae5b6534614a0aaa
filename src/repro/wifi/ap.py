"""The access-point model: PSM buffering, drop policy, hardware queue.

This is the network-side half of DiversiFi's "Customized AP" design
(Section 5.3.1).  Behaviour:

* While the client is **awake**, wired-side arrivals go straight to the
  hardware transmit queue and are served FIFO over the air.
* While the client is **asleep** (PSM), arrivals are buffered per the drop
  policy — ``tail`` (stock APs: new packets dropped when full, default
  depth 64) or ``head`` (DiversiFi's customization: oldest dropped, small
  settable depth).
* On **wakeup**, the AP hands buffered packets down to the hardware queue
  ``hardware_queue_batch`` at a time.  Once in the hardware queue a packet
  *will* be transmitted over the air even if the client has since switched
  away — the paper's source of residual wasteful duplication.

Air transmission outcomes come from the attached :class:`WifiLink`; a
packet transmitted while the client radio is absent is counted as
transmitted but never delivered.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional

from repro.core.config import APConfig
from repro.core.packet import Packet
from repro.sim.engine import Simulator

#: per-packet over-the-air service time (transmission + MAC overhead)
SERVICE_TIME_S = 0.0015

@dataclass
class BufferedPacket:
    """A packet held in the AP's PSM buffer."""

    packet: Packet
    enqueue_time: float


@dataclass
class ApStats:
    """Counters for overhead accounting (Section 6.3)."""

    wired_arrivals: int = 0
    buffered: int = 0
    buffer_drops: int = 0
    air_transmissions: int = 0
    delivered: int = 0
    #: transmissions made while the client radio was absent
    absent_transmissions: int = 0
    per_seq_transmissions: dict = field(default_factory=dict)


class AccessPoint:
    """A single AP serving one (virtual) client station.

    The DiversiFi client creates one virtual adapter per AP, so modelling
    one station per AP instance is exact for our topology; contention from
    other stations enters through the link's congestion process.
    """

    def __init__(self, sim: Simulator, name: str, link,
                 config: APConfig = APConfig()):
        self.sim = sim
        self.name = name
        self.link = link
        self.config = config
        if config.drop_policy not in ("head", "tail"):
            raise ValueError(f"unknown drop policy {config.drop_policy!r}")
        self.stats = ApStats()
        #: awake = radio tuned to this channel and out of power save
        self._client_awake = True
        self._psm_buffer: Deque[BufferedPacket] = deque()
        self._hardware_queue: Deque[Packet] = deque()
        self._serving = False
        self._receiver: Optional[Callable[[Packet, float, str], None]] = None

    # ------------------------------------------------------------------
    # wiring

    def set_receiver(self,
                     callback: Callable[[Packet, float, str], None]) -> None:
        """Install the client-side delivery callback
        ``callback(packet, arrival_time, ap_name)``."""
        self._receiver = callback

    # ------------------------------------------------------------------
    # client power state (driven by PSM null frames)

    # tests observe the AP's power-save state; no public field has it
    @property
    def client_awake(self) -> bool:  # reproflow: disable=RCH602
        return self._client_awake

    @property
    def psm_queue_len(self) -> int:
        return len(self._psm_buffer)

    def client_sleep(self) -> None:
        """Client announced power-save: start buffering."""
        self._client_awake = False

    def client_wake(self) -> None:
        """Client woke on this channel: drain the PSM buffer."""
        self._client_awake = True
        self._hand_down_batch()
        self._kick_service()

    # ------------------------------------------------------------------
    # data path

    def wired_arrival(self, packet: Packet) -> None:
        """A packet for the client arrived from the wired side."""
        self.stats.wired_arrivals += 1
        if self._client_awake:
            self._hardware_queue.append(packet)
            self._kick_service()
            return
        self._buffer(packet)

    def _buffer(self, packet: Packet) -> None:
        if len(self._psm_buffer) >= self.config.max_queue_len:
            if self.config.drop_policy == "head":
                self._psm_buffer.popleft()
            else:  # tail drop: the new packet is the casualty
                self.stats.buffer_drops += 1
                return
            self.stats.buffer_drops += 1
        self._psm_buffer.append(BufferedPacket(packet, self.sim.now))
        self.stats.buffered += 1

    def _hand_down_batch(self) -> None:
        """Move up to ``hardware_queue_batch`` buffered packets to hardware.

        Real firmware hands buffered PSM frames down in chunks; anything
        handed down is transmitted regardless of later sleep messages.
        """
        for _ in range(self.config.hardware_queue_batch):
            if not self._psm_buffer:
                break
            self._hardware_queue.append(self._psm_buffer.popleft().packet)

    def _kick_service(self) -> None:
        if not self._serving and self._hardware_queue:
            self._serving = True
            self.sim.call_in(0.0, self._serve_next)

    def _serve_next(self) -> None:
        if not self._hardware_queue:
            # Hardware idle: if the client is still awake and PSM frames
            # remain, continue handing them down.
            if self._client_awake and self._psm_buffer:
                self._hand_down_batch()
            if not self._hardware_queue:
                self._serving = False
                return
        self._transmit(self._hardware_queue.popleft())

    def _transmit(self, packet: Packet) -> None:
        self.stats.air_transmissions += 1
        seq_count = self.stats.per_seq_transmissions
        seq_count[packet.seq] = seq_count.get(packet.seq, 0) + 1
        delivered, arrival = self.link.transmit(self.sim.now,
                                                packet.size_bytes)
        service = max(arrival - self.sim.now, 0.0) \
            if delivered else SERVICE_TIME_S
        finish = self.sim.now + max(service, SERVICE_TIME_S)

        present = self._client_awake
        if not present:
            self.stats.absent_transmissions += 1

        def complete():
            if delivered and present and self._receiver is not None:
                self.stats.delivered += 1
                self._receiver(packet, self.sim.now, self.name)
            self._serve_next()

        self.sim.call_at(finish, complete)
