"""The VoIP stream source: a G.711-like CBR sender.

Emits one packet per inter-packet spacing to each attached sink.  With two
sinks this is source replication (the paper's AP-mode deployment, where
the sender-side library duplicates the stream to the secondary link's IP
address); with one sink plus an SDN switch downstream it is the
middlebox-mode deployment.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.config import StreamProfile
from repro.core.packet import Packet
from repro.sim.engine import Simulator


class VoipSender:
    """CBR real-time sender on the event engine."""

    def __init__(self, sim: Simulator, profile: StreamProfile,
                 flow_id: str = "rt0"):
        self.sim = sim
        self.profile = profile
        self.flow_id = flow_id
        self._sinks: List[Callable[[Packet], None]] = []
        self.sent = 0

    def attach(self, sink: Callable[[Packet], None]) -> None:
        """Add a delivery target; each packet goes to every sink."""
        self._sinks.append(sink)

    def start(self) -> None:
        """Schedule the whole stream."""
        if not self._sinks:
            raise RuntimeError("no sinks attached to VoipSender")
        spacing = self.profile.inter_packet_spacing_s
        for seq in range(self.profile.n_packets):
            self.sim.call_at(seq * spacing,
                             self._emit, seq)

    def _emit(self, seq: int) -> None:
        self.sent += 1
        packet = Packet(seq=seq, send_time=self.sim.now,
                        size_bytes=self.profile.packet_size_bytes,
                        flow_id=self.flow_id)
        for sink in self._sinks:
            sink(packet)
