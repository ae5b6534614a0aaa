"""Enterprise LAN forwarding.

A LAN segment is effectively lossless with sub-millisecond, lightly
jittered forwarding delay.  It connects the replication point (source or
SDN switch) to the APs and the middlebox.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.packet import Packet
from repro.sim.engine import Simulator

#: forwarding delay of a segment, plus up to ``JITTER_S`` of uniform jitter
BASE_DELAY_S = 0.0005
JITTER_S = 0.0002


class LanSegment:
    """A wired hop with deterministic-ish low latency."""

    def __init__(self, sim: Simulator, sink: Callable[[Packet], None],
                 rng: np.random.Generator, name: str = "lan"):
        self.sim = sim
        self.name = name
        self._sink = sink
        self._rng = rng
        self.forwarded = 0

    def send(self, packet: Packet) -> None:
        """Forward ``packet`` to the sink after the LAN delay."""
        delay = BASE_DELAY_S + float(self._rng.uniform(0.0, JITTER_S))
        self.forwarded += 1
        self.sim.call_in(delay, self._sink, packet)
