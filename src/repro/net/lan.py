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
from repro.sim.random import BufferedDraws

#: forwarding delay of a segment, plus up to ``JITTER_S`` of uniform jitter
BASE_DELAY_S = 0.0005
JITTER_S = 0.0002


class LanSegment:
    """A wired hop with deterministic-ish low latency.

    ``rng`` must be the segment's own stream: the jitter is drawn from
    prefetched blocks.
    """

    def __init__(self, sim: Simulator, sink: Callable[[Packet], None],
                 rng: np.random.Generator, name: str = "lan"):
        self.sim = sim
        self.name = name
        self._sink = sink
        self._draws = BufferedDraws(rng)

    def send(self, packet: Packet) -> None:
        """Forward ``packet`` to the sink after the LAN delay."""
        # numpy's uniform(0.0, JITTER_S) is 0.0 + JITTER_S * random(),
        # the same float as JITTER_S * random() for a draw in [0, 1).
        delay = BASE_DELAY_S + JITTER_S * self._draws.random()
        self.sim.call_in(delay, self._sink, packet)
