"""Receiver playout buffer.

Interactive audio plays each 20 ms frame at a fixed offset (the playout
delay) after it was captured.  A packet that arrives after its playout
instant is useless — a *late loss*.  The buffer model converts a network
trace (per-packet arrival times) into the per-frame available/missing
pattern the concealment and quality stages consume.

The playout delay defaults to the paper's 100 ms MaxTolerableDelay budget
for the access hop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.packet import LinkTrace
from repro.obs.runtime import active_registry


@dataclass
class PlayoutResult:
    """Per-frame playout availability for one call."""

    #: True where the frame was on time for its playout instant
    played: np.ndarray
    #: count of frames lost in the network
    network_losses: int
    #: count of frames that arrived but too late to play
    late_losses: int

    @property
    def n_frames(self) -> int:
        return int(self.played.size)

    @property
    def effective_loss_rate(self) -> float:
        """Fraction of frames missing at playout (network + late)."""
        if self.played.size == 0:
            return 0.0
        return float(np.mean(~self.played))


class PlayoutBuffer:
    """Fixed-delay playout schedule."""

    def __init__(self, playout_delay_s: float = 0.100):
        if playout_delay_s <= 0:
            raise ValueError("playout delay must be positive")
        self.playout_delay_s = playout_delay_s
        self._metrics = active_registry()

    def replay(self, trace: LinkTrace) -> PlayoutResult:
        """Replay a trace against the playout schedule."""
        deadlines = trace.send_times + self.playout_delay_s
        arrivals = trace.arrival_times
        played = np.zeros(len(trace), dtype=bool)
        network_losses = 0
        late_losses = 0
        margin_hist = None
        if self._metrics is not None:
            margin_hist = self._metrics.histogram("playout.margin_s")
        for i in range(len(trace)):
            if not trace.delivered[i]:
                network_losses += 1
                continue
            if arrivals[i] <= deadlines[i] + 1e-12:
                played[i] = True
                if margin_hist is not None:
                    margin_hist.observe(
                        float(deadlines[i] - arrivals[i]))
            else:
                late_losses += 1
        if self._metrics is not None:
            self._metrics.counter("playout.frames").inc(len(trace))
            self._metrics.counter("playout.network_losses").inc(
                network_losses)
            self._metrics.counter("playout.late_losses").inc(late_losses)
            # Every missing frame at its playout instant is concealed.
            self._metrics.counter("playout.concealment_events").inc(
                network_losses + late_losses)
        return PlayoutResult(played=played, network_losses=network_losses,
                             late_losses=late_losses)
