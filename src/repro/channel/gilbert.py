"""Gilbert–Elliott bursty loss processes.

The classic two-state Markov model: a GOOD state with low per-packet error
probability and a BAD state with high error probability.  Transition
probabilities control burstiness — the paper's Figure 4 (auto-correlation of
loss within a link staying above cross-link correlation out to 400 ms lags)
is a direct consequence of sojourn times in the BAD state spanning several
packet intervals.

The process is sampled *in continuous time*: state transitions are
exponential sojourns, so streams with different packet spacings (20 ms VoIP
vs 1.6 ms high-rate) see consistently scaled burst behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GilbertParams:
    """Parameters of a continuous-time Gilbert–Elliott chain.

    ``mean_good_s``/``mean_bad_s`` are the mean sojourn times of each state;
    ``loss_good``/``loss_bad`` the per-packet loss probabilities while in
    the state (applied per MAC *attempt* when used under retransmissions).
    """

    mean_good_s: float = 10.0
    mean_bad_s: float = 0.200
    loss_good: float = 0.001
    loss_bad: float = 0.6

    def __post_init__(self) -> None:
        if self.mean_good_s <= 0 or self.mean_bad_s <= 0:
            raise ValueError("sojourn times must be positive")
        for p in (self.loss_good, self.loss_bad):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"loss probability {p} outside [0, 1]")

    @property
    def stationary_bad_fraction(self) -> float:
        """Long-run fraction of time spent in the BAD state."""
        return self.mean_bad_s / (self.mean_good_s + self.mean_bad_s)


class GilbertElliott:
    """A sampled continuous-time Gilbert–Elliott process.

    Query with monotonically non-decreasing times via
    :meth:`loss_probability`; the chain advances lazily.
    """

    GOOD, BAD = 0, 1

    def __init__(self, params: GilbertParams, rng: np.random.Generator):
        self.params = params
        self._rng = rng
        self._time = 0.0
        # Start from the stationary distribution so traces are unbiased.
        in_bad = rng.random() < params.stationary_bad_fraction
        self._state = self.BAD if in_bad else self.GOOD
        self._loss = params.loss_bad if in_bad else params.loss_good
        self._next_transition = self._time + self._draw_sojourn()

    def _draw_sojourn(self) -> float:
        mean = (self.params.mean_bad_s if self._state == self.BAD
                else self.params.mean_good_s)
        return float(self._rng.exponential(mean))

    def _advance(self, time: float) -> None:
        if time < self._time - 1e-12:
            raise ValueError(
                f"Gilbert chain queried backwards: {time} < {self._time}")
        while self._next_transition <= time:
            self._state = self.BAD if self._state == self.GOOD else self.GOOD
            self._time = self._next_transition
            self._next_transition = self._time + self._draw_sojourn()
        self._time = time
        self._loss = (self.params.loss_bad if self._state == self.BAD
                      else self.params.loss_good)

    def state_at(self, time: float) -> int:
        """Chain state (GOOD/BAD) at ``time`` (must be non-decreasing)."""
        self._advance(time)
        return self._state

    def loss_probability(self, time: float) -> float:
        """Per-attempt loss probability at ``time``."""
        # Runs once per MAC attempt: a query inside the current sojourn
        # is answered without entering the transition loop.
        if self._time <= time < self._next_transition:
            self._time = time
        else:
            self._advance(time)
        return self._loss

    # tests observe the chain's state sequence; no public field has it
    def sample_states(  # reproflow: disable=RCH602
            self, times: np.ndarray) -> np.ndarray:
        """Vector of states for a sorted array of query times."""
        return np.array([self.state_at(float(t)) for t in times], dtype=int)


def sample_loss_array(params: GilbertParams, n_packets: int,
                      spacing_s: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Fast path: a whole call's 0/1 loss indicator, vectorized.

    Draws alternating exponential sojourns, marks the BAD spans over the
    packet grid, and applies per-state Bernoulli loss.  Statistically
    matches driving :class:`GilbertElliott` per packet (without MAC
    retries), at a fraction of the cost — used by the large measurement-
    study simulations where 10k calls are scored per run.
    """
    duration = n_packets * spacing_s
    in_bad = rng.random() < params.stationary_bad_fraction
    edges = [0.0]
    states = [in_bad]
    t = 0.0
    while t < duration:
        mean = params.mean_bad_s if in_bad else params.mean_good_s
        t += float(rng.exponential(mean))
        edges.append(min(t, duration))
        in_bad = not in_bad
        states.append(in_bad)
    packet_times = np.arange(n_packets) * spacing_s
    # state index for each packet: which sojourn interval it falls in
    interval = np.searchsorted(np.asarray(edges), packet_times,
                               side="right") - 1
    bad = np.array(states, dtype=bool)[interval]
    p = np.where(bad, params.loss_bad, params.loss_good)
    return (rng.random(n_packets) < p).astype(float)
