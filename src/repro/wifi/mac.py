"""802.11 MAC layer: retransmissions, backoff, per-packet service time.

The MAC retries each frame up to ``retry_limit`` times with exponential
backoff.  Retries happen on the tens-of-microseconds-to-milliseconds
timescale — this is the paper's *temporal diversity at a fine timescale*,
which fails exactly when the channel impairment outlives the whole retry
burst (a BAD Gilbert sojourn, a microwave half-cycle, a deep fade).  The
link model therefore evaluates the attempt-level loss process across the
retry burst's actual attempt times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.obs.registry import (
    COUNT_BUCKETS,
    Counter,
    Histogram,
    LabelValue,
)
from repro.obs.runtime import active_registry
from repro.sim.random import BufferedDraws


@dataclass(frozen=True)
class MacConfig:
    """MAC retransmission parameters (802.11 defaults)."""

    retry_limit: int = 7
    slot_time_s: float = 9e-6
    sifs_s: float = 16e-6
    difs_s: float = 34e-6
    cw_min: int = 15
    cw_max: int = 1023
    #: per-attempt frame airtime (transmission + ACK), overridden by PHY
    attempt_airtime_s: float = 3e-4


def contention_windows(config: MacConfig) -> Tuple[int, ...]:
    """Contention window of each retry stage (``retry_limit + 1`` of them).

    Stage ``k`` backs off a uniform number of slots in ``[0, cw_k]`` with
    ``cw_k = min((cw_min + 1) * 2**k - 1, cw_max)``.
    """
    return tuple(min(config.cw_min * (2 ** attempt) + (2 ** attempt - 1),
                     config.cw_max)
                 for attempt in range(config.retry_limit + 1))


@dataclass
class TransmissionResult:
    """Outcome of one MAC-layer delivery attempt burst."""

    delivered: bool
    attempts: int
    #: time from frame reaching the head of the queue to final ACK/drop
    service_time_s: float


class MacLayer:
    """Retry engine: drives per-attempt loss probabilities to an outcome.

    ``attempt_loss_prob(time)`` is supplied by the channel composition and
    evaluated at each attempt's actual transmit time so that bursty channel
    state correctly correlates consecutive attempts.
    """

    def __init__(self, config: MacConfig, rng: np.random.Generator,
                 metric_labels: Optional[Dict[str, LabelValue]] = None):
        self.config = config
        #: per-stage contention windows, see :func:`contention_windows`
        self.contention_windows = contention_windows(config)
        if any(not 0 <= cw < 2 ** 32 for cw in self.contention_windows):
            raise ValueError("contention windows must lie in [0, 2**32)")
        # The MAC is its stream's only consumer, so the backoff slots and
        # loss coins come from prefetched blocks (same values).
        self._draws = BufferedDraws(rng)
        # Instruments are resolved once here, not per frame: transmit()
        # runs per packet and a dict lookup per counter would be hot.
        registry = active_registry()
        self._m_attempts: Optional[Counter] = None
        self._m_retries: Optional[Counter] = None
        self._m_dropped: Optional[Counter] = None
        self._m_attempt_hist: Optional[Histogram] = None
        if registry is not None:
            labels = dict(metric_labels or {})
            self._m_attempts = registry.counter("mac.attempts", **labels)
            self._m_retries = registry.counter("mac.retries", **labels)
            self._m_dropped = registry.counter("mac.frames_dropped",
                                               **labels)
            self._m_attempt_hist = registry.histogram(
                "mac.attempts_per_frame", bounds=COUNT_BUCKETS, **labels)

    def transmit(self, start_time: float,
                 attempt_loss_prob: Callable[[float], float],
                 airtime_s: float = None) -> TransmissionResult:
        """Attempt delivery starting at ``start_time``.

        Returns the result with the cumulative service time (backoffs +
        airtimes across all attempts).
        """
        config = self.config
        airtime = (airtime_s if airtime_s is not None
                   else config.attempt_airtime_s)
        difs_s = config.difs_s
        slot_time_s = config.slot_time_s
        draws = self._draws
        elapsed = 0.0
        result = None
        for attempt, cw in enumerate(self.contention_windows):
            # DIFS plus a backoff of 0..cw slots, drawn uniformly.
            elapsed += difs_s + draws.integers(cw + 1) * slot_time_s
            tx_time = start_time + elapsed
            elapsed += airtime
            p_loss = attempt_loss_prob(tx_time)
            if draws.random() >= p_loss:
                result = TransmissionResult(
                    delivered=True, attempts=attempt + 1,
                    service_time_s=elapsed)
                break
        if result is None:
            result = TransmissionResult(
                delivered=False, attempts=config.retry_limit + 1,
                service_time_s=elapsed)
        if self._m_attempts is not None:
            self._m_attempts.inc(result.attempts)
            self._m_retries.inc(result.attempts - 1)
            if not result.delivered:
                self._m_dropped.inc()
            self._m_attempt_hist.observe(result.attempts)
        return result
