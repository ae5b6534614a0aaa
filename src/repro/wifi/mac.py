"""802.11 MAC layer: retransmissions, backoff, per-packet service time.

The MAC retries each frame up to ``RETRY_LIMIT`` times with exponential
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


#: 802.11 retransmission parameters (OFDM PHY defaults): retries after
#: the first attempt, backoff slot, DIFS, and the contention window bounds
RETRY_LIMIT = 7
SLOT_TIME_S = 9e-6
DIFS_S = 34e-6
CW_MIN = 15
CW_MAX = 1023
#: per-attempt frame airtime (transmission + ACK) when the caller gives none
ATTEMPT_AIRTIME_S = 3e-4

#: contention window of each retry stage (``RETRY_LIMIT + 1`` of them):
#: stage ``k`` backs off a uniform number of slots in ``[0, cw_k]`` with
#: ``cw_k = min((CW_MIN + 1) * 2**k - 1, CW_MAX)``
CONTENTION_WINDOWS: Tuple[int, ...] = tuple(
    min(CW_MIN * (2 ** attempt) + (2 ** attempt - 1), CW_MAX)
    for attempt in range(RETRY_LIMIT + 1))


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

    def __init__(self, rng: np.random.Generator,
                 metric_labels: Optional[Dict[str, LabelValue]] = None):
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
                 airtime_s: float = ATTEMPT_AIRTIME_S
                 ) -> TransmissionResult:
        """Attempt delivery starting at ``start_time``.

        Returns the result with the cumulative service time (backoffs +
        airtimes across all attempts).
        """
        windows = CONTENTION_WINDOWS
        difs_s = DIFS_S
        slot_time_s = SLOT_TIME_S
        draws = self._draws
        elapsed = 0.0
        result = None
        for attempt, cw in enumerate(windows):
            # DIFS plus a backoff of 0..cw slots, drawn uniformly.
            elapsed += difs_s + draws.integers(cw + 1) * slot_time_s
            tx_time = start_time + elapsed
            elapsed += airtime_s
            p_loss = attempt_loss_prob(tx_time)
            if draws.random() >= p_loss:
                result = TransmissionResult(
                    delivered=True, attempts=attempt + 1,
                    service_time_s=elapsed)
                break
        if result is None:
            result = TransmissionResult(
                delivered=False, attempts=len(windows),
                service_time_s=elapsed)
        if self._m_attempts is not None:
            self._m_attempts.inc(result.attempts)
            self._m_retries.inc(result.attempts - 1)
            if not result.delivered:
                self._m_dropped.inc()
            self._m_attempt_hist.observe(result.attempts)
        return result
