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

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.registry import COUNT_BUCKETS, LabelValue, MetricsRegistry
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


class _MacTally:
    """One MAC's frames by outcome, and the instruments they fold into.

    ``counts[k]`` for ``k >= 1`` is the frames delivered on attempt
    ``k``; ``counts[0]`` is the frames dropped after every attempt.  The
    registry runs :meth:`fold` before each read-out; the per-frame sums
    are integers, so folding them late gives the same instruments as
    updating them per frame.
    """

    __slots__ = ("counts", "_attempts", "_retries", "_dropped", "_hist")

    def __init__(self, counts: List[int], registry: MetricsRegistry,
                 labels: Dict[str, LabelValue]) -> None:
        self.counts = counts
        self._attempts = registry.counter("mac.attempts", **labels)
        self._retries = registry.counter("mac.retries", **labels)
        self._dropped = registry.counter("mac.frames_dropped", **labels)
        self._hist = registry.histogram(
            "mac.attempts_per_frame", bounds=COUNT_BUCKETS, **labels)

    def fold(self) -> None:
        counts = self.counts
        dropped = counts[0]
        frames = [(k, n) for k, n in enumerate(counts) if k and n]
        if dropped:
            # a dropped frame used every attempt
            frames.append((len(counts) - 1, dropped))
            self._dropped.inc(dropped)
        for attempts, n in frames:
            self._attempts.inc(attempts * n)
            self._retries.inc((attempts - 1) * n)
            self._hist.observe(attempts, n)
        counts[:] = [0] * len(counts)


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
        # transmit() runs per packet, so it only bumps a plain tally; the
        # active registry folds it into the mac.* instruments on read.
        self._counts = [0] * (len(CONTENTION_WINDOWS) + 1)
        registry = active_registry()
        if registry is not None:
            registry.on_read(_MacTally(self._counts, registry,
                                       dict(metric_labels or {})).fold)

    def transmit(self, start_time: float,
                 attempt_loss_prob: Callable[[float], float],
                 airtime_s: float = ATTEMPT_AIRTIME_S
                 ) -> Tuple[bool, int, float]:
        """Attempt delivery starting at ``start_time``.

        Returns ``(delivered, attempts, service_time_s)``: the service
        time is the cumulative backoffs and airtimes of every attempt,
        from the frame reaching the head of the queue to its final ACK
        or drop.
        """
        difs_s = DIFS_S
        slot_time_s = SLOT_TIME_S
        draws = self._draws
        elapsed = 0.0
        attempt = 0
        for cw in CONTENTION_WINDOWS:
            attempt += 1
            # DIFS plus a backoff of 0..cw slots, drawn uniformly.
            elapsed += difs_s + draws.integers(cw + 1) * slot_time_s
            p_loss = attempt_loss_prob(start_time + elapsed)
            elapsed += airtime_s
            if draws.random() >= p_loss:
                self._counts[attempt] += 1
                return True, attempt, elapsed
        self._counts[0] += 1
        return False, attempt, elapsed
