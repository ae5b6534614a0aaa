"""Loss burst statistics.

Burst losses are the real enemy of interactive audio: concealment can paper
over an isolated 20 ms gap, but consecutive losses produce audible
artifacts.  Figures 5 and 9 plot the distribution of burst lengths and the
split between isolated and bursty losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.core.packet import LinkTrace, loss_array

#: the burst-length bars of Figures 5 and 9: "1" .. "10", then ">10"
MAX_BURST_BUCKET = 10
BURST_BUCKETS: Tuple[str, ...] = tuple(
    str(i) for i in range(1, MAX_BURST_BUCKET + 1)) + (f">{MAX_BURST_BUCKET}",)


def burst_bucket(length: int) -> str:
    """The bar a burst of ``length`` (>= 1) lost packets falls in."""
    return BURST_BUCKETS[min(length, MAX_BURST_BUCKET + 1) - 1]


def burst_lengths(trace: Union[LinkTrace, np.ndarray]) -> List[int]:
    """Lengths of maximal runs of consecutive losses."""
    losses = loss_array(trace) > 0.5
    lengths: List[int] = []
    run = 0
    for lost in losses:
        if lost:
            run += 1
        elif run:
            lengths.append(run)
            run = 0
    if run:
        lengths.append(run)
    return lengths


def burst_histogram(traces) -> Dict[str, float]:
    """Average per-call packets lost by burst length (Figure 5/9 bars).

    Buckets are :data:`BURST_BUCKETS`.  ``traces`` is a sequence of
    calls; counts are averaged across them.
    """
    buckets = dict.fromkeys(BURST_BUCKETS, 0.0)
    n_calls = 0
    for trace in traces:
        n_calls += 1
        for length in burst_lengths(trace):
            # packets lost in bursts of this length
            buckets[burst_bucket(length)] += length
    if n_calls:
        for key in buckets:
            buckets[key] /= n_calls
    return buckets


@dataclass
class BurstStats:
    """Per-call averages of total vs bursty losses (paper Section 4.2/6.2)."""

    mean_lost: float
    mean_lost_in_bursts: float


def burst_stats(traces) -> BurstStats:
    """Average packets lost per call, and the share in bursts of >= 2."""
    total, bursty, n_calls = 0.0, 0.0, 0
    for trace in traces:
        n_calls += 1
        for length in burst_lengths(trace):
            total += length
            if length >= 2:
                bursty += length
    if n_calls == 0:
        return BurstStats(0.0, 0.0)
    return BurstStats(total / n_calls, bursty / n_calls)
