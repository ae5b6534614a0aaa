"""Empirical CDFs and percentile helpers for figure series."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) of ``values`` (linear interpolation)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of empty sequence")
    return float(np.percentile(arr, q))


class EmpiricalCdf:
    """An empirical distribution built from samples.

    Mirrors how the paper plots "fraction of data streams" against a
    per-stream metric (e.g. worst-5s loss percentage).
    """

    def __init__(self, samples: Iterable[float]):
        self._sorted = np.sort(np.asarray(list(samples), dtype=float))
        if self._sorted.size == 0:
            raise ValueError("empty sample set")

    def __len__(self) -> int:
        return int(self._sorted.size)

    def quantile(self, q: float) -> float:
        """Inverse CDF at q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile argument outside [0, 1]")
        return float(np.percentile(self._sorted, q * 100.0))

    def series(self) -> List[Tuple[float, float]]:
        """At most 100 (x, F(x)) pairs for plotting/printing."""
        n = self._sorted.size
        fractions = np.arange(1, n + 1) / n
        if n <= 100:
            return list(zip(self._sorted.tolist(), fractions.tolist()))
        idx = np.linspace(0, n - 1, 100).astype(int)
        return list(zip(self._sorted[idx].tolist(), fractions[idx].tolist()))

    @property
    def mean(self) -> float:
        return float(self._sorted.mean())

    @property
    def median(self) -> float:
        return self.quantile(0.5)
