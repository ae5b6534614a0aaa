"""Auto- and cross-correlation of the packet-loss process (Figure 4).

The paper's key statistical argument: within one link, the loss indicator
is positively autocorrelated out to lags of 20 packets (400 ms at 20 ms
spacing), while the cross-correlation between two links' loss processes is
much smaller — so replication across links recovers what retransmission
within a link cannot.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.core.packet import LinkTrace, loss_array


def _corr_at_lag(x: np.ndarray, y: np.ndarray, lag: int) -> float:
    """Pearson correlation of x[t] and y[t+lag] (NaN-safe -> 0.0)."""
    if lag > 0:
        a, b = x[:-lag], y[lag:]
    elif lag < 0:
        a, b = x[-lag:], y[:lag]
    else:
        a, b = x, y
    if len(a) < 2:
        return 0.0
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def loss_autocorrelation(trace: Union[LinkTrace, np.ndarray],
                         max_lag: int = 20) -> np.ndarray:
    """Autocorrelation of the loss indicator at lags 1..max_lag."""
    x = loss_array(trace)
    return np.array([_corr_at_lag(x, x, lag)
                     for lag in range(1, max_lag + 1)])


def loss_crosscorrelation(trace_a: Union[LinkTrace, np.ndarray],
                          trace_b: Union[LinkTrace, np.ndarray],
                          max_lag: int = 20) -> np.ndarray:
    """Cross-correlation of two links' loss processes at lags 1..max_lag."""
    x = loss_array(trace_a)
    y = loss_array(trace_b)
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    return np.array([_corr_at_lag(x, y, lag)
                     for lag in range(1, max_lag + 1)])


def mean_correlation_series(pairs: Sequence) -> np.ndarray:
    """Average the autocorrelation of ``trace_a`` at lags 1..20 over
    many calls.

    ``pairs`` is a sequence of (trace_a, trace_b).  Calls whose loss
    process is degenerate (no losses) contribute zeros, mirroring how an
    all-delivered call carries no correlation information.
    """
    curves = [loss_autocorrelation(trace_a) for trace_a, _trace_b in pairs]
    if not curves:
        return np.zeros(20)
    return np.mean(np.vstack(curves), axis=0)
