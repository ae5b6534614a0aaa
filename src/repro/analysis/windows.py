"""Windowed loss metrics.

The paper divides each simulated call into 5-second periods and reports the
loss rate of the *worst* period, citing evidence that the worst degradation
in a short call dominates user-perceived quality [38].  Windows are aligned
to the stream's send times (a 2-minute, 20 ms-spaced call has 24 windows of
250 packets).

Every window in this module is **half-open**: window ``i`` covers
``[i * window_s, (i + 1) * window_s)``, so a packet landing exactly on a
boundary belongs to the *later* window and adjacent windows tile the
call without double-counting — the same ``[start, end)`` convention as
:meth:`repro.sim.tracing.EventLog.between` and the
:class:`repro.obs.registry.Histogram` buckets.  (Index-block slicing in
:func:`window_loss_rates` has always tiled; the time-based
:func:`assign_windows` makes the convention explicit for irregular
timestamps.)
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from repro.core.packet import LinkTrace, loss_array


def window_loss_rates(trace: Union[LinkTrace, np.ndarray],
                      window_s: float = 5.0,
                      inter_packet_spacing_s: float = 0.020) -> np.ndarray:
    """Per-window loss rates.

    ``trace`` may be a :class:`LinkTrace` or a 0/1 loss-indicator array.
    Windows are contiguous, non-overlapping blocks of
    ``window_s / inter_packet_spacing_s`` packets; a trailing partial
    window is included if it holds at least one packet.
    """
    losses = loss_array(trace)
    if losses.size == 0:
        return np.array([])
    per_window = max(int(round(window_s / inter_packet_spacing_s)), 1)
    rates: List[float] = []
    for start in range(0, len(losses), per_window):
        block = losses[start:start + per_window]
        rates.append(float(block.mean()))
    return np.asarray(rates)


def assign_windows(times: np.ndarray) -> np.ndarray:
    """Half-open 5-second window index for each timestamp.

    A timestamp ``t`` lands in window ``floor(t / 5)``: window ``i``
    covers ``[5i, 5(i+1))``, so a packet exactly on a boundary belongs to
    the later window and no timestamp is ever counted in two adjacent
    windows.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise ValueError("timestamps precede the call's start")
    return np.floor(times / 5.0).astype(int)


def window_loss_rates_timed(times: np.ndarray,
                            losses: Union[LinkTrace, np.ndarray]
                            ) -> np.ndarray:
    """Per-5-second-window loss rates with windows cut by *timestamp*.

    Unlike :func:`window_loss_rates` (fixed packet-count blocks), this
    handles irregular send times: packets are binned by
    :func:`assign_windows`, empty interior windows report a loss rate
    of 0.0, and the observation period ends at the last timestamp's
    window.
    """
    loss = loss_array(losses)
    times = np.asarray(times, dtype=float)
    if times.shape != loss.shape:
        raise ValueError(
            f"times {times.shape} and losses {loss.shape} differ")
    if times.size == 0:
        return np.array([])
    ids = assign_windows(times)
    n_windows = int(ids.max()) + 1
    lost = np.bincount(ids, weights=loss, minlength=n_windows)
    total = np.bincount(ids, minlength=n_windows)
    rates = np.zeros(n_windows)
    nonempty = total > 0
    rates[nonempty] = lost[nonempty] / total[nonempty]
    return rates


def worst_window_loss(trace: Union[LinkTrace, np.ndarray],
                      window_s: float = 5.0,
                      inter_packet_spacing_s: float = 0.020) -> float:
    """Loss rate (fraction) of the worst window — the Figure 2/8 metric."""
    rates = window_loss_rates(trace, window_s, inter_packet_spacing_s)
    if rates.size == 0:
        return 0.0
    return float(rates.max())
