"""Vectorized per-session summary records.

Reduces a :class:`~repro.batch.render.TraceBlock` plus the strategy
suite to the exact JSON payloads the event driver's
``section4.wild_run_metrics`` emits — one dict per session with
``scenario`` / ``worst_window`` / ``poor`` / ``bursts`` / ``autocorr`` /
``crosscorr`` — so figure assembly code consumes either backend
unchanged.  Every reduction here is the whole-population analogue of a
scalar pipeline stage (:mod:`repro.analysis.windows`,
:mod:`repro.analysis.bursts`, :mod:`repro.analysis.correlation`,
:mod:`repro.voice`), matching it row-for-row on identical traces.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.analysis.bursts import BURST_BUCKETS, MAX_BURST_BUCKET
from repro.batch.render import TraceBlock
from repro.batch.strategies import strategy_suite
from repro.core.strategies import BURST_STRATEGIES, POOR_STRATEGIES
from repro.core.types import BoolArray, FloatArray
from repro.voice.pcr import (
    EXTRA_ONE_WAY_DELAY_S,
    PLAYOUT_DELAY_S,
    POOR_MOS_THRESHOLD,
    WORST_WINDOW_WEIGHT,
)
from repro.voice.quality import emodel_r_factor, r_to_mos

_WINDOW_S = 5.0


def worst_window_rows(losses: FloatArray, spacing_s: float) -> FloatArray:
    """Per-row :func:`repro.analysis.windows.worst_window_loss`:
    fixed packet-count blocks including the trailing partial window."""
    b, n = losses.shape
    if n == 0:
        return np.zeros(b)
    per_window = max(int(round(_WINDOW_S / spacing_s)), 1)
    offsets = np.arange(0, n, per_window)
    sums = np.add.reduceat(losses, offsets, axis=1)
    counts = np.diff(np.append(offsets, n))
    return (sums / counts).max(axis=1)


def burst_runs(missing: BoolArray) -> Tuple[np.ndarray, np.ndarray]:
    """All loss bursts of a (B, T) missing mask as flat ``(rows,
    lengths)`` arrays, in row-major order — the vectorized counterpart
    of :func:`repro.analysis.bursts.burst_lengths` per row."""
    b, n = missing.shape
    padded = np.zeros((b, n + 2), dtype=np.int8)
    padded[:, 1:-1] = missing
    step = np.diff(padded, axis=1)
    rows, starts = np.nonzero(step == 1)
    _, ends = np.nonzero(step == -1)
    return rows, ends - starts


def mean_burst_rows(missing: BoolArray) -> FloatArray:
    """Per-row mean burst length (0.0 for rows with no losses)."""
    b = missing.shape[0]
    rows, lengths = burst_runs(missing)
    total = np.bincount(rows, weights=lengths.astype(float), minlength=b)
    count = np.bincount(rows, minlength=b)
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def burst_contribution_rows(missing: BoolArray
                            ) -> List[Dict[str, Any]]:
    """Per-row burst accounting payloads (section4 ``_burst_contribution``):
    packets lost by burst-length bucket, total lost, and lost in bursts."""
    b = missing.shape[0]
    rows, lengths = burst_runs(missing)
    n_buckets = MAX_BURST_BUCKET + 1
    bucket = np.minimum(lengths, MAX_BURST_BUCKET + 1) - 1
    weights = lengths.astype(float)
    packets = np.bincount(rows * n_buckets + bucket, weights=weights,
                          minlength=b * n_buckets).reshape(b, n_buckets)
    lost = packets.sum(axis=1)
    bursty = np.bincount(rows, weights=weights * (lengths >= 2),
                         minlength=b)
    return [{
        "buckets": {label: float(packets[row, i])
                    for i, label in enumerate(BURST_BUCKETS)},
        "lost": float(lost[row]),
        "bursty": float(bursty[row]),
    } for row in range(b)]


def mos_rows(delivered: BoolArray, delays: FloatArray,
             spacing_s: float) -> FloatArray:
    """Per-row MOS, the vectorized :func:`repro.voice.pcr.score_call`
    pipeline: playout deadline, worst-window blend, burst-aware E-model."""
    with np.errstate(invalid="ignore"):
        played = delivered & (delays <= PLAYOUT_DELAY_S + 1e-12)
    missing = ~played
    loss = missing.mean(axis=1) if missing.shape[1] else \
        np.zeros(missing.shape[0])
    worst = worst_window_rows(missing.astype(float), spacing_s)
    mean_burst = mean_burst_rows(missing)

    raw = np.where(delivered, delays, np.nan)
    any_delivered = delivered.any(axis=1)
    median = np.zeros(len(raw))
    if any_delivered.any():
        median[any_delivered] = np.nanmedian(raw[any_delivered], axis=1)
    one_way = EXTRA_ONE_WAY_DELAY_S + np.maximum(median, 0.0) \
        + PLAYOUT_DELAY_S / 2.0

    r_full = emodel_r_factor(loss, one_way, mean_burst)
    r_worst = emodel_r_factor(worst, one_way, mean_burst)
    r = (1.0 - WORST_WINDOW_WEIGHT) * r_full + WORST_WINDOW_WEIGHT * r_worst
    return r_to_mos(r)


def correlation_rows(x: FloatArray, y: FloatArray,
                     max_lag: int) -> FloatArray:
    """Per-row Pearson correlation of ``x[t]`` and ``y[t+lag]`` for lags
    1..max_lag (``analysis.correlation._corr_at_lag`` semantics:
    degenerate rows — too short or zero variance — report 0.0)."""
    b, n = x.shape
    out = np.zeros((b, max_lag))
    for lag in range(1, max_lag + 1):
        if n - lag < 2:
            continue
        a = x[:, :n - lag]
        c = y[:, lag:]
        mean_a = a.mean(axis=1, keepdims=True)
        mean_c = c.mean(axis=1, keepdims=True)
        std_a = a.std(axis=1)
        std_c = c.std(axis=1)
        cov = ((a - mean_a) * (c - mean_c)).mean(axis=1)
        ok = (std_a != 0.0) & (std_c != 0.0)
        out[ok, lag - 1] = cov[ok] / (std_a[ok] * std_c[ok])
    return out


def session_payloads(block: TraceBlock,
                     max_lag: int = 20) -> List[Dict[str, Any]]:
    """One ``wild_run_metrics``-shaped payload dict per session."""
    spacing = block.spacing_s
    suite = strategy_suite(block)
    b = block.n_sessions

    worst: Dict[str, FloatArray] = {}
    poor: Dict[str, np.ndarray] = {}
    bursts: Dict[str, List[Dict[str, Any]]] = {}
    for name, delivered, delays in suite:
        losses = (~delivered).astype(float)
        worst[name] = 100.0 * worst_window_rows(losses, spacing)
        if name in POOR_STRATEGIES:
            poor[name] = mos_rows(delivered, delays,
                                  spacing) < POOR_MOS_THRESHOLD
        if name in BURST_STRATEGIES:
            bursts[name] = burst_contribution_rows(~delivered)

    loss_a = (~block.delivered[:, 0]).astype(float)
    loss_b = (~block.delivered[:, 1]).astype(float)
    auto = correlation_rows(loss_a, loss_a, max_lag)
    cross = correlation_rows(loss_a, loss_b, max_lag)

    return [{
        "scenario": block.scenarios[row],
        "worst_window": {name: float(vals[row])
                         for name, vals in worst.items()},
        "poor": {name: bool(vals[row]) for name, vals in poor.items()},
        "bursts": {name: vals[row] for name, vals in bursts.items()},
        "autocorr": [float(v) for v in auto[row]],
        "crosscorr": [float(v) for v in cross[row]],
    } for row in range(b)]
