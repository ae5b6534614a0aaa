"""Tests for the analysis layer: windows, bursts, correlation, CDFs."""

import math

import numpy as np
import pytest

from repro.analysis.bursts import burst_histogram, burst_lengths, burst_stats
from repro.analysis.cdf import EmpiricalCdf, percentile
from repro.analysis.correlation import (
    loss_autocorrelation,
    loss_crosscorrelation,
    mean_correlation_series,
)
from repro.analysis.report import (
    render_cdf_series,
    render_histogram,
    render_table,
)
from repro.analysis.windows import (
    assign_windows,
    window_loss_rates,
    window_loss_rates_timed,
    worst_window_loss,
)
from repro.core.packet import LinkTrace


def trace_from_losses(losses, spacing=0.02):
    delivered = [not bool(x) for x in losses]
    delays = [0.005 if d else math.nan for d in delivered]
    return LinkTrace("t", np.arange(len(losses)) * spacing,
                     delivered, delays)


# ----------------------------------------------------------------- windows

def test_window_rates_basic():
    # 20 ms spacing, 5 s window -> 250 packets/window.
    losses = [0] * 250 + [1] * 25 + [0] * 225
    rates = window_loss_rates(trace_from_losses(losses))
    assert rates.tolist() == [0.0, 0.1]


def test_worst_window_picks_max():
    losses = [0] * 250 + [1] * 125 + [0] * 125 + [1] * 250
    assert worst_window_loss(trace_from_losses(losses)) == 1.0


def test_partial_trailing_window_counted():
    losses = [0] * 250 + [1] * 10
    rates = window_loss_rates(trace_from_losses(losses))
    assert len(rates) == 2
    assert rates[1] == 1.0


def test_assign_windows_boundary_belongs_to_later_window():
    # Half-open [start, end): the 5.0 s timestamp is in window 1, never
    # in both windows 0 and 1.
    ids = assign_windows(np.array([0.0, 4.98, 5.0, 5.02, 10.0]))
    assert ids.tolist() == [0, 0, 1, 1, 2]


def test_assign_windows_tiles_without_double_counting():
    times = np.arange(0.0, 15.0, 0.5)
    ids = assign_windows(times)
    assert np.bincount(ids).sum() == times.size
    assert ids.max() == 2


def test_assign_windows_validation():
    with pytest.raises(ValueError):
        assign_windows(np.array([-1.0]))


def test_window_loss_rates_timed_boundary_packet_counted_once():
    # A lost packet exactly on the 5 s boundary affects only window 1.
    times = np.array([0.0, 2.5, 5.0, 7.5])
    losses = np.array([0.0, 0.0, 1.0, 0.0])
    rates = window_loss_rates_timed(times, losses)
    assert rates.tolist() == [0.0, 0.5]


def test_window_loss_rates_timed_empty_interior_window():
    times = np.array([0.0, 12.0])
    losses = np.array([1.0, 1.0])
    rates = window_loss_rates_timed(times, losses)
    assert rates.tolist() == [1.0, 0.0, 1.0]


def test_window_loss_rates_timed_matches_block_slicing_on_regular_grid():
    rng = np.random.default_rng(7)
    losses = (rng.random(1000) < 0.07).astype(float)
    times = np.arange(1000) * 0.020
    timed = window_loss_rates_timed(times, losses)
    block = window_loss_rates(losses, window_s=5.0,
                              inter_packet_spacing_s=0.020)
    assert timed.tolist() == block.tolist()


def test_worst_window_accepts_arrays():
    # window of one packet (0.02 s at 20 ms spacing) -> worst is the loss
    assert worst_window_loss(np.array([1.0, 0.0, 0.0, 0.0]),
                             window_s=0.02) == 1.0


def test_empty_trace_zero():
    assert worst_window_loss(np.array([])) == 0.0


def test_window_respects_spacing():
    # 1.6 ms spacing -> 3125 packets per 5 s window.
    losses = [1] * 3125 + [0] * 3125
    rates = window_loss_rates(np.array(losses),
                              inter_packet_spacing_s=0.0016)
    assert rates.tolist() == [1.0, 0.0]


# ------------------------------------------------------------------ bursts

def test_burst_lengths_identifies_runs():
    assert burst_lengths(np.array([0, 1, 1, 0, 1, 0, 1, 1, 1])) == [2, 1, 3]


def test_burst_lengths_run_at_end():
    assert burst_lengths(np.array([0, 1, 1])) == [2]


def test_burst_lengths_no_losses():
    assert burst_lengths(np.array([0, 0, 0])) == []


def test_burst_histogram_averages_per_call():
    t1 = np.array([1, 0, 1, 1, 0])     # one 1-burst, one 2-burst
    t2 = np.array([0, 0, 0, 0, 0])     # clean
    hist = burst_histogram([t1, t2])
    assert hist["1"] == pytest.approx(0.5)   # 1 lost packet / 2 calls
    assert hist["2"] == pytest.approx(1.0)   # 2 lost packets / 2 calls


def test_burst_histogram_overflow_bucket():
    t = np.array([1] * 15)
    hist = burst_histogram([t])
    assert hist[">10"] == pytest.approx(15.0)


def test_burst_stats_split():
    t = np.array([1, 0, 1, 1, 0, 1, 1, 1])
    stats = burst_stats([t])
    assert stats.mean_lost == pytest.approx(6.0)
    assert stats.mean_lost_in_bursts == pytest.approx(5.0)


def test_burst_stats_empty():
    stats = burst_stats([])
    assert stats.mean_lost == 0.0
    assert stats.mean_lost_in_bursts == 0.0


# ------------------------------------------------------------- correlation

def test_autocorrelation_of_bursty_process_positive():
    rng = np.random.default_rng(0)
    # Markov loss chain: sticky states -> positive lag-1 autocorrelation.
    state, xs = 0, []
    for _ in range(20000):
        if rng.random() < 0.02:
            state = 1 - state
        xs.append(state)
    ac = loss_autocorrelation(np.array(xs, dtype=float), max_lag=5)
    assert ac[0] > 0.8
    assert all(ac[i] >= ac[i + 1] - 0.05 for i in range(4))


def test_crosscorrelation_of_independent_processes_near_zero():
    rng = np.random.default_rng(1)
    a = (rng.random(20000) < 0.05).astype(float)
    b = (rng.random(20000) < 0.05).astype(float)
    cc = loss_crosscorrelation(a, b, max_lag=5)
    assert np.all(np.abs(cc) < 0.05)


def test_correlation_degenerate_series_zero():
    a = np.zeros(100)
    assert np.all(loss_autocorrelation(a, max_lag=3) == 0.0)


def test_crosscorrelation_identical_series_is_autocorrelation():
    rng = np.random.default_rng(2)
    x = (rng.random(5000) < 0.2).astype(float)
    ac = loss_autocorrelation(x, max_lag=4)
    cc = loss_crosscorrelation(x, x, max_lag=4)
    assert np.allclose(ac, cc)


def test_mean_correlation_series_averages():
    a = np.array([1, 1, 0, 0] * 100, dtype=float)
    pairs = [(a, a), (a, a)]
    auto = mean_correlation_series(pairs)
    single = loss_autocorrelation(a)
    assert np.allclose(auto, single)


# --------------------------------------------------------------------- cdf

def test_percentile_basic():
    assert percentile([1, 2, 3, 4, 5], 50) == 3.0


def test_percentile_empty_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_cdf_quantile_bounds():
    cdf = EmpiricalCdf([5.0, 10.0])
    with pytest.raises(ValueError):
        cdf.quantile(1.5)
    assert cdf.quantile(0.0) == 5.0
    assert cdf.quantile(1.0) == 10.0


def test_cdf_series_monotone():
    cdf = EmpiricalCdf(np.random.default_rng(3).random(500))
    points = cdf.series()
    xs = [x for x, _ in points]
    fs = [f for _, f in points]
    assert xs == sorted(xs)
    assert fs == sorted(fs)
    assert len(points) == 100


def test_cdf_empty_raises():
    with pytest.raises(ValueError):
        EmpiricalCdf([])


def test_cdf_stats():
    cdf = EmpiricalCdf([2.0, 4.0, 6.0])
    assert cdf.mean == pytest.approx(4.0)
    assert cdf.median == pytest.approx(4.0)
    assert len(cdf) == 3


# ------------------------------------------------------------------ report

def test_render_table_contains_cells():
    out = render_table("Title", ["a", "b"], [[1, 2.5], ["x", "y"]])
    assert "Title" in out and "2.50" in out and "x" in out


def test_render_cdf_series_percentiles():
    points = [(float(i), (i + 1) / 10.0) for i in range(10)]
    out = render_cdf_series("CDF", {"s": points})
    assert "s" in out and "p90" in out


def test_render_histogram_bars():
    out = render_histogram("H", {"1": 10.0, "2": 5.0})
    assert "#" in out and "10.00" in out
