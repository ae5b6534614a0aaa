"""Tests for the experiment drivers (small run counts — mechanism checks,
not statistics; the benchmarks assert the paper-shape at scale)."""

import numpy as np
import pytest

from repro.experiments.section3 import run_figure1, run_table1, run_table2
from repro.experiments.section4 import (
    run_figure2a,
    run_figure3,
    run_figure4,
    run_figure5,
    wild_dataset,
)
from repro.experiments.section6 import (
    run_figure10,
    run_section64_scalability,
    run_table3,
)


def test_wild_dataset_cached():
    a = wild_dataset(3, seed=11)
    b = wild_dataset(3, seed=11)
    assert a is b            # lru_cache hit


def test_figure2a_structure():
    result = run_figure2a(n_runs=4, seed=13)
    assert set(result.series) == {"cross-link", "stronger", "better"}
    assert all(len(v) == 4 for v in result.series.values())
    assert "Figure 2a" in result.render()


def test_figure3_finds_weak_pair():
    result = run_figure3(seed=1)
    assert result.loss_a_pct >= 0.0
    assert result.loss_combined_pct <= max(result.loss_a_pct,
                                           result.loss_b_pct)
    assert "Figure 3" in result.render()


def test_figure4_lags():
    result = run_figure4(n_runs=3, seed=14)
    assert result.lags == list(range(1, 21))
    assert len(result.autocorrelation) == 20


def test_figure5_histograms():
    result = run_figure5(n_runs=3, seed=15)
    assert set(result.histograms) == {
        "stronger", "temporal (100ms)", "cross-link"}
    for hist in result.histograms.values():
        assert ">10" in hist


def test_table1_driver():
    result = run_table1(n_calls=20_000, seed=1)
    assert len(result.tables.rows) == 4
    assert 0.0 < result.tables.overall_pcr < 1.0
    assert "Table 1" in result.render()


def test_table1_without_rated_calls_renders_nan_mos():
    """Regression: with no rated call the MOS line read ``mean=0.000``,
    outside MOS's range [1, 4.5], next to ``nan`` spread and quantiles."""
    result = run_table1(n_calls=1, seed=0)
    assert result.tables.mos_moments.count == 0
    assert "rated-call MOS: mean=nan sd=nan" in result.render()


def test_table2_driver():
    result = run_table2(seed=1, scale=0.02)
    assert "Table 2" in result.render()
    rows = result.tables.rows
    assert rows[-1][0] == "Total"


def test_figure1_driver():
    result = run_figure1(seed=1)
    assert len(result.locations) == 16
    assert "Figure 1" in result.render()


def test_table3_components_sum():
    result = run_table3(n_events=10)
    assert result.ap_total_ms == pytest.approx(
        result.ap_switching_ms + result.ap_network_ms, abs=1e-6)
    assert result.mbox_total_ms == pytest.approx(
        result.mbox_switching_ms + result.mbox_network_ms
        + result.mbox_queuing_ms, abs=1e-6)
    assert result.mbox_total_ms > result.ap_total_ms


def test_scalability_monotone():
    result = run_section64_scalability(loads=(0, 1000), n_events=5)
    assert result.total_delay_ms[1] > result.total_delay_ms[0]
    assert "6.4" in result.render()


def test_figure10_paired_runs():
    result = run_figure10(n_runs=2, seed0=500)
    assert len(result.with_diversifi_mbps) == 2
    assert len(result.differences_kbps) == 2
    assert result.mean_without > 0.5     # TCP actually moved data
