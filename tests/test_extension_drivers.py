"""Tests for the extension experiment drivers."""

from repro.experiments.extensions import (
    N_LINKS,
    UPLINK_SEVERITIES,
    run_fec_comparison,
    run_nlink_sweep,
    run_uplink,
)


def test_uplink_driver_structure():
    result = run_uplink(n_runs=2, seed=1)
    assert result.severities == list(UPLINK_SEVERITIES)
    assert len(result.plain_loss_pct) == len(UPLINK_SEVERITIES)
    assert "Uplink" in result.render()


def test_uplink_hedging_never_worse():
    result = run_uplink(n_runs=3, seed=2)
    for plain, hedged in zip(result.plain_loss_pct, result.hedged_loss_pct):
        assert hedged <= plain + 0.1


def test_nlink_driver_structure():
    result = run_nlink_sweep(n_runs=3, seed=3)
    assert set(result.curve) == set(range(1, N_LINKS + 1))
    assert "Diversity" in result.render()


def test_nlink_curve_monotone():
    result = run_nlink_sweep(n_runs=4, seed=4)
    assert result.curve[N_LINKS] <= result.curve[1] + 1e-9


def test_fec_driver_structure():
    result = run_fec_comparison(n_runs=3, seed=5)
    assert result.fec_overhead_pct == 20.0
    assert "Coding vs diversity" in result.render()


def test_fec_loses_to_cross_link():
    result = run_fec_comparison(n_runs=4, seed=6)
    assert result.cross_loss_pct <= result.fec_loss_pct + 0.5
