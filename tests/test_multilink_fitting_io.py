"""Tests for N-link diversity and Gilbert fitting."""

import numpy as np
import pytest

from repro.analysis.fitting import fit_gilbert
from repro.channel.gilbert import GilbertParams, sample_loss_array
from repro.channel.link import LinkConfig, WifiLink
from repro.channel.mobility import Position, StaticPosition
from repro.core.config import StreamProfile
from repro.core.multilink import (
    best_of,
    diversity_gain_curve,
    make_before_break,
    render_multilink_run,
)
from repro.sim import RandomRouter

SHORT = StreamProfile(duration_s=10.0)


def make_links(n, seed=0, bad=True):
    client = StaticPosition(Position(0, 0))
    router = RandomRouter(seed)
    links = []
    for i in range(n):
        gilbert = GilbertParams(mean_good_s=2.0, mean_bad_s=0.4,
                                loss_good=0.0, loss_bad=0.98) if bad \
            else GilbertParams(mean_good_s=1e9, mean_bad_s=0.01,
                               loss_good=0.0, loss_bad=0.0)
        links.append(WifiLink(
            LinkConfig(name=f"L{i}", ap_position=Position(5.0 + 2 * i, 0),
                       gilbert=gilbert, base_delay_s=0.0),
            router, mobility=client))
    return links


# --------------------------------------------------------------- multilink

def test_render_multilink_shapes():
    run = render_multilink_run(make_links(3), SHORT)
    assert run.n_links == 3
    assert all(len(t) == SHORT.n_packets for t in run.traces)
    assert len(run.rssi_dbm) == 3


def test_render_multilink_empty_rejected():
    with pytest.raises(ValueError):
        render_multilink_run([], SHORT)


def test_best_of_k_bounds():
    run = render_multilink_run(make_links(2), SHORT)
    with pytest.raises(ValueError):
        best_of(run, 0)
    with pytest.raises(ValueError):
        best_of(run, 3)


def test_best_of_one_is_strongest_link():
    run = render_multilink_run(make_links(3), SHORT)
    strongest = int(np.argmax(run.rssi_dbm))
    assert best_of(run, 1).name == run.traces[strongest].name


def test_diversity_gain_monotone():
    """More links can only help (loss is a union over links)."""
    runs = [render_multilink_run(make_links(4, seed=s), SHORT)
            for s in range(3)]
    curve = diversity_gain_curve(runs, metric=lambda t: t.loss_rate)
    values = [curve[k] for k in sorted(curve)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert curve[4] < curve[1]     # diversity pays on bad links


def test_diversity_diminishing_returns():
    runs = [render_multilink_run(make_links(4, seed=s + 10), SHORT)
            for s in range(4)]
    curve = diversity_gain_curve(runs, metric=lambda t: t.loss_rate)
    first_gain = curve[1] - curve[2]
    later_gain = curve[3] - curve[4]
    assert curve[2] < curve[1]     # the second link pays
    assert first_gain >= later_gain - 1e-9


def test_make_before_break_no_gap():
    run = render_multilink_run(make_links(2, bad=False), SHORT)
    trace = make_before_break(run)
    assert trace.loss_rate == 0.0


def test_make_before_break_between_selection_and_diversity():
    runs = [render_multilink_run(make_links(2, seed=s + 20), SHORT)
            for s in range(4)]
    mbb = np.mean([make_before_break(r).loss_rate for r in runs])
    stay = np.mean([best_of(r, 1).loss_rate for r in runs])
    merge = np.mean([best_of(r, 2).loss_rate for r in runs])
    assert merge <= mbb + 1e-9       # replication dominates handoff
    assert mbb <= stay + 0.02        # handoff at least ~matches staying


# ----------------------------------------------------------------- fitting

def test_fit_recovers_generating_parameters():
    params = GilbertParams(mean_good_s=2.0, mean_bad_s=0.3,
                           loss_good=0.0, loss_bad=1.0)
    rng = RandomRouter(1).stream("fit")
    losses = sample_loss_array(params, 200_000, 0.02, rng)
    fit = fit_gilbert(losses, spacing_s=0.02)
    assert fit.params.mean_bad_s == pytest.approx(0.3, rel=0.25)
    assert fit.params.mean_good_s == pytest.approx(2.0, rel=0.25)
    assert fit.loss_rate == pytest.approx(
        params.stationary_bad_fraction, rel=0.2)


def test_fit_stationary_rate_consistent():
    params = GilbertParams(mean_good_s=1.0, mean_bad_s=0.2,
                           loss_good=0.0, loss_bad=1.0)
    rng = RandomRouter(2).stream("fit")
    losses = sample_loss_array(params, 100_000, 0.02, rng)
    fit = fit_gilbert(losses, spacing_s=0.02)
    bad = fit.params.stationary_bad_fraction
    implied = bad * fit.params.loss_bad + (1.0 - bad) * fit.params.loss_good
    assert implied == pytest.approx(fit.loss_rate, rel=0.2)


def test_fit_clean_trace():
    fit = fit_gilbert(np.zeros(1000))
    assert fit.loss_rate == 0.0
    assert fit.n_bursts == 0


def test_fit_empty_raises():
    with pytest.raises(ValueError):
        fit_gilbert(np.array([]))


def test_fit_burst_length_estimate():
    losses = np.array(([0] * 20 + [1] * 4) * 50, dtype=float)
    fit = fit_gilbert(losses)
    assert fit.mean_burst_packets == pytest.approx(4.0)
    assert fit.n_bursts == 50
