"""Tests for the scenario library (wild mix + office testbed)."""

import numpy as np
import pytest

from repro.core.config import StreamProfile
from repro.core.replication import render_paired_run
from repro.scenarios import (
    WILD_MIX,
    build_office_pair,
    build_scenario,
    generate_wild_run,
    generate_wild_runs,
    sample_scenario_name,
    scenario_counts,
)
from repro.sim.random import RandomRouter

SHORT = StreamProfile(duration_s=10.0)


def test_mix_weights_sum_to_one():
    assert sum(s.weight for s in WILD_MIX) == pytest.approx(1.0)


def test_sample_scenario_name_distribution():
    rng = RandomRouter(0).stream("pick")
    names = [sample_scenario_name(rng) for _ in range(3000)]
    counts = {name: names.count(name) / len(names)
              for name in sorted(set(names))}
    for spec in WILD_MIX:
        assert counts.get(spec.name, 0.0) == pytest.approx(
            spec.weight, abs=0.04)


@pytest.mark.parametrize("name", [s.name for s in WILD_MIX])
def test_every_scenario_builds_and_runs(name):
    router = RandomRouter(1)
    link_a, link_b = build_scenario(name, router)
    run = render_paired_run(link_a, link_b, SHORT, scenario=name)
    assert run.n_packets == SHORT.n_packets
    assert 0.0 <= run.trace_a.loss_rate <= 1.0
    assert run.rssi_a_dbm < 0.0    # RSSI sampled


def test_unknown_scenario_raises():
    with pytest.raises(ValueError):
        build_scenario("tsunami", RandomRouter(0))


def test_generate_wild_runs_tags_scenarios():
    runs = generate_wild_runs(6, SHORT, seed=2)
    counts = scenario_counts(runs)
    assert sum(counts.values()) == 6
    assert all(name in {s.name for s in WILD_MIX} for name in counts)


def test_generate_wild_runs_pinned_scenario():
    runs = [generate_wild_run(idx, SHORT, seed=3, scenario="microwave")
            for idx in range(3)]
    assert scenario_counts(runs) == {"microwave": 3}


def test_generate_wild_runs_deterministic():
    a = generate_wild_runs(3, SHORT, seed=4)
    b = generate_wild_runs(3, SHORT, seed=4)
    for run_a, run_b in zip(a, b):
        assert np.array_equal(run_a.trace_a.delivered,
                              run_b.trace_a.delivered)
        assert run_a.scenario == run_b.scenario


def test_wild_runs_offset_traces_present():
    runs = generate_wild_runs(2, SHORT, seed=5, temporal_deltas=(0.0, 0.1))
    assert set(runs[0].offset_traces) == {0.0, 0.1}


def test_office_pair_primary_is_stronger():
    for seed in range(5):
        router = RandomRouter(seed)
        primary, secondary = build_office_pair(router)
        assert (primary.rssi_dbm(0.0) >= secondary.rssi_dbm(0.0) - 12.0)
        # (shadowing can perturb individual readings; distance dominates)


def test_office_pair_on_different_channels():
    primary, secondary = build_office_pair(RandomRouter(9))
    assert primary.config.channel != secondary.config.channel


def test_office_secondary_statistically_worse():
    """Across many locations the far link must lose more packets."""
    primary_losses, secondary_losses = [], []
    for seed in range(8):
        router = RandomRouter(seed + 100)
        primary, secondary = build_office_pair(router)
        primary_losses.append(primary.generate_trace(SHORT).loss_rate)
        secondary_losses.append(secondary.generate_trace(SHORT).loss_rate)
    assert np.mean(secondary_losses) >= np.mean(primary_losses)


def test_microwave_scenario_correlates_links():
    """Shared-fate interference must raise cross-link loss correlation
    relative to the independent-impairment scenarios."""
    from repro.analysis.correlation import loss_crosscorrelation
    longer = StreamProfile(duration_s=60.0)

    def mean_crosscorr(scenario, seeds):
        values = []
        for seed in seeds:
            router = RandomRouter(seed)
            link_a, link_b = build_scenario(scenario, router)
            run = render_paired_run(link_a, link_b, longer)
            cc = loss_crosscorrelation(run.trace_a, run.trace_b, max_lag=3)
            values.append(np.mean(cc))
        return float(np.mean(values))

    micro = mean_crosscorr("microwave", range(30, 36))
    weak = mean_crosscorr("weak_link", range(30, 36))
    assert micro > weak - 0.02
