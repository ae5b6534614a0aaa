"""Small-scale integration tests of the paper's headline claims.

The benchmarks assert these shapes at evaluation scale; the versions here
run in seconds as part of the regular test suite, guarding the claims
against regressions between benchmark runs.  Each test names the claim
it protects.
"""

import numpy as np
import pytest

from repro.analysis.summary import permutation_pvalue
from repro.analysis.windows import worst_window_loss
from repro.core import strategies
from repro.core.config import StreamProfile
from repro.core.controller import run_session
from repro.scenarios import build_office_pair, generate_wild_runs

PROFILE = StreamProfile(duration_s=30.0)   # 1500 packets per call
N_WILD = 14
N_OFFICE = 8


@pytest.fixture(scope="module")
def wild_runs():
    return generate_wild_runs(N_WILD, PROFILE, seed=42,
                              temporal_deltas=(0.1,))


def worst(trace):
    return worst_window_loss(trace)


# ------------------------------------------------------ Section 4 claims

def test_claim_crosslink_beats_selection(wild_runs):
    """'Cross-link dominates both selection strategies' (Fig 2a)."""
    cross = [worst(strategies.cross_link(r)) for r in wild_runs]
    strong = [worst(strategies.stronger(r)) for r in wild_runs]
    assert np.mean(cross) < np.mean(strong)
    # Paired significance: same channel realizations.
    assert permutation_pvalue(cross, strong) < 0.05


def test_claim_crosslink_beats_divert(wild_runs):
    """'Divert only helps future packets' (Fig 2b)."""
    cross = [worst(strategies.cross_link(r)) for r in wild_runs]
    div = [worst(strategies.divert(r)) for r in wild_runs]
    assert np.mean(cross) <= np.mean(div) + 1e-9


def test_claim_crosslink_beats_temporal(wild_runs):
    """'Cross-link dominates temporal replication' (Fig 2c)."""
    cross = [worst(strategies.cross_link(r)) for r in wild_runs]
    temporal = [worst(strategies.temporal(r, 0.1)) for r in wild_runs]
    assert np.mean(cross) <= np.mean(temporal) + 1e-9


def test_claim_temporal_beats_baseline(wild_runs):
    """'Temporal replication does improve on no replication' (Fig 2c)."""
    temporal = [worst(strategies.temporal(r, 0.1)) for r in wild_runs]
    base = [worst(strategies.baseline(r)) for r in wild_runs]
    assert np.mean(temporal) <= np.mean(base) + 1e-9


def test_claim_autocorrelation_dominates_cross(wild_runs):
    """'Within-link loss correlation exceeds cross-link' (Fig 4)."""
    from repro.analysis.correlation import (
        loss_crosscorrelation,
        mean_correlation_series,
    )
    pairs = [(r.trace_a, r.trace_b) for r in wild_runs]
    auto = mean_correlation_series(pairs)
    cross = np.mean([loss_crosscorrelation(a, b) for a, b in pairs],
                    axis=0)
    assert np.mean(auto) > np.mean(cross)


# ------------------------------------------------------ Section 6 claims

@pytest.fixture(scope="module")
def office_results():
    out = {"primary-only": [], "diversifi-ap": []}
    for seed in range(N_OFFICE):
        for mode in out:
            out[mode].append(run_session(
                build_office_pair, mode=mode, profile=PROFILE, seed=seed))
    return out


def test_claim_diversifi_cuts_loss(office_results):
    """'A reduction in PCR from 4.9% down to 0%' — at test scale, a
    large drop in residual loss (Fig 8)."""
    base = np.mean([r.effective_trace().loss_rate
                    for r in office_results["primary-only"]])
    div = np.mean([r.effective_trace().loss_rate
                   for r in office_results["diversifi-ap"]])
    if base > 0.001:
        assert div < base / 2.0


def test_claim_duplication_tiny(office_results):
    """'Duplicating wastefully only 0.62% of the packets' (§6.3)."""
    waste = np.mean([r.wasteful_duplication_rate()
                     for r in office_results["diversifi-ap"]])
    assert waste < 0.03      # orders below naive 100%


def test_claim_bursts_suppressed(office_results):
    """'Only 0.9 of 2.7 lost packets in bursts' vs 35.9/44.3 (Fig 9)."""
    from repro.analysis.bursts import burst_stats
    base = burst_stats([r.effective_trace()
                        for r in office_results["primary-only"]])
    div = burst_stats([r.effective_trace()
                       for r in office_results["diversifi-ap"]])
    if base.mean_lost_in_bursts > 1.0:
        assert div.mean_lost_in_bursts < base.mean_lost_in_bursts


def test_claim_off_channel_time_small(office_results):
    """'Coexistence': the NIC leaves DEF for well under 1% of the call."""
    for result in office_results["diversifi-ap"]:
        assert result.off_channel_time_s < 0.01 * PROFILE.duration_s


def test_claim_secondary_transmissions_bounded(office_results):
    """Network-side buffering means air duplication ~ losses, not ~ the
    stream ('benefit of replication without the overhead')."""
    for result in office_results["diversifi-ap"]:
        assert (result.secondary_air_transmissions
                < 0.1 * PROFILE.n_packets)
