"""Batch-vs-event statistical equivalence (the REPRO_SANITIZE harness).

The event engine is the reference.  These tests render populations with
the batch backend and re-run sessions through
:func:`repro.scenarios.generate_wild_run`, checking the tolerances of
:mod:`repro.batch.sanity` — and exercise the sanitizer wiring both
ways: a healthy block passes ``check_block_equivalence``, a corrupted
one raises :class:`~repro.batch.sanity.BatchEquivalenceError`.
"""

import dataclasses

import numpy as np
import pytest

from repro.batch.population import PopulationSpec
from repro.batch.render import render_block
from repro.batch.sanity import (
    BatchEquivalenceError,
    check_block_equivalence,
)
from repro.scenarios import generate_wild_run
from repro.sim.sanitize import SanitizerError

#: repro.batch.sanity loss tolerance
LOSS_REL, LOSS_ABS = 1.0, 0.01


def pooled_stats(spec, block, positions):
    """(batch, event) per-link pooled loss over the given sessions."""
    batch = np.zeros(2)
    event = np.zeros(2)
    for pos in positions:
        run = generate_wild_run(
            block.indices[pos], spec.profile, seed=spec.root_seed,
            temporal_deltas=spec.deltas,
            mimo_branches=spec.mimo_branches, scenario=spec.scenario)
        assert run.scenario == block.scenarios[pos]
        for col, trace in enumerate((run.trace_a, run.trace_b)):
            batch[col] += np.mean(~block.delivered[pos, col])
            event[col] += np.mean(~trace.delivered)
    return batch / len(positions), event / len(positions)


@pytest.mark.parametrize("spec", [
    pytest.param(PopulationSpec(n_sessions=4, root_seed=0,
                                deltas=(0.0, 0.1), duration_s=20.0),
                 id="wild-mix"),
    pytest.param(PopulationSpec(n_sessions=4, root_seed=3,
                                duration_s=20.0, scenario="weak_link"),
                 id="gilbert-weak-link"),
    pytest.param(PopulationSpec(n_sessions=4, root_seed=5,
                                duration_s=20.0, scenario="mobility"),
                 id="fading-mobility"),
    pytest.param(PopulationSpec(n_sessions=4, root_seed=7,
                                duration_s=20.0, scenario="microwave"),
                 id="interference-microwave"),
    pytest.param(PopulationSpec(n_sessions=4, root_seed=9,
                                duration_s=20.0, scenario="congestion"),
                 id="interference-congestion"),
    pytest.param(PopulationSpec(n_sessions=3, root_seed=11,
                                duration_s=20.0, mimo_branches=2),
                 id="mimo-wild"),
])
def test_batch_matches_event_loss(spec):
    """Pooled per-link loss agrees with the event engine within the
    fast-renderer tolerances on every scenario family."""
    block = render_block(spec)
    batch, event = pooled_stats(spec, block, range(block.n_sessions))
    for col in range(2):
        assert abs(batch[col] - event[col]) \
            <= max(LOSS_REL * event[col], LOSS_ABS), \
            f"link {'AB'[col]}: batch {batch[col]:.4f} " \
            f"vs event {event[col]:.4f}"


def test_check_block_equivalence_passes_and_reports():
    spec = PopulationSpec(n_sessions=5, root_seed=1, deltas=(0.0,),
                          duration_s=20.0)
    block = render_block(spec)
    report = check_block_equivalence(spec, block)
    assert len(report.indices) == 3
    assert all(0.0 <= loss <= 1.0 for loss in report.batch_loss)
    assert all(delay >= 0.0 for delay in report.event_delay_s)


def test_check_block_equivalence_detects_loss_divergence():
    """A corrupted block (everything lost on link A) must trip the
    sanitizer with a loss-divergence diagnosis."""
    spec = PopulationSpec(n_sessions=3, root_seed=2, duration_s=20.0)
    block = render_block(spec)
    corrupted = dataclasses.replace(
        block, delivered=np.zeros_like(block.delivered))
    with pytest.raises(BatchEquivalenceError, match="loss diverged"):
        check_block_equivalence(spec, corrupted)


def test_check_block_equivalence_detects_scenario_divergence():
    spec = PopulationSpec(n_sessions=3, root_seed=2, duration_s=20.0)
    block = render_block(spec)
    corrupted = dataclasses.replace(
        block, scenarios=("definitely-wrong",) * block.n_sessions)
    with pytest.raises(BatchEquivalenceError, match="scenario"):
        check_block_equivalence(spec, corrupted)


def test_equivalence_error_is_sanitizer_error():
    """Batch divergence surfaces through the standard sanitizer trap."""
    assert issubclass(BatchEquivalenceError, SanitizerError)


def test_sanitize_does_not_perturb_block_metrics(monkeypatch):
    """The equivalence check re-runs instrumented event sessions; their
    metrics must not leak into the block's registry, or sanitized and
    plain runs of the same population would print different digests."""
    from repro.batch.driver import population_block_metrics
    from repro.obs import to_canonical_json
    from repro.obs.runtime import collecting

    def run():
        with collecting() as registry:
            payloads = population_block_metrics(
                0, count=3, root_seed=0, duration_s=20.0)
        return payloads, to_canonical_json(registry)

    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain_payloads, plain_metrics = run()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized_payloads, sanitized_metrics = run()
    assert sanitized_payloads == plain_payloads
    assert sanitized_metrics == plain_metrics


def test_driver_runs_sanitized(monkeypatch):
    """REPRO_SANITIZE=1 wires the check into the runner task."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.batch.driver import population_block_metrics
    payloads = population_block_metrics(
        0, count=3, root_seed=0, duration_s=20.0)
    assert len(payloads) == 3
    assert set(payloads[0]) == {"scenario", "worst_window", "poor",
                                "bursts", "autocorr", "crosscorr"}
