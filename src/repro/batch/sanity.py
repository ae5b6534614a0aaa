"""Batch-vs-event equivalence harness (the ``REPRO_SANITIZE=1`` check).

The event engine is the reference implementation.  When the sanitizer is
armed, the batch driver re-runs a deterministic sample of each block's
sessions through the exact event path (:func:`repro.scenarios.generate_wild_run`)
and checks:

* **scenario identity** — every sampled session must draw the same
  scenario name, exactly (the substream-derivation contract);
* **statistical equivalence** — per-link loss rate and mean delivered
  delay, pooled over the sample, must agree within the tolerances
  ``tests/test_batch_equivalence.py`` grants the batch renderer
  (loss: ``|b - e| <= max(1.0 * e, 0.01)``; delay: relative 50% or
  10 ms, whichever is looser — means over a multi-session sample are
  much tighter in practice).

Violations raise :class:`BatchEquivalenceError`, a
:class:`~repro.sim.sanitize.SanitizerError`, so they surface exactly
like every other sanitizer trap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.batch.population import PopulationSpec
from repro.batch.render import TraceBlock
from repro.core.packet import LinkTrace
from repro.scenarios import generate_wild_run
from repro.sim.sanitize import SanitizerError

#: loss-rate tolerance (pytest.approx(rel=1.0, abs=0.01))
LOSS_REL_TOL = 1.0
LOSS_ABS_TOL = 0.01

#: mean-delivered-delay tolerance
DELAY_REL_TOL = 0.5
DELAY_ABS_TOL = 0.010

#: sessions re-run through the event path per checked block
SAMPLE_SESSIONS = 3


class BatchEquivalenceError(SanitizerError):
    """The batch backend diverged from the event-path reference."""


@dataclass(frozen=True)
class EquivalenceReport:
    """What the harness compared, for tests and logging."""

    indices: Tuple[int, ...]
    batch_loss: Tuple[float, float]      # per link, pooled over sample
    event_loss: Tuple[float, float]
    batch_delay_s: Tuple[float, float]   # mean delivered delay per link
    event_delay_s: Tuple[float, float]


def _sample_positions(n: int, sample: int) -> np.ndarray:
    """Evenly spaced block positions (deterministic, no RNG)."""
    if n <= sample:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, sample).round().astype(int))


def _mean_delivered_delay(delivered: np.ndarray,
                          delays: np.ndarray) -> float:
    picked = delays[delivered]
    return float(picked.mean()) if picked.size else 0.0


def _event_link_stats(trace: LinkTrace) -> Tuple[float, float]:
    return (float(np.mean(~trace.delivered)),
            _mean_delivered_delay(trace.delivered, trace.delays))


def _within(batch: float, event: float, rel: float, abs_tol: float) -> bool:
    return abs(batch - event) <= max(rel * abs(event), abs_tol)


def check_block_equivalence(spec: PopulationSpec, block: TraceBlock
                            ) -> EquivalenceReport:
    """Re-run a sample of ``block`` through the event engine and compare.

    Returns the comparison report on success; raises
    :class:`BatchEquivalenceError` on scenario mismatch or statistical
    divergence.
    """
    positions = _sample_positions(block.n_sessions, SAMPLE_SESSIONS)
    batch_loss = np.zeros((len(positions), 2))
    batch_delay = np.zeros((len(positions), 2))
    event_loss = np.zeros((len(positions), 2))
    event_delay = np.zeros((len(positions), 2))
    indices = []
    for row, pos in enumerate(positions):
        index = block.indices[pos]
        indices.append(index)
        run = generate_wild_run(
            index, spec.profile, seed=spec.root_seed,
            temporal_deltas=spec.deltas,
            mimo_branches=spec.mimo_branches, scenario=spec.scenario)
        if run.scenario != block.scenarios[pos]:
            raise BatchEquivalenceError(
                f"session {index}: batch drew scenario "
                f"{block.scenarios[pos]!r} but the event path drew "
                f"{run.scenario!r} — substream derivation diverged")
        for col, trace in enumerate((run.trace_a, run.trace_b)):
            event_loss[row, col], event_delay[row, col] = \
                _event_link_stats(trace)
            batch_loss[row, col] = float(
                np.mean(~block.delivered[pos, col]))
            batch_delay[row, col] = _mean_delivered_delay(
                block.delivered[pos, col], block.delays[pos, col])

    report = EquivalenceReport(
        indices=tuple(int(i) for i in indices),
        batch_loss=(float(batch_loss[:, 0].mean()) if len(indices) else 0.0,
                    float(batch_loss[:, 1].mean()) if len(indices) else 0.0),
        event_loss=(float(event_loss[:, 0].mean()) if len(indices) else 0.0,
                    float(event_loss[:, 1].mean()) if len(indices) else 0.0),
        batch_delay_s=(
            float(batch_delay[:, 0].mean()) if len(indices) else 0.0,
            float(batch_delay[:, 1].mean()) if len(indices) else 0.0),
        event_delay_s=(
            float(event_delay[:, 0].mean()) if len(indices) else 0.0,
            float(event_delay[:, 1].mean()) if len(indices) else 0.0))
    if not indices:
        return report

    for col, link in enumerate("AB"):
        if not _within(report.batch_loss[col], report.event_loss[col],
                       LOSS_REL_TOL, LOSS_ABS_TOL):
            raise BatchEquivalenceError(
                f"link {link} loss diverged over sampled sessions "
                f"{report.indices}: batch {report.batch_loss[col]:.4f} "
                f"vs event {report.event_loss[col]:.4f} "
                f"(tol rel={LOSS_REL_TOL}, abs={LOSS_ABS_TOL})")
        if not _within(report.batch_delay_s[col],
                       report.event_delay_s[col],
                       DELAY_REL_TOL, DELAY_ABS_TOL):
            raise BatchEquivalenceError(
                f"link {link} mean delivered delay diverged over sampled "
                f"sessions {report.indices}: batch "
                f"{report.batch_delay_s[col] * 1e3:.2f} ms vs event "
                f"{report.event_delay_s[col] * 1e3:.2f} ms "
                f"(tol rel={DELAY_REL_TOL}, abs={DELAY_ABS_TOL})")
    return report
