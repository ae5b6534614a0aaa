"""Vectorized whole-population simulation backend.

The event engine (:mod:`repro.channel.link` + :mod:`repro.sim`) walks
one Python event at a time — exact, but ~1 s per simulated call.  This
package renders *B sessions x L links x T packet-slots* of
Gilbert-Elliott / path-loss / fading / PER traces as numpy arrays in
one shot, then evaluates the whole Section 4 strategy suite
(``baseline`` / ``stronger`` / ``better`` / ``divert`` / ``temporal`` /
cross-link replication) as matrix reductions, emitting the same
per-session summary records the event path produces.

Module map:

* :mod:`repro.batch.population` — :class:`PopulationSpec`: which
  sessions exist and how their randomness derives from ``(seed, index)``
  (identical substream derivation to :func:`repro.scenarios.generate_wild_run`).
* :mod:`repro.batch.render` — :func:`render_block`: trace matrices for a
  block of sessions (:class:`TraceBlock`).
* :mod:`repro.batch.strategies` — vectorized strategy reductions over a
  :class:`TraceBlock`.
* :mod:`repro.batch.summary` — per-session payload records (worst
  window, poor-call flags, burst accounting, correlation curves)
  byte-compatible with ``section4.wild_run_metrics``.
* :mod:`repro.batch.sanity` — the ``REPRO_SANITIZE=1`` equivalence
  harness: sampled sessions re-run through the exact event path and
  compared statistically.
* :mod:`repro.batch.driver` — :mod:`repro.runner` task entry points and
  the ``backend="batch"`` population driver.

The event engine remains the reference: the batch renderer reproduces
the *slow* channel state (Gilbert sojourns, shadowing sequence, oven
episodes, scenario parameters) sample-path exactly from the same
:class:`~repro.sim.random.RandomRouter` streams, and matches fading /
MAC / queueing behaviour statistically (the contract of
``tests/test_batch_equivalence.py``, enforced per-population by
:mod:`repro.batch.sanity`).
"""

from __future__ import annotations

from repro.batch.driver import (
    BATCH_TASK,
    batch_wild_metrics,
    population_block_metrics,
)
from repro.batch.population import PopulationSpec, SessionSetup
from repro.batch.render import TraceBlock, render_block
from repro.batch.sanity import BatchEquivalenceError, check_block_equivalence
from repro.batch.strategies import strategy_suite
from repro.batch.summary import session_payloads

__all__ = [
    "BATCH_TASK",
    "BatchEquivalenceError",
    "PopulationSpec",
    "SessionSetup",
    "TraceBlock",
    "batch_wild_metrics",
    "check_block_equivalence",
    "population_block_metrics",
    "render_block",
    "session_payloads",
    "strategy_suite",
]
