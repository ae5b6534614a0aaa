"""Runner task entry points for the batch backend.

The unit of work is a *block* of sessions rather than one call:
:func:`population_block_metrics` renders sessions ``[start, start +
count)`` of a population in one vectorized shot and reduces them to the
same per-session payloads the event task
(``repro.experiments.section4:wild_run_metrics``) emits one at a time.
Blocks are sharded through :func:`repro.runner.map_configs` with
``start`` as the cache-keyed seed, so the determinism contract carries
over unchanged: serial, ``--jobs N`` and warm-cache executions of the
same population produce byte-identical digests.

Observability: render and reduce phases are wrapped in
:class:`~repro.obs.spans.SpanTracker` spans on a *deterministic*
progress clock (simulated seconds of rendered traffic — never
wall-clock, which would leak nondeterminism into runner metrics), plus
``batch.sessions`` / ``batch.packet_slots`` counters and a
``batch.session_loss_rate`` histogram.

Under ``REPRO_SANITIZE=1`` every block re-runs a sampled subset of its
sessions through the exact event engine and checks statistical
equivalence (:mod:`repro.batch.sanity`) before returning.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.batch.population import PopulationSpec
from repro.batch.render import TraceBlock, render_block
from repro.batch.sanity import check_block_equivalence
from repro.batch.summary import session_payloads
from repro.obs import RATIO_BUCKETS, SimulatedClock, SpanTracker
from repro.obs.runtime import active_registry, collecting
from repro.runner import map_configs
from repro.sim.sanitize import sanitizer_enabled

#: runner entry point
BATCH_TASK = "repro.batch.driver:population_block_metrics"


def _population_spec(start: int, count: int, root_seed: int,
                     deltas: Sequence[float], mimo_branches: int,
                     highrate: bool, duration_s: Optional[float],
                     scenario: Optional[str],
                     max_lag: int) -> PopulationSpec:
    if start < 0 or count < 0:
        raise ValueError("block start and count must be >= 0")
    return PopulationSpec(
        n_sessions=start + count, root_seed=root_seed,
        deltas=tuple(float(d) for d in deltas),
        mimo_branches=mimo_branches, highrate=highrate,
        duration_s=duration_s, scenario=scenario, max_lag=max_lag)


def _observe_block(block: TraceBlock) -> None:
    registry = active_registry()
    if registry is None:
        return
    registry.counter("batch.sessions").inc(block.n_sessions)
    registry.counter("batch.packet_slots").inc(
        int(block.delivered.size + block.offset_delivered.size))
    loss_hist = registry.histogram("batch.session_loss_rate",
                                   bounds=RATIO_BUCKETS)
    per_session = (~block.delivered).mean(axis=(1, 2))
    for value in per_session:
        loss_hist.observe(float(value))


def population_block_metrics(start: int, *, count: int, root_seed: int,
                             deltas: Sequence[float] = (),
                             mimo_branches: int = 1,
                             highrate: bool = False,
                             duration_s: Optional[float] = None,
                             scenario: Optional[str] = None,
                             max_lag: int = 20) -> List[Dict[str, Any]]:
    """Render + reduce sessions ``[start, start + count)``.

    Returns one ``wild_run_metrics``-shaped payload per session, in
    session order.  ``start`` doubles as the runner seed, so a block is
    cache-addressed by ``(task, config, start)`` exactly like an event
    run is by ``(task, config, index)``.
    """
    spec = _population_spec(start, count, root_seed, deltas,
                            mimo_branches, highrate, duration_s,
                            scenario, max_lag)
    registry = active_registry()
    clock = SimulatedClock()
    tracker = SpanTracker(clock, registry=registry, source="batch") \
        if registry is not None else None

    span = tracker.span("batch.render", block=start) if tracker else None
    block = render_block(spec, range(start, start + count))
    clock.advance(count * spec.profile.duration_s)
    if span is not None:
        span.end()

    span = tracker.span("batch.reduce", block=start) if tracker else None
    payloads = session_payloads(block, max_lag=max_lag)
    clock.advance(count * spec.profile.duration_s)
    if span is not None:
        span.end()

    _observe_block(block)
    if sanitizer_enabled():
        # The equivalence check re-runs sessions through the fully
        # instrumented event engine; meter those into a throwaway
        # registry so the block's metrics blob — and therefore the
        # batch digest — is identical with and without REPRO_SANITIZE.
        with collecting():
            check_block_equivalence(spec, block)
    return payloads


def batch_wild_metrics(n_runs: int, seed: int,
                       deltas: Sequence[float] = (),
                       mimo_branches: int = 1,
                       highrate: bool = False,
                       duration_s: Optional[float] = None,
                       scenario: Optional[str] = None,
                       max_lag: int = 20) -> List[Dict[str, Any]]:
    """Whole-population counterpart of ``section4._wild_metrics``.

    Shards the population into cache-keyed blocks, maps
    :data:`BATCH_TASK` over them through the runner (parallel across
    ``--jobs``, content-address cached per block), and flattens the
    per-block payload lists back into session order.
    """
    spec = PopulationSpec(
        n_sessions=n_runs, root_seed=seed,
        deltas=tuple(float(d) for d in deltas),
        mimo_branches=mimo_branches, highrate=highrate,
        duration_s=duration_s, scenario=scenario, max_lag=max_lag)
    base: Dict[str, Any] = {
        "root_seed": seed,
        "deltas": [float(d) for d in deltas],
        "mimo_branches": mimo_branches,
        "highrate": highrate,
        "duration_s": duration_s,
        "scenario": scenario,
        "max_lag": max_lag,
    }
    items = [(block_start, dict(base, count=block_count))
             for block_start, block_count in spec.blocks()]
    # PUR101: under the sanitizer the block task meters its event-engine
    # equivalence re-runs into a scoped throwaway registry
    # (obs.runtime.collecting saves and restores the process-local
    # active-registry global); payloads and exported metrics are
    # unaffected — test_sanitize_does_not_perturb_block_metrics pins it.
    block_payloads = map_configs(  # reproflow: disable=PUR101
        BATCH_TASK, items)
    flat: List[Dict[str, Any]] = []
    for payload in block_payloads:
        flat.extend(payload)
    if len(flat) != n_runs:
        raise RuntimeError(
            f"batch backend returned {len(flat)} sessions for a "
            f"population of {n_runs}")
    return flat
