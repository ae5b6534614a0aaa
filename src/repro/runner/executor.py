"""Batch execution: serial, process-pool, and cached.

:func:`run_batch` takes an ordered sequence of
:class:`~repro.runner.spec.RunSpec` and returns one
:class:`~repro.runner.spec.RunResult` per spec **in spec order**,
regardless of which worker finished first, whether a result came from
the cache, or whether the pool crashed halfway through and the remainder
ran serially.  The merged order is what makes the batch digest — and
therefore every derived figure — identical across execution modes.

Execution strategy per batch:

1. every spec is looked up in the in-process memo and then the on-disk
   cache (unless ``no_cache``);
2. the misses run on a ``concurrent.futures`` process pool with the
   **spawn** start context when ``jobs > 1`` and more than one miss
   remains: spawn, not fork, so a worker does not inherit the parent's
   sanitizer digests or any lazily created RNG state;
3. a crashed pool (``BrokenProcessPool``) is rebuilt and the unfinished
   specs resubmitted up to :data:`POOL_RETRIES` times, after which the
   remainder falls back to in-process serial execution — the batch
   always completes with the same results, just slower;
4. a run exceeding ``timeout_s`` aborts the batch with
   :class:`RunTimeoutError` (a stuck simulation is a bug, not a retry
   candidate — the same spec would stick again).

The process keeps **one** spawn pool and reuses it across batches, so a
study of several batches pays for worker start-up (an interpreter plus
numpy imports per worker) once.  A spawned worker freezes the
environment, import path and working directory it started with, so the
pool is keyed on them and on ``jobs``: any change builds a fresh pool.
A crash, a timeout (which abandons the stuck worker) or any other
exception escaping a batch drops the pool, and the next parallel batch
builds a new one.  The pool is shut down at interpreter exit.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.export import from_canonical_json, to_canonical_json
from repro.runner import cache as cache_mod
from repro.runner.cache import ResultCache
from repro.runner.context import RunnerConfig, active_config
from repro.runner.spec import (
    BatchResult,
    BatchStats,
    RunResult,
    RunSpec,
    batch_digest,
    canonical_json,
)
from repro.runner.worker import execute_spec
from repro.sim.sanitize import SanitizerError, sanitizer_enabled

#: pool rebuilds after a crash before the rest of the batch runs serially
POOL_RETRIES = 2

#: what a spawned worker froze at start: jobs, environment, import path
#: and working directory
_PoolKey = Tuple[int, Tuple[Tuple[str, str], ...], Tuple[str, ...], str]

#: the process's shared spawn pool and the key it was built under
_shared: Optional[Tuple[_PoolKey, ProcessPoolExecutor]] = None
_shared_lock = threading.Lock()


class RunnerError(RuntimeError):
    """Base class for batch execution failures."""


class RunTimeoutError(RunnerError):
    """A run exceeded the configured per-run timeout."""

    def __init__(self, spec: RunSpec, timeout_s: float):
        super().__init__(
            f"run {spec.task} seed={spec.seed} exceeded {timeout_s:.1f}s")
        self.spec = spec
        self.timeout_s = timeout_s


class MergeOrderError(SanitizerError):
    """The merged results do not line up with the submitted specs."""


def run_batch(specs: Sequence[RunSpec],
              config: Optional[RunnerConfig] = None) -> BatchResult:
    """Execute ``specs`` and return results merged in spec order."""
    if config is None:
        config = active_config()
    sanitize = sanitizer_enabled()
    stats = BatchStats(total=len(specs), jobs=config.jobs)
    # Batch wall time is telemetry only (CLI footer); it never feeds
    # back into simulated behaviour.
    batch_start = time.perf_counter()   # reproflow: disable=DET002

    disk: Optional[ResultCache] = None
    if config.cache_dir is not None:
        disk = ResultCache(config.cache_dir)

    results: List[Optional[RunResult]] = [None] * len(specs)
    pending: List[Tuple[int, RunSpec]] = []
    for index, spec in enumerate(specs):
        hit = _lookup(spec, config, disk, stats)
        if hit is not None:
            results[index] = hit
        else:
            pending.append((index, spec))

    if pending:
        use_pool = config.jobs > 1 and len(pending) > 1
        if use_pool:
            pending = _run_pool(pending, results, config, disk, stats)
        # Serial path: everything left over (jobs=1, a single miss, or
        # the pool gave up after bounded retries).
        for index, spec in pending:
            payload_json, metrics_json, wall = execute_spec(
                spec.task, spec.config_json, spec.seed)
            result = RunResult(spec=spec, payload_json=payload_json,
                               wall_time_s=wall, worker="serial",
                               metrics_json=metrics_json)
            _record(index, result, results, config, disk, stats)

    merged = _merge(specs, results, sanitize)
    stats.wall_time_s = time.perf_counter() - batch_start   # reproflow: disable=DET002
    batch = BatchResult(results=merged, digest=batch_digest(merged),
                        stats=stats)
    if config.on_batch is not None:
        config.on_batch(batch)
    return batch


def map_configs(task: str,
                items: Sequence[Tuple[int, Mapping[str, Any]]],
                config: Optional[RunnerConfig] = None) -> List[Any]:
    """Run ``task`` once per ``(seed, task_config)`` item; payloads in
    item order."""
    specs = [RunSpec.build(task, seed, task_config)
             for seed, task_config in items]
    return run_batch(specs, config=config).payloads


def map_task(task: str, seeds: Iterable[int],
             task_config: Optional[Mapping[str, Any]] = None) -> List[Any]:
    """Run ``task`` once per seed with a shared config; payloads in seed
    order.  This is the API the experiment drivers are built on."""
    shared: Mapping[str, Any] = dict(task_config or {})
    return map_configs(task, [(seed, shared) for seed in seeds])


# ------------------------------------------------------------------ internal

def _lookup(spec: RunSpec, config: RunnerConfig,
            disk: Optional[ResultCache],
            stats: BatchStats) -> Optional[RunResult]:
    if config.no_cache:
        return None
    if config.memo:
        memoized = cache_mod.memo_get(spec.key)
        if memoized is not None:
            stats.memo_hits += 1
            payload_json, metrics_json = memoized
            return RunResult(spec=spec, payload_json=payload_json,
                             wall_time_s=0.0, cached=True, worker="memo",
                             metrics_json=metrics_json)
    if disk is not None:
        # Hit latency is reported on its own field: a hit's wall_time_s
        # stays 0.0 because no simulation ran (replaying the original
        # run's elapsed time — or charging the lookup to it — would
        # corrupt the executed-run timing statistics).
        lookup_start = time.perf_counter()   # reproflow: disable=DET002
        hit = disk.get(spec)
        lookup_s = time.perf_counter() - lookup_start   # reproflow: disable=DET002
        if hit is not None:
            stats.cache_hits += 1
            stats.hit_wall_times_s.append(lookup_s)
            payload_json, metrics_json = hit
            if config.memo:
                cache_mod.memo_put(spec.key, payload_json, metrics_json)
            return RunResult(spec=spec, payload_json=payload_json,
                             wall_time_s=0.0, cached=True, worker="disk",
                             metrics_json=metrics_json,
                             hit_wall_time_s=lookup_s)
    return None


def _record(index: int, result: RunResult,
            results: List[Optional[RunResult]], config: RunnerConfig,
            disk: Optional[ResultCache], stats: BatchStats) -> None:
    results[index] = result
    stats.executed += 1
    stats.run_wall_times_s.append(result.wall_time_s)
    if config.memo:
        cache_mod.memo_put(result.spec.key, result.payload_json,
                           result.metrics_json)
    if disk is not None:
        disk.put(result.spec, result.payload_json, result.metrics_json)


def _shared_pool(jobs: int) -> ProcessPoolExecutor:
    """The process's spawn pool for ``jobs`` workers: reused while the
    key matches, rebuilt otherwise.  Workers start on demand, so a
    batch of two misses starts at most two."""
    global _shared
    key: _PoolKey = (jobs, tuple(sorted(os.environ.items())),
                     tuple(sys.path), os.getcwd())
    with _shared_lock:
        if _shared is not None and _shared[0] == key:
            return _shared[1]
        _drop_pool(False)
        pool = ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn"))
        _shared = (key, pool)
        return pool


def _drop_pool(wait: bool) -> None:
    """Shut down the shared pool, if any; the next parallel batch builds
    a fresh one.  ``wait`` blocks until its workers have exited."""
    global _shared
    if _shared is not None:
        pool = _shared[1]
        _shared = None
        pool.shutdown(wait=wait, cancel_futures=True)


atexit.register(_drop_pool, True)


def _run_pool(pending: List[Tuple[int, RunSpec]],
              results: List[Optional[RunResult]],
              config: RunnerConfig, disk: Optional[ResultCache],
              stats: BatchStats) -> List[Tuple[int, RunSpec]]:
    """Execute ``pending`` on the shared spawn pool.

    Returns the specs that still need the serial fallback (empty on the
    happy path).  Pool crashes are retried up to :data:`POOL_RETRIES`
    times; pool *creation* failures (sandboxed platforms without working
    multiprocessing) fall back immediately.
    """
    remaining = list(pending)
    attempt = 0
    while remaining:
        try:
            pool = _shared_pool(config.jobs)
        except (OSError, ValueError):
            return remaining   # pool unavailable: serial fallback
        stats.pool_used = True
        done = 0
        try:
            futures = [pool.submit(execute_spec, spec.task,
                                   spec.config_json, spec.seed)
                       for _, spec in remaining]
            for (index, spec), future in zip(remaining, futures):
                try:
                    payload_json, metrics_json, wall = future.result(
                        timeout=config.timeout_s)
                except FutureTimeoutError:
                    assert config.timeout_s is not None
                    raise RunTimeoutError(spec, config.timeout_s) from None
                result = RunResult(
                    spec=spec, payload_json=payload_json, wall_time_s=wall,
                    attempts=attempt + 1, worker="pool",
                    metrics_json=metrics_json)
                _record(index, result, results, config, disk, stats)
                done += 1
        except BrokenProcessPool:
            attempt += 1
            stats.retries += 1
            if attempt > POOL_RETRIES:
                return remaining[done:]   # retries exhausted: go serial
        finally:
            if done < len(remaining):
                # A crash, a timeout (which abandons the stuck worker), a
                # task error or an interrupt: the pool is not fit for the
                # next batch.
                with _shared_lock:
                    _drop_pool(False)
        remaining = remaining[done:]
    return []


def _merge(specs: Sequence[RunSpec],
           results: Sequence[Optional[RunResult]],
           sanitize: bool) -> Tuple[RunResult, ...]:
    """Assemble results in spec order, asserting the determinism
    contract under ``REPRO_SANITIZE=1``."""
    merged: List[RunResult] = []
    for index, (spec, result) in enumerate(zip(specs, results)):
        if result is None:   # pragma: no cover - internal invariant
            raise MergeOrderError(f"spec #{index} produced no result")
        if sanitize:
            if result.spec.key != spec.key:
                raise MergeOrderError(
                    f"result #{index} carries key {result.spec.key[:12]}… "
                    f"but spec #{index} expects {spec.key[:12]}…; the "
                    "merge lost seed order")
            round_trip = canonical_json(result.payload)
            if round_trip != result.payload_json:
                raise MergeOrderError(
                    f"payload for {spec.task} seed={spec.seed} is not "
                    "canonical-JSON stable; digests would differ between "
                    "fresh and cached executions")
            metrics_round_trip = to_canonical_json(
                from_canonical_json(result.metrics_json))
            if metrics_round_trip != result.metrics_json:
                raise MergeOrderError(
                    f"metrics for {spec.task} seed={spec.seed} are not "
                    "canonical-JSON stable; exported metrics would "
                    "differ between fresh and cached executions")
        merged.append(result)
    return tuple(merged)
