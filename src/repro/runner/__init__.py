"""Parallel experiment execution with a content-addressed result cache.

The paper's artifacts are batches of *independent seeded simulation
runs* — exactly the embarrassing parallelism DiversiFi itself exploits
across links.  This package executes such batches:

* :class:`~repro.runner.spec.RunSpec` / :class:`~repro.runner.spec.RunResult`
  — the job model.  A spec's key is a SHA-256 of (task entry point,
  config, seed, code fingerprint), so results are content-addressed and
  a source change invalidates every stale entry automatically.
* :func:`~repro.runner.executor.run_batch` /
  :func:`~repro.runner.executor.map_task` — execution.  Serial in
  process by default; a spawn-context process pool when the active
  :class:`~repro.runner.context.RunnerConfig` asks for ``jobs > 1`` —
  one pool per process, reused across batches — with bounded retry of
  crashed pools and graceful serial fallback.
* :class:`~repro.runner.cache.ResultCache` — the on-disk store
  (atomic-rename writes, corruption treated as a miss).
* :func:`~repro.runner.context.runner_context` — how the CLI's
  ``--jobs/--cache-dir/--no-cache`` flags reach the drivers.

Determinism contract: results are merged in spec (seed) order and the
batch digest is computed over that merged sequence, so serial, parallel
and warm-cache executions of the same batch produce identical digests —
asserted under ``REPRO_SANITIZE=1``.
"""

from repro.runner.cache import ResultCache, clear_memo
from repro.runner.context import (
    RunnerConfig,
    active_config,
    configure,
    runner_context,
)
from repro.runner.executor import (
    MergeOrderError,
    RunnerError,
    RunTimeoutError,
    map_configs,
    map_task,
    run_batch,
)
from repro.runner.fingerprint import code_fingerprint
from repro.runner.spec import (
    BatchResult,
    BatchStats,
    RunResult,
    RunSpec,
    batch_digest,
    canonical_json,
)

__all__ = [
    "BatchResult",
    "BatchStats",
    "MergeOrderError",
    "ResultCache",
    "RunnerConfig",
    "RunnerError",
    "RunResult",
    "RunSpec",
    "RunTimeoutError",
    "active_config",
    "batch_digest",
    "canonical_json",
    "clear_memo",
    "code_fingerprint",
    "configure",
    "map_configs",
    "map_task",
    "run_batch",
    "runner_context",
]
