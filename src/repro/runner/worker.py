"""Worker-side execution of one spec.

This module is the *only* code a pool worker runs: resolve the task
entry point, call it with ``(seed, **config)``, canonicalize the payload.
It is deliberately tiny and free of pool state so the same function
serves the in-process serial path — serial and parallel execution are
the same computation by construction.

Worker code draws randomness exclusively through the task's own
:mod:`repro.sim.random` streams (seeded from the spec), never from
module-level ``random``/``numpy.random`` (reproflow's DET001).  Workers
are spawned, not forked, so none inherits the parent's sanitizer or RNG
state.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Any, Callable, Tuple

from repro.obs.export import to_canonical_json
from repro.obs.runtime import collecting
from repro.runner.spec import canonical_json


class TaskResolutionError(RuntimeError):
    """The spec's task string did not resolve to a callable."""


def resolve_task(entry: str) -> Callable[..., Any]:
    """Import ``"module:function"`` and return the callable."""
    module_name, sep, func_name = entry.partition(":")
    if not sep or not module_name or not func_name:
        raise TaskResolutionError(
            f"task {entry!r} is not a 'module:function' entry point")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise TaskResolutionError(f"cannot import {module_name!r}: {exc}") \
            from exc
    fn = getattr(module, func_name, None)
    if not callable(fn):
        raise TaskResolutionError(
            f"{module_name!r} has no callable {func_name!r}")
    return fn


def execute_spec(task: str, config_json: str,
                 seed: int) -> Tuple[str, str, float]:
    """Run one spec; returns ``(payload JSON, metrics JSON, wall s)``.

    The task runs inside a fresh :func:`repro.obs.runtime.collecting`
    scope, so every instrumented component it touches reports into a
    per-run registry; the registry's canonical-JSON export travels with
    the payload (and into the cache), keeping the metrics as
    reproducible as the results themselves.

    The wall time is telemetry only (``BatchStats.run_wall_times_s``);
    it never feeds back into simulated behaviour, hence the sanctioned
    clock read.
    """
    fn = resolve_task(task)
    config = json.loads(config_json)
    start = time.perf_counter()   # reproflow: disable=DET002
    with collecting() as registry:
        payload = fn(seed, **config)
    elapsed = time.perf_counter() - start   # reproflow: disable=DET002
    return canonical_json(payload), to_canonical_json(registry), elapsed
