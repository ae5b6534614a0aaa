"""The process-local active registry.

The runner's unit of work (:func:`repro.runner.worker.execute_spec`)
installs a fresh registry around each task invocation::

    with collecting() as registry:
        payload = task(seed, **config)
    metrics_json = to_canonical_json(registry)

Instrumented components (``run_session``, ``MacLayer``,
``PlayoutBuffer`` ...) read :func:`active_registry` when they are
built, so every simulation executed inside a runner task is metered
without threading a registry through each signature — and code running
outside any collection scope pays a single ``None`` check.
:func:`collecting` is the one way to choose the registry.  The installation is plain module state, not thread-local: tasks
execute single-threaded inside a worker process (the paralellism is
*between* processes), and the sanitizer-checked determinism contract
forbids in-process concurrency here anyway.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.obs.registry import MetricsRegistry

_ACTIVE: Optional[MetricsRegistry] = None


def active_registry() -> Optional[MetricsRegistry]:
    """The registry installed by the innermost :func:`collecting`."""
    return _ACTIVE


@contextlib.contextmanager
def collecting(
    # test seam: tests install their own registry to observe what a scope
    # records
    registry: Optional[MetricsRegistry] = None,  # reproflow: disable=RCH603
) -> Iterator[MetricsRegistry]:
    """Install ``registry`` (or a fresh one) as the active registry."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry if registry is not None else MetricsRegistry()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
