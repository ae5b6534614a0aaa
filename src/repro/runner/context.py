"""The active runner configuration.

Drivers call :func:`repro.runner.map_task` without threading execution
options through every signature; the CLI (or a test, or a notebook)
installs a :class:`RunnerConfig` around the call instead::

    with runner_context(jobs=4, cache_dir="~/.cache/repro"):
        experiments.run_figure2a(n_runs=458)

The default configuration is serial, memo-only (no disk), so library
callers and the test suite see exactly the old single-process behaviour
unless they opt in.
"""

from __future__ import annotations

import contextlib
import dataclasses
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

#: batch hook: called with each completed ``BatchResult`` (telemetry)
BatchHook = Callable[[Any], None]


@dataclasses.dataclass(frozen=True)
class RunnerConfig:
    """Execution options for :func:`repro.runner.run_batch`.

    ``jobs=1`` (the default) executes in-process; ``jobs>1`` fans out
    over a spawn-context process pool.  ``cache_dir`` enables the on-disk
    content-addressed cache; ``no_cache`` bypasses reads (results are
    still written so the next run is warm).  ``memo`` controls the
    in-process payload memo.  ``timeout_s`` bounds each run.
    """

    jobs: int = 1
    cache_dir: Optional[Path] = None
    no_cache: bool = False
    memo: bool = True
    timeout_s: Optional[float] = None
    on_batch: Optional[BatchHook] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


_ACTIVE = RunnerConfig()


def active_config() -> RunnerConfig:
    """The configuration :func:`repro.runner.run_batch` defaults to."""
    return _ACTIVE


def configure(**overrides: Any) -> RunnerConfig:
    """Replace fields of the active configuration; returns the old one."""
    global _ACTIVE
    previous = _ACTIVE
    if "cache_dir" in overrides and overrides["cache_dir"] is not None:
        overrides["cache_dir"] = _as_path(overrides["cache_dir"])
    _ACTIVE = dataclasses.replace(_ACTIVE, **overrides)
    return previous


def _as_path(value: Union[str, Path]) -> Path:
    return Path(value).expanduser()


@contextlib.contextmanager
def runner_context(**overrides: Any) -> Iterator[RunnerConfig]:
    """Scoped :func:`configure`: restores the previous config on exit."""
    global _ACTIVE
    previous = configure(**overrides)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
