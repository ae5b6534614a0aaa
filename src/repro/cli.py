"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro list
    python -m repro fig8                 # default (fast) run counts
    python -m repro fig2a --runs 458     # paper-scale
    python -m repro fig8 --jobs 4        # parallel over 4 processes
    python -m repro fig8 --cache-dir ~/.cache/repro   # reuse results
    python -m repro table1 --seed 7
    python -m repro all                  # everything, fast scale

Each command prints the same rows/series the paper reports (the renderers
in :mod:`repro.analysis.report`).  Commands built on :mod:`repro.runner`
additionally print a ``[runner: ...]`` telemetry footer with the batch
digest — identical for serial, ``--jobs N`` and warm-cache executions.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import experiments
from repro.obs import merge_metrics_json, to_canonical_json
from repro.runner import BatchResult, ResultCache, runner_context

#: commands whose dataset can be produced by the vectorized batch
#: backend (--backend batch); all share the Section 4 wild population
_BATCH_COMMANDS = frozenset(
    {"fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig4", "fig5", "fig6"})

#: command -> (runner(runs, seed) -> result, default run count, description);
#: the runner gets ``--runs`` or the default.  A command whose default is
#: ``None`` has no run count and ignores ``runs``.
_COMMANDS: Dict[str, Tuple[Callable, Optional[int], str]] = {
    "table1": (lambda runs, seed: experiments.run_table1(
        n_calls=runs, seed=seed),
        120_000, "provider-year PCR subset analysis"),
    "table2": (lambda runs, seed: experiments.run_table2(
        seed=seed, scale=runs / 9224.0),
        2306, "NetTest PCR by call category"),
    "table3": (lambda runs, seed: experiments.run_table3(
        n_events=runs, seed0=seed),
        100, "recovery-delay breakdown (AP vs middlebox)"),
    "fig1": (lambda runs, seed: experiments.run_figure1(seed=seed),
             None, "BSSID availability survey"),
    "fig2a": (lambda runs, seed, backend="event": experiments.run_figure2a(
        n_runs=runs, seed=seed, backend=backend), 60,
        "cross-link vs stronger/better selection"),
    "fig2b": (lambda runs, seed, backend="event": experiments.run_figure2b(
        n_runs=runs, seed=seed, backend=backend), 60,
        "cross-link vs Divert"),
    "fig2c": (lambda runs, seed, backend="event": experiments.run_figure2c(
        n_runs=runs, seed=seed, backend=backend), 60,
        "cross-link vs temporal replication"),
    "fig2d": (lambda runs, seed, backend="event": experiments.run_figure2d(
        n_runs=runs, seed=seed, backend=backend), 30,
        "on top of MIMO"),
    "fig2e": (lambda runs, seed, backend="event": experiments.run_figure2e(
        n_runs=runs, seed=seed, backend=backend), 16,
        "5 Mbps streams"),
    "fig3": (lambda runs, seed: experiments.run_figure3(seed=seed),
             None, "two-weak-links example"),
    "fig4": (lambda runs, seed, backend="event": experiments.run_figure4(
        n_runs=runs, seed=seed, backend=backend), 60,
        "loss auto- vs cross-correlation"),
    "fig5": (lambda runs, seed, backend="event": experiments.run_figure5(
        n_runs=runs, seed=seed, backend=backend), 60,
        "burst-length distributions"),
    "fig6": (lambda runs, seed, backend="event": experiments.run_figure6(
        n_runs_per_scenario=runs, seed=seed, backend=backend), 15,
        "PCR by impairment"),
    "fig8": (lambda runs, seed: experiments.run_figure8(
        n_runs=runs, seed0=seed), 30,
        "DiversiFi loss recovery (office)"),
    "fig9": (lambda runs, seed: experiments.run_figure9(
        n_runs=runs, seed0=seed), 30, "DiversiFi burst suppression"),
    "fig10": (lambda runs, seed: experiments.run_figure10(
        n_runs=runs, seed0=100 + seed), 12,
        "competing TCP throughput"),
    "sec63": (lambda runs, seed: experiments.run_section63_overhead(
        n_runs=runs, seed0=seed), 30, "duplication overhead"),
    "sec64": (lambda runs, seed: experiments.run_section64_scalability(
        n_events=runs, seed0=seed), 10, "middlebox scalability"),
}


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse ``type`` for a bounded count: an out-of-range value is a
    usage error, never a silent default, a clamped population or a
    traceback after the command has run."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate DiversiFi (CoNEXT '15) tables and figures.")
    parser.add_argument("command",
                        choices=sorted(_COMMANDS) + ["list", "all"],
                        help="experiment id, 'list', or 'all'")
    parser.add_argument("--runs", type=_int_at_least(1), default=None,
                        help="run count override (per experiment; "
                             "table1: calls generated, table2: calls "
                             "scaled against the 9224-call deployment)")
    parser.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="root random seed (default 0)")
    parser.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="worker processes for independent runs "
                             "(default 1 = serial in-process)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed on-disk result cache")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass cached results and recompute")
    parser.add_argument("--cache-max-bytes", type=_int_at_least(0),
                        default=None, metavar="N",
                        help="after the command completes, prune the "
                             "--cache-dir store to at most N bytes "
                             "(least-recently-used entries first)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the command's merged metrics as "
                             "canonical JSON ('-' for stdout); "
                             "byte-identical across --jobs and cache "
                             "modes")
    parser.add_argument("--backend", choices=("event", "batch"),
                        default="event",
                        help="simulation backend for the Section 4 wild "
                             "population (fig2a-2e, fig4, fig5, fig6): "
                             "'event' runs the per-call reference "
                             "engine, 'batch' renders vectorized "
                             "whole-population blocks")
    return parser


def _runner_footer(name: str, batches: List[BatchResult], jobs: int,
                   out) -> None:
    """Telemetry for the runner batches a command executed.

    The digest folds the per-batch digests in execution order; it is a
    pure function of the merged results, so serial, parallel and
    warm-cache invocations of the same command print the same digest.
    """
    if not batches:
        return
    total = sum(b.stats.total for b in batches)
    executed = sum(b.stats.executed for b in batches)
    cached = sum(b.stats.cache_hits + b.stats.memo_hits for b in batches)
    digest = hashlib.sha256(
        "\n".join(b.digest for b in batches).encode("ascii")).hexdigest()
    print(f"[runner {name}: jobs={jobs} runs={total} executed={executed} "
          f"cached={cached} digest={digest}]", file=out)


def _metrics_json(batches: List[BatchResult]) -> str:
    """Canonical JSON of all batch metrics, merged in execution order.

    Batches are appended by the ``on_batch`` hook as the experiment
    driver issues them, and each batch's results are already in spec
    order, so the merge order — and therefore the exported bytes — is a
    pure function of the command, independent of ``--jobs`` and caching.
    """
    merged = merge_metrics_json(
        [result.metrics_json
         for batch in batches for result in batch.results])
    return to_canonical_json(merged)


def _write_metrics(batches: List[BatchResult], metrics_out: str,
                   out) -> None:
    text = _metrics_json(batches) + "\n"
    if metrics_out == "-":
        out.write(text)
        return
    with open(metrics_out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def run_command(name: str, runs: Optional[int], seed: int,
                out=sys.stdout, jobs: int = 1,
                cache_dir: Optional[str] = None,
                no_cache: bool = False,
                metrics_out: Optional[str] = None,
                cache_max_bytes: Optional[int] = None,
                backend: str = "event") -> None:
    """Execute one experiment and print its rendering."""
    runner, default_runs, description = _COMMANDS[name]
    if backend != "event" and name not in _BATCH_COMMANDS:
        raise ValueError(f"--backend {backend} is only available for "
                         f"{', '.join(sorted(_BATCH_COMMANDS))}")
    if runs is None:
        runs = default_runs
    batches: List[BatchResult] = []
    # Elapsed wall-clock reporting is the one sanctioned clock read: it
    # never feeds back into simulated behaviour, only into the "[... 3.2s]"
    # status line, so the determinism lint is suppressed explicitly.
    start = time.perf_counter()   # reproflow: disable=DET002
    with runner_context(jobs=jobs, cache_dir=cache_dir,
                        no_cache=no_cache, on_batch=batches.append):
        if name in _BATCH_COMMANDS:
            result = runner(runs, seed, backend=backend)
        else:
            result = runner(runs, seed)
    elapsed = time.perf_counter() - start   # reproflow: disable=DET002
    print(result.render(), file=out)
    print(f"[{name}: {description}; {elapsed:.1f}s]", file=out)
    _runner_footer(name, batches, jobs, out)
    if metrics_out is not None:
        _write_metrics(batches, metrics_out, out)
    if cache_max_bytes is not None and cache_dir is not None:
        store = ResultCache(cache_dir)
        removed = store.prune(cache_max_bytes)
        print(f"[cache {name}: pruned {removed} "
              f"entr{'y' if removed == 1 else 'ies'}; "
              f"{store.size_bytes()} bytes retained]", file=out)


def _usage_error(args: argparse.Namespace) -> Optional[str]:
    """Why this combination of options cannot run, or ``None``."""
    if args.cache_max_bytes is not None and args.cache_dir is None:
        return ("--cache-max-bytes prunes the --cache-dir store; it needs "
                "--cache-dir")
    if args.command == "list":
        return None
    if args.command == "all" and args.metrics_out is not None:
        return "--metrics-out applies to a single command, not 'all'"
    # Checked before the run, but the file is opened only after it, so a
    # failed run never truncates an old metrics file.
    if args.metrics_out not in (None, "-"):
        target = Path(args.metrics_out)
        if target.is_dir():
            return f"--metrics-out: {target} is a directory"
        if not target.parent.is_dir():
            return f"--metrics-out: no directory {target.parent}"
    if args.cache_dir is not None:
        cache_dir = Path(args.cache_dir)
        existing = next(path for path in (cache_dir, *cache_dir.parents)
                        if path.exists())
        if not existing.is_dir():
            return f"--cache-dir: {existing} is not a directory"
    if args.backend != "event" and args.command not in _BATCH_COMMANDS:
        return (f"--backend {args.backend} applies to "
                f"{', '.join(sorted(_BATCH_COMMANDS))}, "
                f"not {args.command!r}")
    if args.runs is not None and args.command != "all" \
            and _COMMANDS[args.command][1] is None:
        return f"--runs: {args.command} has no run count"
    return None


# test seams: tests run a command without touching sys.argv and
# capture the printed report instead of stdout
def main(argv=None, out=sys.stdout) -> int:  # reproflow: disable=RCH603
    args = build_parser().parse_args(argv)
    error = _usage_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.command == "list":
        width = max(len(name) for name in _COMMANDS)
        for name in sorted(_COMMANDS):
            _, default_runs, description = _COMMANDS[name]
            runs = f"(default runs: {default_runs})" if default_runs else ""
            print(f"{name.ljust(width)}  {description} {runs}", file=out)
        return 0
    if args.command == "all":
        names = sorted(_COMMANDS)
        for i, name in enumerate(names):
            print(f"\n===== {name} =====", file=out)
            # Prune once, after the last command, so earlier artifacts'
            # entries stay warm for any command that shares them.
            prune = args.cache_max_bytes if i == len(names) - 1 else None
            run_command(name, args.runs, args.seed, out=out,
                        jobs=args.jobs, cache_dir=args.cache_dir,
                        no_cache=args.no_cache, cache_max_bytes=prune)
        return 0
    run_command(args.command, args.runs, args.seed, out=out,
                jobs=args.jobs, cache_dir=args.cache_dir,
                no_cache=args.no_cache, metrics_out=args.metrics_out,
                cache_max_bytes=args.cache_max_bytes,
                backend=args.backend)
    return 0


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
