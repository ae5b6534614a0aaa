"""The per-file rule family: determinism (DET), hygiene (GEN), and
observability (OBS) checks that need only one module's tree.

They run off the same parse as every other pass, and DET001/DET002
classify calls with the call graph's :func:`~reproflow.callgraph.
classify_call` over the module's shared :class:`~reproflow.callgraph.
ImportInfo`.  Outside the stream factory even ``default_rng(seed)``
bypasses the named streams, so DET001 reports seeded generators too.

==========  =============================  =======================================
id          name                           what it flags
==========  =============================  =======================================
DET001      unrouted-rng                   global/unrouted RNG use (``random.*``,
                                           ``np.random.<fn>``, bare
                                           ``default_rng``) anywhere except
                                           ``sim/random.py``
DET002      wall-clock                     wall/monotonic clock or OS entropy
                                           (``time.time``, ``time.perf_counter``,
                                           ``datetime.now``, ``time.sleep``,
                                           ``os.urandom``) in simulation code
DET003      unordered-iteration            iteration over sets inside functions
                                           that schedule events
GEN101      mutable-default-arg            ``def f(x=[])`` and friends
GEN102      overbroad-except               bare ``except:`` / ``except Exception``
OBS001      adhoc-observability            ``print`` / stdout-stderr writes /
                                           module-global ad-hoc counters inside
                                           the instrumented simulation packages
                                           (route through ``repro.obs``)
==========  =============================  =======================================
"""

from __future__ import annotations

import ast
from typing import AbstractSet, Callable, Dict, Iterator, List, Tuple

from reproflow.callgraph import (CLOCK_READ, UNROUTED_RNG, ImportInfo,
                                 _dotted, classify_call)

RawFinding = Tuple[int, int, str, str]   # (lineno, col, rule, message)
_Hit = Tuple[int, int, str]              # (lineno, col, message)


def check_det001(tree: ast.Module, path: str, imports: ImportInfo
                 ) -> Iterator[_Hit]:
    """Global/unrouted randomness outside the stream factory."""
    # sim/random.py is the one module allowed to build raw generators —
    # it is where the named-stream discipline is *implemented*
    if path.replace("\\", "/").endswith("sim/random.py"):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and classify_call(node, imports) == UNROUTED_RNG:
            yield (node.lineno, node.col_offset,
                   f"'{_dotted(node.func)}()' bypasses RandomRouter; "
                   "draw from a named stream instead")


def check_det002(tree: ast.Module, path: str, imports: ImportInfo
                 ) -> Iterator[_Hit]:
    """Wall-clock reads make runs unreproducible; simulated time only."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and classify_call(node, imports) == CLOCK_READ:
            yield (node.lineno, node.col_offset,
                   f"'{_dotted(node.func)}()' reads the host clock or OS "
                   "entropy; simulation code must use Simulator.now and "
                   "RandomRouter")


_SCHEDULING_CALLS = {"call_at", "call_in", "schedule"}


def _function_schedules(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name and name.rsplit(".", 1)[-1] in _SCHEDULING_CALLS:
                return True
    return False


def _is_unordered_iterable(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def check_det003(tree: ast.Module, path: str, imports: ImportInfo
                 ) -> Iterator[_Hit]:
    """Set iteration order is hash-salted; scheduling from it diverges."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _function_schedules(func):
            continue
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and _is_unordered_iterable(node.iter):
                yield (node.lineno, node.col_offset,
                       "iterating an unordered set in a function that "
                       "schedules events; sort it first")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if _is_unordered_iterable(comp.iter):
                        yield (node.lineno, node.col_offset,
                               "comprehension over an unordered set in a "
                               "function that schedules events; sort it "
                               "first")


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray")
    return False


def check_gen101(tree: ast.Module, path: str, imports: ImportInfo
                 ) -> Iterator[_Hit]:
    """Mutable defaults are shared across calls — classic state leak."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        defaults = list(func.args.defaults)
        defaults += [d for d in func.args.kw_defaults if d is not None]
        for default in defaults:
            if _is_mutable_literal(default):
                label = getattr(func, "name", "<lambda>")
                yield (default.lineno, default.col_offset,
                       f"mutable default argument in '{label}'; "
                       "use None and create inside")


def check_gen102(tree: ast.Module, path: str, imports: ImportInfo
                 ) -> Iterator[_Hit]:
    """Catching everything swallows SimulationError and sanitizer faults."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield (node.lineno, node.col_offset,
                   "bare 'except:' swallows every error including "
                   "engine invariant failures")
        elif isinstance(node.type, ast.Name) \
                and node.type.id in ("Exception", "BaseException"):
            yield (node.lineno, node.col_offset,
                   f"overbroad 'except {node.type.id}' hides engine "
                   "invariant failures; catch the specific error")


#: Subpackages of src/repro that carry repro.obs instrumentation.  Code
#: here must report through MetricsRegistry / EventLog so that serial,
#: parallel and cached runs export byte-identical metrics; a stray
#: ``print`` interleaves nondeterministically across worker processes and
#: a module-global tally survives from one task to the next in-process.
_INSTRUMENTED_PACKAGES = (
    "sim", "core", "wifi", "voice", "runner", "channel", "net", "traffic",
    "batch", "studies",
)

_COUNTER_SUFFIXES = ("_count", "_counter", "_counts", "_total", "_calls")


def check_obs001(tree: ast.Module, path: str, imports: ImportInfo
                 ) -> Iterator[_Hit]:
    """Ad-hoc observability bypasses repro.obs; metrics must merge.

    Flags, inside the instrumented simulation packages only:

    * ``print(...)`` calls — worker processes interleave them
      nondeterministically and nothing folds them into the batch digest;
    * ``sys.stdout`` / ``sys.stderr`` ``.write``/``.writelines`` — same
      problem with the lid off;
    * ``global <name>`` where the name looks like a tally
      (``*_count``, ``*_total``, ...) — module-global counters leak
      state across runner tasks sharing a worker process.

    Use ``repro.obs``: a :class:`MetricsRegistry` counter/gauge/histogram
    for numbers, :class:`EventLog` for traces."""
    posix = path.replace("\\", "/")
    if not any(f"src/repro/{pkg}/" in posix
               for pkg in _INSTRUMENTED_PACKAGES):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            for name in node.names:
                if name.endswith(_COUNTER_SUFFIXES):
                    yield (node.lineno, node.col_offset,
                           f"module-global tally '{name}' leaks across "
                           "runner tasks; use a repro.obs counter")
            continue
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name == "print":
            yield (node.lineno, node.col_offset,
                   "'print' in instrumented simulation code; record a "
                   "repro.obs metric or EventLog entry instead")
        elif (name in ("sys.stdout.write", "sys.stderr.write",
                       "sys.stdout.writelines", "sys.stderr.writelines")):
            yield (node.lineno, node.col_offset,
                   f"'{name}' in instrumented simulation code; route "
                   "output through repro.obs exporters")


#: rule id -> checker
FILE_CHECKERS: Dict[str, Callable[[ast.Module, str, ImportInfo],
                                  Iterator[_Hit]]] = {
    "DET001": check_det001,
    "DET002": check_det002,
    "DET003": check_det003,
    "GEN101": check_gen101,
    "GEN102": check_gen102,
    "OBS001": check_obs001,
}


def check_file(tree: ast.Module, path: str, imports: ImportInfo,
               selected: AbstractSet[str]) -> List[RawFinding]:
    """Run the selected per-file rules over one module."""
    return [(lineno, col, rule_id, message)
            for rule_id in sorted(FILE_CHECKERS) if rule_id in selected
            for lineno, col, message in FILE_CHECKERS[rule_id](
                tree, path, imports)]
