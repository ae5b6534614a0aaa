"""Every module, definition and defaulted parameter under ``src/repro``
must be reached by the program.

The program is ``python -m repro`` plus ``examples/``, ``benchmarks/``
and ``bench/``.  A module is reached when one of those files, or a
reached ``src`` module, imports it or a name it defines: directly,
through a package's re-export, or as ``package.name`` after importing
the package.  The package ``__init__`` files' own re-exports do not
count, and neither do the tests.  A module reached only from tests is a
second implementation no artifact runs; delete it rather than keep it
alive through its tests.

A definition (function, class, method or property) is reached when a
program file or a reached module names it outside the definition's own
body: as a name, an attribute, an import, or a ``module:function`` /
dotted string such as a runner task or a bench probe.  The check is by
name, so a method shares its fate with every other definition of that
name; it catches what nothing outside the tests mentions at all.  The
few definitions kept for a named future caller are listed in ``KEEP``.

A defaulted parameter of a reached function is set when a program call
of that name passes it by keyword or by position, passes a ``*``/``**``
splat, or when a program file uses its name as a string dict key or
``dict(...)`` keyword outside the definition's own body (runner tasks
receive their config that way).  A parameter only tests set is a
second value no artifact uses; make its default a constant.  The test
seams kept on purpose are listed in ``KEEP_PARAMS``.
"""

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from reproflow.callgraph import ImportInfo, dotted_module_name   # noqa: E402

#: the program outside ``src``: everything these import is reached
PROGRAM_ROOTS = ("examples", "benchmarks", "bench")
#: ``python -m repro``: reached by design, though nothing imports it
ENTRY_MODULE = "repro.__main__"


def _modules(root: Path) -> Dict[str, Path]:
    return {dotted_module_name(str(path.relative_to(root))): path
            for path in sorted((root / "src" / "repro").rglob("*.py"))}


def _reexports(modules: Dict[str, Path]) -> Dict[Tuple[str, str],
                                                  Tuple[str, str]]:
    """``(package, exported name) -> (source module, source name)``."""
    table: Dict[Tuple[str, str], Tuple[str, str]] = {}
    for module, path in modules.items():
        if path.name != "__init__.py":
            continue
        info = ImportInfo(ast.parse(path.read_text()))
        for source, name, asname in info.from_imports:
            table[(module, asname or name)] = (source, name)
    return table


def _resolve(module: str, name: str, modules: Dict[str, Path],
             reexports: Dict[Tuple[str, str], Tuple[str, str]]) -> str:
    """The module that defines ``module.name``, or a submodule of that
    name, following package re-exports."""
    for _ in range(len(reexports) + 1):
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if (module, name) not in reexports:
            return module
        module, name = reexports[(module, name)]
    raise AssertionError(f"re-export cycle through {module}.{name}")


def _imported_by(path: Path, modules: Dict[str, Path],
                 reexports: Dict[Tuple[str, str], Tuple[str, str]]
                 ) -> Set[str]:
    """The modules one file imports, or uses as ``package.name``."""
    tree = ast.parse(path.read_text())
    info = ImportInfo(tree)
    reached: Set[str] = set()
    #: names this file binds to a module, for ``name.attr`` uses
    bound_modules: Dict[str, str] = {}
    for dotted, asname in info.imports:
        reached.add(dotted)
        bound_modules[asname or dotted.split(".")[0]] = (
            dotted if asname else dotted.split(".")[0])
    for module, name, asname in info.from_imports:
        target = _resolve(module, name, modules, reexports)
        reached.add(target)
        if target == f"{module}.{name}":
            bound_modules[asname or name] = target
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in bound_modules:
            reached.add(_resolve(bound_modules[node.value.id],
                                 node.attr, modules, reexports))
    return reached


def _program_files(root: Path) -> List[Path]:
    return [path for program_root in PROGRAM_ROOTS
            for path in sorted((root / program_root).rglob("*.py"))]


def _reached_modules(root: Path, modules: Dict[str, Path]) -> Set[str]:
    """Modules reached from the entry points, transitively: an import
    counts only when the importing ``src`` module is reached itself."""
    reexports = _reexports(modules)
    frontier = _program_files(root)
    frontier.append(modules[ENTRY_MODULE])
    reached: Set[str] = set()
    while frontier:
        found = _imported_by(frontier.pop(), modules, reexports)
        for module in sorted(found - reached):
            reached.add(module)
            path = modules.get(module)
            if path is not None and path.name != "__init__.py":
                frontier.append(path)
    return reached


def test_every_module_is_reached_outside_tests():
    modules = _modules(REPO)
    reached = _reached_modules(REPO, modules)
    unreached = sorted(
        module for module, path in modules.items()
        if path.name != "__init__.py" and module != ENTRY_MODULE
        and module not in reached)
    assert unreached == [], (
        "modules that neither `python -m repro`, examples/, benchmarks/ "
        f"nor bench/ reach through imports: {unreached}")


#: definitions only tests call today, each kept for the reason given
KEEP: Dict[str, str] = {
    "repro.analysis.summary:Interval.contains":
        "ROADMAP item 3 asserts paper claims at these intervals",
    "repro.analysis.summary:paired_difference_interval":
        "ROADMAP item 3 asserts paper claims at these intervals",
    "repro.analysis.summary:permutation_pvalue":
        "reference of the paired test in tests/test_paper_claims.py, "
        "which ROADMAP item 3 moves onto the runner",
    "repro.sim.tracing:EventLog.of_kind":
        "ROADMAP item 7: `--explain` reads the session's event log",
    "repro.sim.tracing:EventLog.between":
        "ROADMAP item 7: `--explain` reads the session's event log",
    "repro.batch.render:TraceBlock.paired_run":
        "bridge from a batch block to the event strategies that the "
        "batch parity tests compare against",
    "repro.obs.export:record_trace_metrics":
        "reference of the batch instrument-schema parity test",
    "repro.studies.provider:synthesize_provider_block":
        "bit-parity reference of population.render_provider_block",
    "repro.studies.provider:analyze_table1":
        "bit-parity reference of the Table 1 population study",
    "repro.studies.nettest:run_nettest_study":
        "bit-parity reference of the Table 2 population study",
    "repro.studies.nettest:NetTestDataset.spatial_stats":
        "bit-parity reference of the Table 2 population study",
    "repro.runner.cache:clear_memo":
        "test-isolation hook for the in-process result memo",
    "repro.sim.engine:Simulator.peek":
        "public engine API, kept with `Simulator.step`",
    "repro.wifi.ap:AccessPoint.client_awake":
        "tests observe the AP's power-save state; no public field has it",
    "repro.channel.gilbert:GilbertElliott.sample_states":
        "tests observe the chain's state sequence; no public field has it",
    "repro.net.controller:QoeController.active_paths":
        "tests observe the controller's path choice; no public field "
        "has it",
    "repro.net.controller:QoeController.path_metrics":
        "tests observe probe-fed metrics of idle paths; no public field "
        "has them",
    "repro.traffic.tcp:TcpReno.cwnd_segments":
        "tests observe slow-start growth; no public field has the window",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: strings that name code: ``"pkg.mod:func"``, ``"Class.method"``, ...
_CODE_STRING = re.compile(r"[A-Za-z0-9_.:]+")
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.Module) -> Set[int]:
    found: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + _DEFINITION) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                found.add(id(first.value))
    return found


def _walk(tree: ast.Module) -> Iterator[Tuple[ast.AST, Tuple[ast.AST, ...]]]:
    """Every node of the file, with the definitions enclosing it."""
    stack: List[Tuple[ast.AST, Tuple[ast.AST, ...]]] = [(tree, ())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, _DEFINITION):
            enclosing = enclosing + (node,)
        yield node, enclosing
        stack.extend((child, enclosing)
                     for child in ast.iter_child_nodes(node))


def _names_used(tree: ast.Module
                ) -> Iterator[Tuple[str, Tuple[ast.AST, ...]]]:
    """Every name the file uses, with the definitions enclosing the use."""
    docstrings = _docstrings(tree)
    for node, enclosing in _walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], enclosing
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and id(node) not in docstrings \
                and _CODE_STRING.fullmatch(node.value):
            for name in _IDENTIFIER.findall(node.value):
                yield name, enclosing


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """``(qualified name, node)`` for every class, function, method and
    property outside function bodies."""
    stack: List[Tuple[str, ast.AST]] = [("", tree)]
    while stack:
        prefix, parent = stack.pop()
        for node in getattr(parent, "body", []):
            if isinstance(node, _DEFINITION):
                yield prefix + node.name, node
                if isinstance(node, ast.ClassDef):
                    stack.append((f"{prefix}{node.name}.", node))


def _program_trees(root: Path, modules: Dict[str, Path]
                   ) -> Dict[Path, ast.Module]:
    """The parsed program: the files outside ``src`` and every reached
    ``src`` module."""
    reached = _reached_modules(root, modules)
    sources = _program_files(root) + [
        path for module, path in modules.items()
        if path.name != "__init__.py"
        and (module in reached or module == ENTRY_MODULE)]
    return {path: ast.parse(path.read_text()) for path in sources}


def _unnamed_definitions(root: Path) -> List[str]:
    """``module:qualname`` of each definition no program file names."""
    modules = _modules(root)
    trees = _program_trees(root, modules)
    uses: Dict[str, List[Tuple[Path, Tuple[ast.AST, ...]]]] = {}
    for path, tree in trees.items():
        for name, enclosing in _names_used(tree):
            uses.setdefault(name, []).append((path, enclosing))
    unnamed = []
    for module, path in modules.items():
        if path not in trees:
            continue   # unreached modules fail the module test above
        for qualname, node in _definitions(trees[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue   # called by Python itself
            if not any(where != path or node not in enclosing
                       for where, enclosing in uses.get(name, ())):
                unnamed.append(f"{module}:{qualname}")
    return sorted(unnamed)


def test_every_definition_is_named_outside_tests():
    unnamed = _unnamed_definitions(REPO)
    unexplained = [name for name in unnamed if name not in KEEP]
    assert unexplained == [], (
        "definitions that neither `python -m repro`, examples/, "
        "benchmarks/ nor bench/ name outside their own body; delete "
        f"them with their tests: {unexplained}")
    stale = sorted(set(KEEP) - set(unnamed))
    assert stale == [], f"KEEP entries the program now names: {stale}"


#: defaulted parameters only tests set today, each kept for the reason
#: given: a seam through which a test injects a fake or captures output
KEEP_PARAMS: Dict[str, str] = {
    "repro.cli:main(argv)":
        "tests run a command without touching sys.argv",
    "repro.cli:main(out)":
        "tests capture the printed report instead of stdout",
    "repro.obs.runtime:collecting(registry)":
        "tests install their own registry to observe what a scope records",
    "repro.runner.spec:RunSpec.build(fingerprint)":
        "tests fake a source change to check cache invalidation",
    "repro.studies.population:nettest_population_study(runner_config)":
        "tests run the study with a throwaway cache and jobs setting",
}

#: one program call: ``(file, enclosing definitions, positional
#: arguments, keywords, passes a ``*``/``**`` splat)``
_Call = Tuple[Path, Tuple[ast.AST, ...], int, List[str], bool]


def _calls_and_keys(trees: Dict[Path, ast.Module]
                    ) -> Tuple[Dict[str, List[_Call]],
                               Dict[str, List[Tuple[Path,
                                                    Tuple[ast.AST, ...]]]]]:
    """Program calls by callee name, and string dict keys (``{"k": v}``
    or ``dict(k=v)``) by key, each with where it appears."""
    calls: Dict[str, List[_Call]] = {}
    keys: Dict[str, List[Tuple[Path, Tuple[ast.AST, ...]]]] = {}
    for path, tree in trees.items():
        for node, enclosing in _walk(tree):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) \
                            and isinstance(key.value, str):
                        keys.setdefault(key.value, []).append(
                            (path, enclosing))
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            keywords = [kw.arg for kw in node.keywords if kw.arg]
            if name == "dict":
                for key in keywords:
                    keys.setdefault(key, []).append((path, enclosing))
            splat = any(isinstance(arg, ast.Starred) for arg in node.args) \
                or any(kw.arg is None for kw in node.keywords)
            positional = sum(not isinstance(arg, ast.Starred)
                             for arg in node.args)
            calls.setdefault(name, []).append(
                (path, enclosing, positional, keywords, splat))
    return calls, keys


def _functions(tree: ast.Module
               ) -> Iterator[Tuple[str, ast.AST, Optional[str]]]:
    """``(qualified name, node, owning class or None)`` for every
    function and method, nested ones included."""
    stack: List[Tuple[str, ast.AST]] = [("", tree)]
    while stack:
        prefix, parent = stack.pop()
        owner = parent.name if isinstance(parent, ast.ClassDef) else None
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, _DEFINITION):
                stack.append((f"{prefix}{node.name}.", node))
                if not isinstance(node, ast.ClassDef):
                    yield prefix + node.name, node, owner
            else:
                stack.append((prefix, node))


def _defaulted(node: ast.AST, method: bool
               ) -> Iterator[Tuple[str, Optional[int]]]:
    """``(name, index among a caller's positional arguments)`` of each
    defaulted parameter; the index is None for keyword-only ones."""
    args = node.args
    positional = args.posonlyargs + args.args
    bound = method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list)
    for index in range(len(positional) - len(args.defaults),
                       len(positional)):
        yield positional[index].arg, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _unset_parameters(root: Path) -> List[str]:
    """``module:qualname(parameter)`` of each defaulted parameter of a
    reached ``src`` function that no program file sets."""
    modules = _modules(root)
    trees = _program_trees(root, modules)
    calls, keys = _calls_and_keys(trees)
    unset = []
    for module, path in modules.items():
        if path not in trees:
            continue
        for qualname, node, owner in _functions(trees[path]):
            callee = owner if node.name == "__init__" else node.name
            outside = [call for call in calls.get(callee, ())
                       if call[0] != path or node not in call[1]]
            for name, index in _defaulted(node, owner is not None):
                if any(splat or name in keywords
                       or (index is not None and positional > index)
                       for _, _, positional, keywords, splat in outside):
                    continue
                if any(where != path or node not in enclosing
                       for where, enclosing in keys.get(name, ())):
                    continue
                unset.append(f"{module}:{qualname}({name})")
    return sorted(unset)


def test_every_defaulted_parameter_is_set_outside_tests():
    unset = _unset_parameters(REPO)
    unexplained = [name for name in unset if name not in KEEP_PARAMS]
    assert unexplained == [], (
        "defaulted parameters that neither `python -m repro`, examples/, "
        "benchmarks/ nor bench/ set; make each default a constant at its "
        f"one place of use: {unexplained}")
    stale = sorted(set(KEEP_PARAMS) - set(unset))
    assert stale == [], f"KEEP_PARAMS entries the program now sets: {stale}"


def test_parameter_guard_on_a_fixture_tree(tmp_path):
    """The guard reports a parameter only tests pass, and no parameter a
    program call or a dict key outside the definition's body sets."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "def run(a, by_position=2, by_keyword=1, only_tests=3, by_key=4):\n"
        "    return a\n"
        "\n"
        "def own_key(x_own=1):\n"
        "    return {'x_own': x_own}\n"
        "\n"
        "def splatted(x=1):\n"
        "    return x\n"
        "\n"
        "class Box:\n"
        "    def __init__(self, width=1, depth=2):\n"
        "        self.width = width\n")
    (package / "__main__.py").write_text(
        "from repro.mod import Box, own_key, run, splatted\n"
        "CONFIG = {'by_key': 4}\n"
        "run(0, 5, by_keyword=1)\n"
        "own_key()\n"
        "splatted(**CONFIG)\n"
        "Box(3)\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from repro.mod import Box, run\n"
        "run(0, only_tests=9)\n"
        "Box(depth=4)\n")
    assert _unset_parameters(tmp_path) == [
        "repro.mod:Box.__init__(depth)",
        "repro.mod:own_key(x_own)",
        "repro.mod:run(only_tests)",
    ]
