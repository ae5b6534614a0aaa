"""Every module, definition, defaulted parameter and defaulted config
field under ``src/repro`` must be reached by the program.

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
of that name passes it by keyword or by position, or passes a
``*``/``**`` splat; a forwarded ``**kwargs`` passes only what the
forwarding function's program callers pass it.  A runner task (a
function a program ``"module:function"`` string names) receives its
config as a dict, so its parameter is also set when a program file uses
the name as a string dict key or ``dict(...)`` keyword outside the
task's own body; a key sets no parameter of any other function.  A
parameter only tests set is a second value no artifact uses; make its
default a constant.  The test seams and parity references kept on
purpose are listed in ``KEEP_PARAMS``.

A defaulted field of a reached ``@dataclass`` is set when a program call
of the class passes it by keyword, by position or through a splat, when
a ``replace`` call passes it by keyword, or when a program statement
assigns an attribute of that name (counters such as ``stats.drops +=
1``).  A ``**kwargs`` forwarded into ``replace`` passes only what the
forwarding function's program callers pass it; no other splat into
``replace`` sets anything.  A call of the class inside its own body
that passes ``field=self.field`` copies the field and sets nothing.  A
field whose ``default_factory`` builds a list, dict or set is an
accumulator, not an option.  The survivors are listed in
``KEEP_FIELDS``.
"""

import ast
import re
import sys
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple,
)

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
#: given: a seam through which a test injects a fake or captures output,
#: or a parity reference a test compares a faster path against
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
    "repro.studies.nettest:run_nettest_study(seed)":
        "the Table 2 parity test runs the scalar reference at the "
        "population study's seed",
    "repro.studies.nettest:run_nettest_study(scale)":
        "the Table 2 parity test runs the scalar reference at the "
        "population study's test scale",
    "repro.studies.provider:synthesize_provider_block(response_bias)":
        "the Table 1 parity test runs the scalar reference at the "
        "response bias the population block is given",
}


class _Call(NamedTuple):
    """One program call."""

    path: Path
    #: the definitions enclosing the call
    enclosing: Tuple[ast.AST, ...]
    positional: int
    keywords: List[str]
    #: passes a ``*``/``**`` splat other than the enclosing function's
    #: own ``**kwargs``
    splat: bool
    #: the enclosing function, when the call passes that function's own
    #: ``**kwargs`` on
    forwards: Optional[ast.AST]


class _Program(NamedTuple):
    """What the program files do that can set a parameter or field."""

    #: calls by callee name
    calls: Dict[str, List[_Call]]
    #: string dict keys (``{"k": v}`` or ``dict(k=v)``) by key
    keys: Dict[str, List[Tuple[Path, Tuple[ast.AST, ...]]]]
    #: ``module:function`` strings: the runner tasks
    tasks: Set[str]
    #: attribute names assigned (``x.attr = ...``, ``x.attr += ...``)
    stores: Set[str]


_TASK_STRING = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*:[A-Za-z_][A-Za-z0-9_]*")


def _callee(call: ast.Call) -> Optional[str]:
    func = call.func
    return func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None


def _forwards(call: ast.Call,
              enclosing: Tuple[ast.AST, ...]) -> Optional[ast.AST]:
    """The enclosing function, if ``call`` passes its ``**kwargs`` on."""
    function = enclosing[-1] if enclosing else None
    if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) \
            or function.args.kwarg is None:
        return None
    kwarg = function.args.kwarg.arg
    if any(kw.arg is None and isinstance(kw.value, ast.Name)
           and kw.value.id == kwarg for kw in call.keywords):
        return function
    return None


def _copies_own_field(keyword: ast.keyword, callee: str,
                      enclosing: Tuple[ast.AST, ...]) -> bool:
    """Whether a call of a class inside its own body passes
    ``field=self.field``: a copy of the value, which sets nothing."""
    value = keyword.value
    return isinstance(value, ast.Attribute) and value.attr == keyword.arg \
        and isinstance(value.value, ast.Name) and value.value.id == "self" \
        and any(isinstance(node, ast.ClassDef) and node.name == callee
                for node in enclosing)


def _scan(trees: Dict[Path, ast.Module]) -> _Program:
    program = _Program({}, {}, set(), set())
    for path, tree in trees.items():
        for node, enclosing in _walk(tree):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) \
                            and isinstance(key.value, str):
                        program.keys.setdefault(key.value, []).append(
                            (path, enclosing))
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and _TASK_STRING.fullmatch(node.value):
                program.tasks.add(node.value)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store):
                program.stores.add(node.attr)
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            if name is None:
                continue
            keywords = [kw.arg for kw in node.keywords if kw.arg
                        and not _copies_own_field(kw, name, enclosing)]
            if name == "dict":
                for key in keywords:
                    program.keys.setdefault(key, []).append(
                        (path, enclosing))
            forwards = _forwards(node, enclosing)
            splats = sum(isinstance(arg, ast.Starred) for arg in node.args) \
                + sum(kw.arg is None for kw in node.keywords)
            positional = len(node.args) - sum(
                isinstance(arg, ast.Starred) for arg in node.args)
            program.calls.setdefault(name, []).append(
                _Call(path, enclosing, positional, keywords,
                      splats > (forwards is not None), forwards))
    return program


def _outside(calls: Iterable[_Call], path: Path,
             node: ast.AST) -> List[_Call]:
    """The calls outside the body of the definition ``node`` in ``path``."""
    return [call for call in calls
            if call.path != path or node not in call.enclosing]


def _keywords(call: _Call, program: _Program,
              seen: Tuple[ast.AST, ...] = ()) -> Set[str]:
    """The keywords a call passes, with those that reach it through a
    forwarded ``**kwargs`` from the enclosing function's program callers
    (``runner_context(no_cache=)`` -> ``configure(**overrides)`` ->
    ``replace(config, **overrides)``); no other splat counts."""
    keywords = set(call.keywords)
    function = call.forwards
    if function is not None and function not in seen:
        for outer in _outside(program.calls.get(function.name, ()),
                              call.path, function):
            keywords |= _keywords(outer, program, seen + (function,))
    return keywords


def _sets(calls: List[_Call], name: str, index: Optional[int],
          program: _Program) -> bool:
    """Whether one of the calls sets the argument ``name`` (at positional
    ``index``, None for keyword-only), by name, position or splat; a
    forwarded ``**kwargs`` sets only what :func:`_keywords` resolves."""
    return any(call.splat or name in _keywords(call, program)
               or (index is not None and call.positional > index)
               for call in calls)


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
    program = _scan(trees)
    unset = []
    for module, path in modules.items():
        if path not in trees:
            continue
        for qualname, node, owner in _functions(trees[path]):
            callee = owner if node.name == "__init__" else node.name
            calls = _outside(program.calls.get(callee, ()), path, node)
            task = f"{module}:{qualname}" in program.tasks
            for name, index in _defaulted(node, owner is not None):
                if _sets(calls, name, index, program):
                    continue
                if task and any(where != path or node not in enclosing
                                for where, enclosing
                                in program.keys.get(name, ())):
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
    program call, or a dict key outside a runner task's body, sets.  A
    key sets nothing for a function no task string names, and a
    forwarded ``**kwargs`` sets only what its program callers pass."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "def run(a, by_position=2, by_keyword=1, only_tests=3, by_key=4):\n"
        "    return a\n"
        "\n"
        "def task(seed, by_key=4):\n"
        "    return seed\n"
        "\n"
        "def own_key(seed, x_own=1):\n"
        "    return {'x_own': x_own}\n"
        "\n"
        "def splatted(x=1):\n"
        "    return x\n"
        "\n"
        "def study(n, swept=1, fixed=2):\n"
        "    return n\n"
        "\n"
        "class Box:\n"
        "    def __init__(self, width=1, depth=2):\n"
        "        self.width = width\n")
    (package / "__main__.py").write_text(
        "from repro.mod import Box, own_key, run, splatted, study\n"
        "TASKS = ('repro.mod:task', 'repro.mod:own_key')\n"
        "CONFIG = {'by_key': 4}\n"
        "run(0, 5, by_keyword=1)\n"
        "own_key(0)\n"
        "splatted(**CONFIG)\n"
        "Box(3)\n"
        "def rows_with(n, **overrides):\n"
        "    return study(n, **overrides)\n"
        "rows_with(1, swept=3)\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from repro.mod import Box, run\n"
        "run(0, only_tests=9)\n"
        "Box(depth=4)\n")
    assert _unset_parameters(tmp_path) == [
        "repro.mod:Box.__init__(depth)",
        "repro.mod:own_key(x_own)",
        "repro.mod:run(by_key)",
        "repro.mod:run(only_tests)",
        "repro.mod:study(fixed)",
    ]


#: defaulted config-object fields only tests set today, each kept for the
#: reason given, under the rules of ``KEEP_PARAMS``
KEEP_FIELDS: Dict[str, str] = {}


def _is_dataclass(node: ast.AST) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        (_callee(decorator) if isinstance(decorator, ast.Call) else
         decorator.id if isinstance(decorator, ast.Name) else
         decorator.attr if isinstance(decorator, ast.Attribute) else None)
        == "dataclass" for decorator in node.decorator_list)


def _fields(node: ast.ClassDef
            ) -> Iterator[Tuple[str, Optional[ast.expr]]]:
    """``(name, default or None)`` of each field, in ``__init__`` order."""
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) \
                and isinstance(statement.target, ast.Name):
            yield statement.target.id, statement.value


_CONTAINERS = (ast.List, ast.Dict, ast.Set,
               ast.ListComp, ast.DictComp, ast.SetComp)


def _accumulator(default: ast.expr) -> bool:
    """Whether ``default`` is ``field(default_factory=...)`` building a
    list, dict or set: a field the object fills, not an option."""
    if not isinstance(default, ast.Call) or _callee(default) != "field":
        return False
    for keyword in default.keywords:
        if keyword.arg == "default_factory":
            factory = keyword.value
            if isinstance(factory, ast.Lambda):
                return isinstance(factory.body, _CONTAINERS)
            return isinstance(factory, ast.Name) \
                and factory.id in ("list", "dict", "set")
    return False


def _unset_fields(root: Path) -> List[str]:
    """``module:Class.field`` of each defaulted field of a reached
    ``src`` dataclass that no program file sets."""
    modules = _modules(root)
    trees = _program_trees(root, modules)
    program = _scan(trees)
    replaced: Set[str] = set()
    for call in program.calls.get("replace", ()):
        replaced |= _keywords(call, program)
    unset = []
    for module, path in modules.items():
        if path not in trees:
            continue
        for qualname, node in _definitions(trees[path]):
            if not _is_dataclass(node):
                continue
            calls = program.calls.get(node.name, [])
            for index, (name, default) in enumerate(_fields(node)):
                if default is None or _accumulator(default) \
                        or name in replaced or name in program.stores \
                        or _sets(calls, name, index, program):
                    continue
                unset.append(f"{module}:{qualname}.{name}")
    return sorted(unset)


def test_every_defaulted_field_is_set_outside_tests():
    unset = _unset_fields(REPO)
    unexplained = [name for name in unset if name not in KEEP_FIELDS]
    assert unexplained == [], (
        "defaulted config-object fields that neither `python -m repro`, "
        "examples/, benchmarks/ nor bench/ set; make each default a "
        f"named constant at its place of use: {unexplained}")
    stale = sorted(set(KEEP_FIELDS) - set(unset))
    assert stale == [], f"KEEP_FIELDS entries the program now sets: {stale}"


def test_field_guard_on_a_fixture_tree(tmp_path):
    """The guard reports a field only tests set, and no field a program
    call, ``replace`` call or attribute store sets, nor an accumulator.
    A ``**kwargs`` forwarded into ``replace`` sets only the keywords its
    program callers pass, and a call of the class in its own body that
    passes ``field=self.field`` copies the field without setting it."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "\n"
        "@dataclass\n"
        "class Config:\n"
        "    name: str\n"
        "    by_position: int = 1\n"
        "    by_keyword: int = 2\n"
        "    only_tests: int = 3\n"
        "    by_replace: int = 4\n"
        "    by_store: int = 5\n"
        "    log: list = field(default_factory=list)\n"
        "    table: dict = field(default_factory=lambda: {'a': 0})\n"
        "    nested: tuple = field(default_factory=lambda: (1, 2))\n"
        "    copied: int = 6\n"
        "    rescaled: int = 7\n"
        "\n"
        "    def renamed(self, name):\n"
        "        return Config(name, copied=self.copied,\n"
        "                      rescaled=2 * self.rescaled)\n"
        "\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Options:\n"
        "    forwarded: int = 1\n"
        "    not_forwarded: int = 2\n"
        "\n"
        "def configure(options, **overrides):\n"
        "    return dataclasses.replace(options, **overrides)\n"
        "\n"
        "def scoped(**overrides):\n"
        "    return configure(Options(), **overrides)\n")
    (package / "__main__.py").write_text(
        "import dataclasses\n"
        "from repro.mod import Config, scoped\n"
        "config = Config('x', 7, by_keyword=8)\n"
        "config = dataclasses.replace(config, by_replace=9)\n"
        "config.by_store += 1\n"
        "config = config.renamed('y')\n"
        "scoped(forwarded=3)\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text(
        "from repro.mod import Config, Options\n"
        "Config('x', only_tests=9, nested=())\n"
        "Options(not_forwarded=4)\n")
    assert _unset_fields(tmp_path) == [
        "repro.mod:Config.copied",
        "repro.mod:Config.nested",
        "repro.mod:Config.only_tests",
        "repro.mod:Options.not_forwarded",
    ]
