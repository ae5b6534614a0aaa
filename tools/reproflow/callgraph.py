"""Pass 3a: the project-wide call graph with per-function effect summaries.

Built once per analysis run on top of the pass-1 :class:`ProjectIndex`
(the trees are parsed exactly once and shared by passes 1–3).  Every
function and method in every module becomes a :class:`FunctionNode`
carrying:

* **call edges** — resolved the same way pass 2 resolves schemas:
  same-module definitions first, then the unique project-wide definition
  of that name; two *different* definitions make the name ambiguous and
  the edge is dropped rather than guessed.  ``self.m(...)`` prefers the
  enclosing class's own method.
* **local effect sites** — the determinism-relevant things the function
  does *directly*: writing module/global state, reading the wall clock,
  drawing from an unrouted RNG, iterating an unordered collection, and
  (for the stream taint) whether it *returns* a ``RandomRouter`` stream.

Clock reads on lines carrying ``# reproflow: disable=DET002`` are
*sanctioned telemetry* (the repo-wide convention for wall-time that never
feeds back into simulated behaviour) and are excluded from the effect
summary — a task is not impure for reporting how long it took.

The import model (:class:`ImportInfo`) and the clock/RNG classifier
(:func:`classify_call`) defined here are the only ones in the tool: the
per-file DET001/DET002 rules and pass 4's env/dispatch checks read the
same per-module :class:`ImportInfo` the effect collector builds.

Task roots — the ``"module:function"`` entry points handed to
``repro.runner.map_task`` / ``map_configs`` / ``RunSpec.build`` — are
collected here too, resolving string constants through module-level
assignments (``OFFICE_TASK = "repro...:office_run_metrics"``).

For pass 4 every module additionally gets a synthetic ``<module>`` node
whose "body" is the module scope minus any ``if __name__ == "__main__"``
guard — exactly the code a spawned worker replays when it imports the
module.  Its effect summary is what IMP401 checks; its call edges make
import-time work transitive (``CONST = helper()`` at module scope
carries ``helper``'s effects).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from reproflow.findings import parse_suppressions
from reproflow.index import ProjectIndex

#: effect kinds recorded on a node (and propagated by pass 3b)
GLOBAL_WRITE = "global-write"
CLOCK_READ = "clock-read"
UNROUTED_RNG = "unrouted-rng"
UNORDERED_ITER = "unordered-iter"

_CLOCK_FUNCTIONS = frozenset({
    "time", "time_ns", "sleep", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})
_DATETIME_FACTORIES = frozenset({"now", "utcnow", "today"})
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "add", "update", "setdefault",
    "pop", "popleft", "remove", "discard", "clear", "insert",
})
#: calls a task entry point is submitted through
TASK_SUBMIT_NAMES = frozenset({"map_task", "map_configs"})
#: RNG constructors that are deterministic when given an explicit seed —
#: building one *with arguments* is routing, not an unrouted draw (the
#: RandomRouter itself derives streams via seeded default_rng)
_SEEDED_RNG_CONSTRUCTORS = frozenset({
    "default_rng", "SeedSequence", "Generator", "PCG64", "Philox",
    "SFC64", "MT19937", "RandomState", "Random",
})


@dataclass
class EffectSite:
    """One concrete occurrence of an effect inside a function body."""

    kind: str
    lineno: int
    col: int
    detail: str
    #: the module-level name (or other stable token) the effect touches,
    #: when one exists — pass 4 propagates some kinds per-symbol so one
    #: task root can report every distinct offender, not just the first
    symbol: Optional[str] = None


@dataclass
class CallSite:
    """One call edge candidate (already resolved to a node id)."""

    callee: str          # FunctionNode id
    lineno: int
    col: int


@dataclass
class FunctionNode:
    """One function or method in the project."""

    id: str              # "<path>::<qualname>"
    name: str
    qualname: str
    path: str
    lineno: int
    enclosing_class: Optional[str] = None
    effects: List[EffectSite] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    #: the function's return value is (or contains) a RandomRouter stream
    returns_stream: bool = False
    #: the function returns a bare set/frozenset
    returns_set: bool = False
    #: the definition itself (shared with the parsed tree, not a copy)
    func_ast: Optional[ast.AST] = field(default=None, repr=False)


@dataclass
class TaskRoot:
    """One runner-submission call site naming a task entry point."""

    path: str
    lineno: int
    col: int
    entry: str                   # "module:function" as written
    node_id: Optional[str]       # resolved FunctionNode, if the module
                                 # is part of the analyzed tree
    submit_name: str             # map_task / map_configs / RunSpec.build


class CallGraph:
    """Every function in the project plus resolved call edges."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.nodes: Dict[str, FunctionNode] = {}
        self.task_roots: List[TaskRoot] = []
        #: unqualified name -> node ids (module-level functions)
        self._functions_by_name: Dict[str, List[str]] = {}
        #: method name -> node ids
        self._methods_by_name: Dict[str, List[str]] = {}
        #: per-module: name -> node id for module-level functions
        self._module_functions: Dict[str, Dict[str, str]] = {}
        #: per-module: (class, method) -> node id
        self._class_methods: Dict[Tuple[str, str, str], str] = {}
        #: dotted module name -> path  ("repro.sim.random" -> "src/...")
        self._module_paths: Dict[str, str] = {}
        #: per-module: locally aliased import names (resolution poison)
        self._aliased: Dict[str, Set[str]] = {}
        #: per-module: module-level string constants (task indirection)
        self._str_constants: Dict[str, Dict[str, str]] = {}
        #: path -> synthetic ``<module>`` node id (import-time execution)
        self.module_nodes: Dict[str, str] = {}
        #: per-module: names assigned at module scope (pass 4 reads this)
        self._module_assigned: Dict[str, Set[str]] = {}
        #: path -> the module's import model (shared by every pass)
        self.imports: Dict[str, ImportInfo] = {}

    # -- queries -------------------------------------------------------

    def node(self, node_id: str) -> Optional[FunctionNode]:
        return self.nodes.get(node_id)

    def resolve_entry(self, entry: str) -> Optional[str]:
        """Resolve a ``"module:function"`` task entry to a node id."""
        module, sep, func = entry.partition(":")
        if not sep:
            return None
        path = self._module_paths.get(module)
        if path is None:
            # files analyzed by absolute path keep their full dotted
            # prefix; a unique suffix match is still unambiguous
            suffix = "." + module
            candidates = [p for m, p in self._module_paths.items()
                          if m.endswith(suffix)]
            if len(candidates) != 1:
                return None
            path = candidates[0]
        return self._module_functions.get(path, {}).get(func)

    def callees(self, node_id: str) -> List[CallSite]:
        node = self.nodes.get(node_id)
        return list(node.calls) if node is not None else []


def dotted_module_name(path: str) -> str:
    """``src/repro/sim/random.py`` -> ``repro.sim.random``.

    Leading ``src/`` / ``tools/`` roots are stripped (both are import
    roots in this repo); other prefixes are kept verbatim so fixture
    paths like ``pkg/module.py`` resolve as ``pkg.module``.
    """
    posix = path.replace("\\", "/")
    for root in ("src/", "tools/"):
        marker = f"/{root}"
        if posix.startswith(root):
            posix = posix[len(root):]
            break
        if marker in posix:
            posix = posix.split(marker, 1)[1]
            break
    if posix.endswith(".py"):
        posix = posix[:-3]
    if posix.endswith("/__init__"):
        posix = posix[: -len("/__init__")]
    return posix.replace("/", ".")


def build_callgraph(trees: Dict[str, ast.Module],
                    sources: Dict[str, str],
                    index: ProjectIndex) -> CallGraph:
    """Build nodes, effects, and resolved edges for every module."""
    graph = CallGraph(index)
    for path in sorted(trees):
        _collect_module(graph, path, trees[path], sources.get(path, ""))
    for path in sorted(trees):
        _resolve_module_calls(graph, path, trees[path])
        _collect_task_roots(graph, path, trees[path])
    _propagate_returns_stream(graph)
    return graph


# ---------------------------------------------------------------- pass A:
# nodes, local effects, name tables

def _collect_module(graph: CallGraph, path: str, tree: ast.Module,
                    source: str) -> None:
    graph._module_paths.setdefault(dotted_module_name(path), path)
    graph._module_functions.setdefault(path, {})
    aliased: Set[str] = set()
    module_names: Set[str] = set()
    str_constants: Dict[str, str] = {}
    sanctioned = {lineno for lineno, rules
                  in parse_suppressions(source.splitlines()).items()
                  if "DET002" in rules}

    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname and alias.asname != alias.name:
                    aliased.add(alias.asname)
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                module_names.add(target.id)
                value = getattr(stmt, "value", None)
                if isinstance(value, ast.Constant) \
                        and isinstance(value.value, str):
                    str_constants[target.id] = value.value
    graph._aliased[path] = aliased
    graph._str_constants[path] = str_constants
    graph._module_assigned[path] = module_names

    imports = graph.imports[path] = ImportInfo(tree)

    def visit(body: Sequence[ast.stmt], prefix: str,
              enclosing_class: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{stmt.name}"
                node_id = f"{path}::{qualname}"
                fn = FunctionNode(
                    id=node_id, name=stmt.name, qualname=qualname,
                    path=path, lineno=stmt.lineno,
                    enclosing_class=enclosing_class, func_ast=stmt)
                _collect_effects(fn, stmt, module_names, imports,
                                 sanctioned)
                graph.nodes[node_id] = fn
                if enclosing_class is None and prefix == "":
                    graph._module_functions[path][stmt.name] = node_id
                    graph._functions_by_name.setdefault(
                        stmt.name, []).append(node_id)
                if enclosing_class is not None:
                    graph._class_methods[
                        (path, enclosing_class, stmt.name)] = node_id
                    graph._methods_by_name.setdefault(
                        stmt.name, []).append(node_id)
                visit(stmt.body, f"{qualname}.", None)
            elif isinstance(stmt, ast.ClassDef):
                visit(stmt.body, f"{prefix}{stmt.name}.", stmt.name)
            else:
                # control flow at module/class level may nest defs
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                        visit([child], prefix, enclosing_class)

    visit(tree.body, "", None)

    # the synthetic <module> node: what importing this module *executes*
    # (a __main__ guard never runs on a worker import, and def/class
    # statements only *bind* — their bodies are the functions' own
    # scope, already covered by their own nodes)
    import_body = [stmt for stmt in tree.body
                   if not _is_main_guard(stmt)
                   and not isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef))]
    module_ast = ast.Module(body=import_body, type_ignores=[])
    module_node = FunctionNode(
        id=f"{path}::<module>", name="<module>", qualname="<module>",
        path=path, lineno=1, func_ast=module_ast)
    _collect_effects(module_node, module_ast, module_names, imports,
                     sanctioned)
    graph.nodes[module_node.id] = module_node
    graph.module_nodes[path] = module_node.id


def _is_main_guard(stmt: ast.stmt) -> bool:
    """``if __name__ == "__main__":`` (either comparison order)."""
    if not isinstance(stmt, ast.If) \
            or not isinstance(stmt.test, ast.Compare):
        return False
    test = stmt.test
    if len(test.ops) != 1 or not isinstance(test.ops[0], ast.Eq):
        return False
    sides = [test.left] + list(test.comparators)
    names = {n.id for n in sides if isinstance(n, ast.Name)}
    consts = {c.value for c in sides if isinstance(c, ast.Constant)}
    return "__name__" in names and "__main__" in consts


class ImportInfo:
    """Names a module binds to clock, RNG, ``os`` and ``importlib``
    providers, plus every import statement as written."""

    def __init__(self, tree: ast.Module):
        #: ``import M [as A]`` as ``(M, A)``, anywhere in the module
        self.imports: List[Tuple[str, Optional[str]]] = []
        #: ``from M import N [as A]`` as ``(M, N, A)`` (absolute only)
        self.from_imports: List[Tuple[str, str, Optional[str]]] = []
        self.time_mods: Set[str] = set()
        self.datetime_mods: Set[str] = set()
        self.datetime_classes: Set[str] = set()
        self.random_mods: Set[str] = set()
        self.numpy_mods: Set[str] = set()
        self.numpy_random_mods: Set[str] = set()
        self.os_mods: Set[str] = set()
        self.importlib_mods: Set[str] = set()
        self.bare_rng: Set[str] = set()
        self.bare_clock: Set[str] = set()
        self.environ_names: Set[str] = set()
        self.bare_getenv: Set[str] = set()
        self.bare_putenv: Set[str] = set()
        self.bare_import_module: Set[str] = set()
        plain = {"time": self.time_mods, "datetime": self.datetime_mods,
                 "random": self.random_mods, "os": self.os_mods,
                 "importlib": self.importlib_mods}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports.append((alias.name, alias.asname))
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name in plain:
                        plain[alias.name].add(bound)
                    elif alias.name == "numpy.random" and alias.asname:
                        self.numpy_random_mods.add(alias.asname)
                    elif alias.name == "numpy" \
                            or alias.name.startswith("numpy."):
                        self.numpy_mods.add(bound)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    if node.level == 0:
                        self.from_imports.append(
                            (module, alias.name, alias.asname))
                    bound = alias.asname or alias.name
                    if module == "numpy" and alias.name == "random":
                        self.numpy_random_mods.add(bound)
                    elif module in ("numpy.random", "random"):
                        self.bare_rng.add(bound)
                    elif module == "datetime" \
                            and alias.name == "datetime":
                        self.datetime_classes.add(bound)
                    elif module == "time" \
                            and alias.name in _CLOCK_FUNCTIONS:
                        self.bare_clock.add(bound)
                    elif module == "os" and alias.name == "urandom":
                        self.bare_clock.add(bound)
                    elif module == "os" and alias.name == "environ":
                        self.environ_names.add(bound)
                    elif module == "os" and alias.name == "getenv":
                        self.bare_getenv.add(bound)
                    elif module == "os" and alias.name == "putenv":
                        self.bare_putenv.add(bound)
                    elif module == "importlib" \
                            and alias.name == "import_module":
                        self.bare_import_module.add(bound)

    def is_environ(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.environ_names
        return (isinstance(node, ast.Attribute)
                and node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id in self.os_mods)


def classify_call(call: ast.Call, imports: ImportInfo,
                  seeded_is_routed: bool = True) -> Optional[str]:
    """``CLOCK_READ``, ``UNROUTED_RNG`` or None for one call.

    Clock reads include host entropy (``os.urandom``).  With
    ``seeded_is_routed`` a generator built from an explicit seed
    (``default_rng(seq)``, ``SeedSequence(entropy=...)``) is
    deterministic routing, not a draw — the RandomRouter itself derives
    its streams that way.  DET001 passes False: outside the stream
    factory even a seeded generator bypasses the named streams.
    """
    name = _dotted(call.func)
    if not name:
        return None
    head, _, rest = name.partition(".")
    if ((head in imports.time_mods and rest in _CLOCK_FUNCTIONS)
            or (head in imports.os_mods and rest == "urandom")
            or (head in imports.datetime_mods
                and rest.startswith("datetime.")
                and rest.split(".")[1] in _DATETIME_FACTORIES)
            or (head in imports.datetime_classes
                and rest in _DATETIME_FACTORIES)
            or ("." not in name and name in imports.bare_clock)):
        return CLOCK_READ
    if seeded_is_routed and (call.args or call.keywords) \
            and name.rsplit(".", 1)[-1] in _SEEDED_RNG_CONSTRUCTORS:
        return None
    if ((head in imports.random_mods and rest)
            or (head in imports.numpy_mods and rest.startswith("random."))
            or (head in imports.numpy_random_mods and rest)
            or ("." not in name and name in imports.bare_rng)):
        return UNROUTED_RNG
    return None


def _dotted(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ClassDef)


def _own_body(func: ast.AST):
    """Walk a function's own statements, not nested function/class
    scopes (those are their own nodes)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _SCOPE_NODES):
                continue
            stack.append(child)


def _collect_effects(fn: FunctionNode, func: ast.AST,
                     module_names: Set[str], imports: ImportInfo,
                     sanctioned: Set[int]) -> None:
    global_names: Set[str] = set()
    for node in _own_body(func):
        if isinstance(node, ast.Global):
            global_names.update(node.names)
        elif isinstance(node, ast.Nonlocal):
            fn.effects.append(EffectSite(
                GLOBAL_WRITE, node.lineno, node.col_offset,
                f"writes enclosing-scope state via 'nonlocal "
                f"{', '.join(node.names)}'"))

    for node in _own_body(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                base = target
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    base = base.value
                if isinstance(base, ast.Name) \
                        and base.id in global_names:
                    fn.effects.append(EffectSite(
                        GLOBAL_WRITE, node.lineno, node.col_offset,
                        f"assigns module global '{base.id}'",
                        symbol=base.id))
                elif isinstance(target, (ast.Attribute, ast.Subscript)) \
                        and isinstance(base, ast.Name) \
                        and base.id in module_names \
                        and base.id not in _local_bindings(func):
                    fn.effects.append(EffectSite(
                        GLOBAL_WRITE, node.lineno, node.col_offset,
                        f"mutates module-level object '{base.id}'",
                        symbol=base.id))
        elif isinstance(node, ast.Call):
            _call_effects(fn, node, module_names, imports, sanctioned,
                          _local_bindings(func))

    fn.returns_set = _returns_matching(func, _is_set_expr)


def _local_bindings(func: ast.AST) -> Set[str]:
    """Parameter and locally assigned names (shadow module globals)."""
    cached = getattr(func, "_reproflow_locals", None)
    if cached is not None:
        return cached
    names: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            names.add(arg.arg)
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
    for node in _own_body(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) \
                            and isinstance(leaf.ctx, ast.Store):
                        names.add(leaf.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    names.add(leaf.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for leaf in ast.walk(item.optional_vars):
                        if isinstance(leaf, ast.Name):
                            names.add(leaf.id)
    func._reproflow_locals = names   # type: ignore[attr-defined]
    return names


def _call_effects(fn: FunctionNode, call: ast.Call,
                  module_names: Set[str], imports: ImportInfo,
                  sanctioned: Set[int], local_names: Set[str]) -> None:
    name = _dotted(call.func)
    if not name:
        return
    kind = classify_call(call, imports)
    if kind == CLOCK_READ:
        if call.lineno not in sanctioned:
            fn.effects.append(EffectSite(
                CLOCK_READ, call.lineno, call.col_offset,
                f"reads the wall clock via '{name}()'"))
        return
    if kind == UNROUTED_RNG:
        fn.effects.append(EffectSite(
            UNROUTED_RNG, call.lineno, call.col_offset,
            f"draws from unrouted RNG '{name}()'"))
        return
    # mutation of module-level containers (CACHE.append, REGISTRY[k]=...)
    if isinstance(call.func, ast.Attribute) \
            and call.func.attr in _MUTATOR_METHODS:
        base = call.func.value
        while isinstance(base, (ast.Attribute, ast.Subscript)):
            base = base.value
        if isinstance(base, ast.Name) and base.id in module_names \
                and base.id not in local_names:
            fn.effects.append(EffectSite(
                GLOBAL_WRITE, call.lineno, call.col_offset,
                f"mutates module-level container '{base.id}' via "
                f".{call.func.attr}()", symbol=base.id))


def _is_set_expr(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("union", "intersection", "difference",
                                  "symmetric_difference")
    return False


def _returns_matching(func: ast.AST, predicate) -> bool:
    for node in _own_body(func):
        if isinstance(node, ast.Return) and predicate(node.value):
            return True
    return False


# ---------------------------------------------------------------- pass B:
# call edges + task roots

def _resolve_module_calls(graph: CallGraph, path: str,
                          tree: ast.Module) -> None:
    aliased = graph._aliased.get(path, set())

    def resolve(call: ast.Call,
                fn: FunctionNode) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in aliased:
                return None
            local = graph._module_functions.get(path, {}).get(name)
            if local is not None:
                return local
            candidates = graph._functions_by_name.get(name, [])
            if len(candidates) == 1:
                return candidates[0]
            return None   # absent or ambiguous: never guess
        if isinstance(func, ast.Attribute):
            method = func.attr
            # self.m() / cls.m(): the enclosing class's own method wins
            if isinstance(func.value, ast.Name) \
                    and func.value.id in ("self", "cls") \
                    and fn.enclosing_class is not None:
                own = graph._class_methods.get(
                    (path, fn.enclosing_class, method))
                if own is not None:
                    return own
            candidates = graph._methods_by_name.get(method, [])
            if len(candidates) == 1:
                return candidates[0]
            return None
        return None

    for fn in [n for n in graph.nodes.values() if n.path == path]:
        func_ast = fn.func_ast
        if func_ast is None:
            continue
        for node in _own_body(func_ast):
            if isinstance(node, ast.Call):
                callee = resolve(node, fn)
                if callee is not None and callee != fn.id:
                    fn.calls.append(CallSite(
                        callee=callee, lineno=node.lineno,
                        col=node.col_offset))
        # a nested function is wired as a callee of its enclosing
        # function: closures are typically invoked (or registered as
        # callbacks) by the scope that defines them
        for child in ast.iter_child_nodes(func_ast):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested_id = f"{path}::{fn.qualname}.{child.name}"
                if nested_id in graph.nodes:
                    fn.calls.append(CallSite(
                        callee=nested_id, lineno=child.lineno,
                        col=child.col_offset))


def _collect_task_roots(graph: CallGraph, path: str,
                        tree: ast.Module) -> None:
    constants = graph._str_constants.get(path, {})
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        tail = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if tail in TASK_SUBMIT_NAMES:
            entry_expr: Optional[ast.expr] = \
                node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "task":
                    entry_expr = keyword.value
        elif tail == "build" and isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "RunSpec":
            entry_expr = node.args[0] if node.args else None
            tail = "RunSpec.build"
        else:
            continue
        entry = None
        if isinstance(entry_expr, ast.Constant) \
                and isinstance(entry_expr.value, str):
            entry = entry_expr.value
        elif isinstance(entry_expr, ast.Name):
            entry = constants.get(entry_expr.id)
        if entry is None or ":" not in entry:
            continue
        graph.task_roots.append(TaskRoot(
            path=path, lineno=node.lineno, col=node.col_offset,
            entry=entry, node_id=graph.resolve_entry(entry),
            submit_name=tail or ""))


# ---------------------------------------------------------------- stream
# return summaries (needed before taint: helpers that hand back streams)

def _propagate_returns_stream(graph: CallGraph) -> None:
    """Fixpoint over 'this function returns a RandomRouter stream'.

    Base case: a return whose value is an ``<expr>.stream(...)`` call
    (the named-stream factory — the one attribute spelled ``stream`` in
    this codebase).  Inductive case: a
    return of a call to a function already known to return a stream —
    this is what carries a stream created in ``sim/random.py`` through a
    helper in another module and into the leak rules.
    """

    def returns_stream_expr(node: Optional[ast.expr], path: str) -> bool:
        if not isinstance(node, ast.Call):
            return False
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "stream":
            return True
        if isinstance(node.func, ast.Name):
            target = graph._module_functions.get(path, {}).get(
                node.func.id)
            if target is None:
                candidates = graph._functions_by_name.get(
                    node.func.id, [])
                if len(candidates) == 1:
                    target = candidates[0]
            if target is not None:
                callee = graph.nodes.get(target)
                return callee is not None and callee.returns_stream
        return False

    changed = True
    while changed:
        changed = False
        for fn in graph.nodes.values():
            if fn.returns_stream or fn.func_ast is None:
                continue
            for node in _own_body(fn.func_ast):
                if isinstance(node, ast.Return) \
                        and returns_stream_expr(node.value, fn.path):
                    fn.returns_stream = True
                    changed = True
                    break
