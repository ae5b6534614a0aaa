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
  does *directly*: writing module/global state, reading a task input the
  ``RunSpec`` key omits (an environment variable, a file opened at call
  time, a module global another module rebinds, a parameter that falls
  back to a module global at call time), using a module-level open
  handle or lock, and (for the stream taint) whether it *returns* a
  ``RandomRouter`` stream.

The import model (:class:`ImportInfo`) and the clock/RNG classifier
(:func:`classify_call`) defined here are the only ones in the tool: the
per-file DET001/DET002 rules and the env-read collector read the same
per-module :class:`ImportInfo`.

Task roots — the ``"module:function"`` entry points handed to
``repro.runner.map_task`` / ``map_configs`` / ``RunSpec.build`` — are
collected here too, resolving string constants through module-level
assignments (``OFFICE_TASK = "repro...:office_run_metrics"``).

Env reads named in :data:`SANCTIONED_ENV_VARS` are exempt:
``REPRO_SANITIZE`` gates *assertions and digest checks*, never results
(the bench/obs smoke targets prove serial, parallel and warm-cache runs
byte-identical with it on), so folding it into the key would only
defeat cache sharing between sanitized and unsanitized sessions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from reproflow.index import ProjectIndex

#: what :func:`classify_call` says of one call
CLOCK_READ = "clock-read"
UNROUTED_RNG = "unrouted-rng"

#: effect kinds recorded on a node (and propagated by pass 3b)
GLOBAL_WRITE = "global-write"
ENV_READ = "env-read"
FILE_READ = "file-read"
SHADOW_CONFIG = "shadow-config"
MODULE_STATE_READ = "module-state-read"
HANDLE_USE = "handle-use"

#: the task inputs the RunSpec key omits (KEY501)
KEY_ESCAPES = frozenset({ENV_READ, FILE_READ, SHADOW_CONFIG,
                         MODULE_STATE_READ})
#: kinds propagated per-symbol (``"kind:symbol"`` summary entries) so a
#: task root reports every distinct offender, not just the first
GRANULAR_KINDS = KEY_ESCAPES | {HANDLE_USE}

#: env vars that gate checking, never results (see module docstring)
SANCTIONED_ENV_VARS = frozenset({"REPRO_SANITIZE"})

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


@dataclass
class EffectSite:
    """One concrete occurrence of an effect inside a function body."""

    kind: str
    lineno: int
    col: int
    detail: str
    #: the module-level name (or other stable token) the effect touches,
    #: when one exists — :data:`GRANULAR_KINDS` propagate per-symbol so
    #: one task root can report every distinct offender, not just the first
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
        #: per-module: names assigned at module scope
        self._module_assigned: Dict[str, Set[str]] = {}
        #: per-module: module-level names bound to handles -> description
        self._handles: Dict[str, Dict[str, str]] = {}
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
                    index: ProjectIndex) -> CallGraph:
    """Build nodes, effects, and resolved edges for every module."""
    graph = CallGraph(index)
    for path in sorted(trees):
        _collect_module(graph, path, trees[path])
    # a module global is rebound at runtime when another module assigns
    # it, which only the complete module table can tell
    poked: Set[Tuple[str, str]] = set()
    for path in sorted(trees):
        poked |= _collect_pokes(graph, path, trees[path])
    for node in graph.nodes.values():
        _collect_task_inputs(graph, node, poked)
    for path in sorted(trees):
        _resolve_module_calls(graph, path, trees[path])
        _collect_task_roots(graph, path, trees[path])
    _propagate_returns_stream(graph)
    return graph


# ---------------------------------------------------------------- pass A:
# nodes, local effects, name tables

def _collect_module(graph: CallGraph, path: str, tree: ast.Module) -> None:
    graph._module_paths.setdefault(dotted_module_name(path), path)
    graph._module_functions.setdefault(path, {})
    aliased: Set[str] = set()
    module_names: Set[str] = set()
    str_constants: Dict[str, str] = {}

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
    graph._handles[path] = _module_handles(tree)
    graph.imports[path] = ImportInfo(tree)

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
                _collect_effects(fn, stmt, module_names)
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


class ImportInfo:
    """Names a module binds to clock, RNG and ``os`` providers, plus
    every import statement as written."""

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
        self.bare_rng: Set[str] = set()
        self.bare_clock: Set[str] = set()
        self.environ_names: Set[str] = set()
        self.bare_getenv: Set[str] = set()
        plain = {"time": self.time_mods, "datetime": self.datetime_mods,
                 "random": self.random_mods, "os": self.os_mods}
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

    def is_environ(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.environ_names
        return (isinstance(node, ast.Attribute)
                and node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id in self.os_mods)


def classify_call(call: ast.Call, imports: ImportInfo) -> Optional[str]:
    """``CLOCK_READ``, ``UNROUTED_RNG`` or None for one call.

    Clock reads include host entropy (``os.urandom``).  A generator
    built from an explicit seed (``default_rng(seq)``) is unrouted too:
    outside the stream factory it bypasses the named streams.
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
                     module_names: Set[str]) -> None:
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
            _call_effects(fn, node, module_names, _local_bindings(func))

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
                  module_names: Set[str], local_names: Set[str]) -> None:
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


# ---------------------------------------------------------------- task
# inputs the RunSpec key omits, and module-level handles

_LOCK_CONSTRUCTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier",
})
#: ``open()`` modes that only produce output
_PURE_WRITE_MODES = ("w", "a", "x")
_SHADOW_HINT = ("falls back to module-level '%s' at call time; the "
                "RunSpec key fingerprints source text, not runtime "
                "values, so rebinding the global changes results "
                "without changing the key")


def _module_handles(tree: ast.Module) -> Dict[str, str]:
    """Module-level names bound to an open file, lock or socket."""
    handles: Dict[str, str] = {}
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not isinstance(value, ast.Call):
            continue
        tail = _dotted(value.func).rsplit(".", 1)[-1]
        if tail == "open":
            kind = "open file handle"
        elif tail in _LOCK_CONSTRUCTORS:
            kind = f"synchronization primitive ({tail})"
        elif tail in ("socket", "socketpair"):
            kind = "socket"
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                handles[target.id] = kind
    return handles


def _module_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted module it denotes (absolute imports only)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{module}.{alias.name}" if module else alias.name
    return aliases


def _collect_pokes(graph: CallGraph, path: str,
                   tree: ast.Module) -> Set[Tuple[str, str]]:
    """``(module path, name)`` for every module-level name this module
    rebinds *in another module* (``othermod.KNOB = x`` /
    ``othermod.REGISTRY.update(...)``)."""
    aliases = _module_aliases(tree)
    poked: Set[Tuple[str, str]] = set()

    def resolve_attr(node: ast.expr) -> Optional[Tuple[str, str]]:
        parts = _dotted(node).split(".")
        head = aliases.get(parts[0])
        if len(parts) < 2 or head is None:
            return None
        target = graph._module_paths.get(".".join([head] + parts[1:-1]))
        if target is None or target == path:
            return None
        return target, parts[-1]

    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets
                       if isinstance(t, ast.Attribute)]
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Attribute):
            targets = [node.target]
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATOR_METHODS:
            targets = [node.func.value]
        for target in targets:
            poke = resolve_attr(target)
            if poke is not None:
                poked.add(poke)
    return poked


def _collect_task_inputs(graph: CallGraph, fn: FunctionNode,
                         poked: Set[Tuple[str, str]]) -> None:
    """Env reads, call-time file reads, reads of rebound module globals,
    shadow-config fallbacks and module-level handle uses in ``fn``'s own
    body."""
    func = fn.func_ast
    assert func is not None
    imports = graph.imports[fn.path]
    locals_here = _local_bindings(func)
    handles = graph._handles.get(fn.path, {})
    poked_here = {name for (p, name) in poked if p == fn.path}

    for node in _own_body(func):
        if isinstance(node, ast.Call):
            _env_read_call(fn, node, imports)
            _file_read(fn, node)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load) \
                and imports.is_environ(node.value):
            _env_read(fn, node, node.slice)
        elif isinstance(node, ast.Name) \
                and isinstance(node.ctx, ast.Load) \
                and node.id not in locals_here:
            if node.id in handles:
                fn.effects.append(EffectSite(
                    HANDLE_USE, node.lineno, node.col_offset,
                    f"uses module-level {handles[node.id]} "
                    f"'{node.id}'", symbol=node.id))
            if node.id in poked_here:
                fn.effects.append(EffectSite(
                    MODULE_STATE_READ, node.lineno, node.col_offset,
                    f"reads module-level '{node.id}', which another "
                    "module rebinds at runtime", symbol=node.id))
    _shadow_config(fn, func, graph._module_assigned.get(fn.path, set()))


def _const_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _env_read(fn: FunctionNode, node: ast.AST,
              key: Optional[ast.expr]) -> None:
    name = _const_str(key)
    if name in SANCTIONED_ENV_VARS:
        return
    shown = f"'{name}'" if name else "a dynamic name"
    fn.effects.append(EffectSite(
        ENV_READ, node.lineno, node.col_offset,
        f"reads environment variable {shown}",
        symbol=name or "<dynamic>"))


def _env_read_call(fn: FunctionNode, call: ast.Call,
                   imports: ImportInfo) -> None:
    func = call.func
    dotted = _dotted(func)
    head, _, rest = dotted.partition(".")
    if (head in imports.os_mods and rest == "getenv") \
            or dotted in imports.bare_getenv \
            or (isinstance(func, ast.Attribute) and func.attr == "get"
                and imports.is_environ(func.value)):
        _env_read(fn, call, call.args[0] if call.args else None)


def _file_read(fn: FunctionNode, call: ast.Call) -> None:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _const_str(call.args[1]) if len(call.args) >= 2 else None
        for keyword in call.keywords:
            if keyword.arg == "mode":
                mode = _const_str(keyword.value)
        if mode is not None and "+" not in mode \
                and any(m in mode for m in _PURE_WRITE_MODES):
            return   # write-only: produces output, reads no input
        target = _const_str(call.args[0]) if call.args else None
        fn.effects.append(EffectSite(
            FILE_READ, call.lineno, call.col_offset,
            f"reads file "
            f"{'%r' % target if target else 'at a runtime path'} "
            "via open()", symbol=target or "<dynamic>"))
    elif isinstance(func, ast.Attribute) \
            and func.attr in ("read_text", "read_bytes"):
        fn.effects.append(EffectSite(
            FILE_READ, call.lineno, call.col_offset,
            f"reads a file via .{func.attr}()", symbol="<path>"))


def _shadow_config(fn: FunctionNode, func: ast.AST,
                   module_assigned: Set[str]) -> None:
    """``x = KNOB if x is None else x`` / ``if x is None: x = KNOB`` /
    ``x = x or KNOB`` where ``x`` is a parameter and ``KNOB`` a
    module-level name."""
    args = getattr(func, "args", None)
    if args is None:
        return
    params = {a.arg for a in (list(args.posonlyargs) + list(args.args)
                              + list(args.kwonlyargs))}

    def is_none_test(test: ast.expr, param: str) -> Optional[bool]:
        # True -> "is None", False -> "is not None", None -> no match
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None
        left, comp = test.left, test.comparators[0]
        if not (isinstance(left, ast.Name) and left.id == param
                and isinstance(comp, ast.Constant)
                and comp.value is None):
            return None
        if isinstance(test.ops[0], ast.Is):
            return True
        if isinstance(test.ops[0], ast.IsNot):
            return False
        return None

    def fallback_name(value: ast.expr, param: str) -> Optional[str]:
        if isinstance(value, ast.IfExp):
            none_first = is_none_test(value.test, param)
            if none_first is None:
                return None
            branch = value.body if none_first else value.orelse
            if isinstance(branch, ast.Name) \
                    and branch.id in module_assigned:
                return branch.id
        elif isinstance(value, ast.BoolOp) \
                and isinstance(value.op, ast.Or) \
                and len(value.values) == 2 \
                and isinstance(value.values[0], ast.Name) \
                and value.values[0].id == param \
                and isinstance(value.values[1], ast.Name) \
                and value.values[1].id in module_assigned:
            return value.values[1].id
        return None

    def emit(node: ast.AST, param: str, knob: str) -> None:
        fn.effects.append(EffectSite(
            SHADOW_CONFIG, node.lineno, node.col_offset,
            f"parameter '{param}' " + _SHADOW_HINT % knob,
            symbol=f"{param}<-{knob}"))

    for node in _own_body(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in params:
            param = node.targets[0].id
            knob = fallback_name(node.value, param)
            if knob is not None:
                emit(node, param, knob)
        elif isinstance(node, ast.If):
            for param in sorted(params):
                if is_none_test(node.test, param) is not True:
                    continue
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) \
                            and len(stmt.targets) == 1 \
                            and isinstance(stmt.targets[0], ast.Name) \
                            and stmt.targets[0].id == param \
                            and isinstance(stmt.value, ast.Name) \
                            and stmt.value.id in module_assigned:
                        emit(stmt, param, stmt.value.id)


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
