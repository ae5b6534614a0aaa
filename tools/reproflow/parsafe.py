"""Pass 4: concurrency & serialization safety for the parallel runner.

Everything ``repro.runner`` does crosses the ``spawn`` process boundary:
the task entry string is resolved by ``importlib`` inside a fresh
interpreter, the payload comes back through pickle, and the
content-addressed ``RunSpec`` key is the *only* thing deciding whether a
cached result may stand in for a fresh execution.  A task that is not a
``module:function`` entry fails on every execution, serial runs included
(``RunSpec.build`` rejects a non-string task, ``resolve_task`` a dotted
function part), so it needs no rule.  The other two failures are
silent — an import-time side effect replays once per worker, and a cache
key that misses an input replays stale results — and pass 4 makes them
static, reusing the pass-3 call graph, effect summaries, and the
synthetic ``<module>`` nodes (what a worker import actually executes).

==========  ===============================  ====================================
id          name                             what it flags
==========  ===============================  ====================================
SER302      stateful-task-default            a runner task parameter default that
                                             constructs a handle/lock/queue/RNG —
                                             evaluated once per worker process and
                                             shared by every run scheduled there
SER303      task-captures-handle             a runner task transitively uses a
                                             module-level open handle / lock —
                                             each spawn worker re-creates its own
                                             copy, so cross-process coordination
                                             through it silently fails
IMP401      import-time-effect               module-scope clock read / unrouted
                                             RNG draw / env mutation in a module
                                             workers import to resolve a task
IMP402      cross-process-global-read        a function reads a module global
                                             that a runner task mutates — the
                                             mutation happens in worker processes
                                             and is never visible to the reader
KEY501      cache-key-escape                 a runner task's behaviour depends on
                                             state outside the RunSpec key: env
                                             vars, call-time file reads, module
                                             globals poked by other modules, or
                                             the ``x = KNOB if x is None else x``
                                             shadow-config fallback
KEY502      dynamic-dispatch-escape          task-reachable code selects a callee
                                             via non-constant ``getattr`` /
                                             ``import_module`` / ``globals()[...]``
                                             — the executed code escapes the
                                             spec's code fingerprint
==========  ===============================  ====================================

The cache-key reasoning behind KEY501 is worth pinning down: a def-time
signature default (``def task(x=KNOB)``) is *sound* — the default is
source text, and the RunSpec key folds in a fingerprint of all source
text.  The unsound variant is the call-time read (``x = KNOB if x is
None else x``): the fingerprint still matches after ``KNOB`` is rebound
at runtime, so two runs with different effective configs share one key.

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

from reproflow.callgraph import (
    CLOCK_READ,
    GLOBAL_WRITE,
    UNROUTED_RNG,
    CallGraph,
    EffectSite,
    FunctionNode,
    ImportInfo,
    _dotted,
    _local_bindings,
    _own_body,
    dotted_module_name,
)
from reproflow.index import ProjectIndex

RawFinding = Tuple[int, int, str, str]

#: pass-4 effect kinds (collected here, propagated by pass 3b)
ENV_READ = "env-read"
ENV_WRITE = "env-write"
FILE_READ = "file-read"
DYNAMIC_DISPATCH = "dynamic-dispatch"
SHADOW_CONFIG = "shadow-config"
MODULE_STATE_READ = "module-state-read"
HANDLE_USE = "handle-use"

#: kinds propagated per-symbol (``"kind:symbol"`` summary entries) so a
#: task root reports every distinct offender, not just the first
GRANULAR_KINDS = frozenset({
    GLOBAL_WRITE, ENV_READ, FILE_READ, SHADOW_CONFIG,
    MODULE_STATE_READ, HANDLE_USE,
})

#: env vars that gate checking, never results (see module docstring)
SANCTIONED_ENV_VARS = frozenset({"REPRO_SANITIZE"})

#: constructors whose result is per-process state (or plain unpicklable)
_STATEFUL_CONSTRUCTORS = frozenset({
    "open", "Lock", "RLock", "Condition", "Semaphore",
    "BoundedSemaphore", "Event", "Barrier", "Queue", "LifoQueue",
    "PriorityQueue", "SimpleQueue", "socket", "socketpair",
    "default_rng", "Random", "RandomState", "Generator",
})
_LOCK_CONSTRUCTORS = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier",
})
_ENV_MUTATORS = frozenset({
    "update", "setdefault", "pop", "popitem", "clear", "__setitem__",
})
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "add", "update", "setdefault",
    "pop", "popleft", "remove", "discard", "clear", "insert",
})


@dataclass
class ParsafeInfo:
    """Project-wide facts pass 4 needs beyond the call graph."""

    #: path -> project-internal module paths it imports
    module_imports: Dict[str, Set[str]] = field(default_factory=dict)
    #: modules a worker imports to resolve some task entry (closure)
    worker_modules: Set[str] = field(default_factory=set)
    #: worker module -> the module that imported it (None for entries)
    import_parent: Dict[str, Optional[str]] = field(default_factory=dict)
    #: path -> module-level names bound to handles/locks -> description
    handle_names: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: module-level names assigned *from other modules* (path, name)
    poked: Set[Tuple[str, str]] = field(default_factory=set)
    #: node id -> module-level names the function loads at call time
    module_loads: Dict[str, Set[str]] = field(default_factory=dict)


# ---------------------------------------------------------------- imports
# which project modules an import statement pulls in (which local names
# mean os / os.environ / importlib is the call graph's ImportInfo)

def _import_targets(tree: ast.Module, path: str,
                    graph: CallGraph) -> Set[str]:
    """Project-module paths this module's imports execute.

    Importing ``a.b.c`` also executes the ``a`` and ``a.b`` package
    ``__init__`` modules, so ancestors are included.  Relative imports
    are resolved against this module's own dotted name.
    """
    own = dotted_module_name(path)
    own_pkg = own if path.replace("\\", "/").endswith("/__init__.py") \
        else own.rsplit(".", 1)[0] if "." in own else ""

    def add_with_ancestors(dotted: str, out: Set[str]) -> None:
        parts = dotted.split(".")
        for i in range(1, len(parts) + 1):
            target = graph._module_paths.get(".".join(parts[:i]))
            if target is not None:
                out.add(target)

    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                add_with_ancestors(alias.name, out)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = own_pkg
                for _ in range(node.level - 1):
                    anchor = anchor.rsplit(".", 1)[0] \
                        if "." in anchor else ""
                base = f"{anchor}.{base}" if base else anchor
            if base:
                add_with_ancestors(base, out)
                for alias in node.names:
                    add_with_ancestors(f"{base}.{alias.name}", out)
    out.discard(path)
    return out


def _module_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted module it denotes (for cross-module pokes)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                continue   # relative: handled conservatively (skipped)
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{module}.{alias.name}" if module else alias.name
    return aliases


# ---------------------------------------------------------------- collect

def collect_parsafe(graph: CallGraph,
                    trees: Dict[str, ast.Module]) -> ParsafeInfo:
    """Add pass-4 effect sites to the graph and gather project facts.

    Must run after :func:`build_callgraph` (it needs the nodes and task
    roots) and *before* :func:`propagate_effects` (the new sites ride
    the same fixpoint).
    """
    info = ParsafeInfo()

    for path in sorted(trees):
        tree = trees[path]
        info.module_imports[path] = _import_targets(tree, path, graph)
        info.handle_names[path] = _module_handles(tree)
        _collect_pokes(graph, path, tree, info)

    for node in graph.nodes.values():
        if node.func_ast is None:
            continue
        _collect_node_effects(graph, node, graph.imports[node.path], info)

    _close_worker_modules(graph, info)
    return info


def _module_handles(tree: ast.Module) -> Dict[str, str]:
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


def _collect_pokes(graph: CallGraph, path: str, tree: ast.Module,
                   info: ParsafeInfo) -> None:
    """Record module-level names this module rebinds *in other modules*
    (``othermod.KNOB = x`` / ``othermod.REGISTRY.update(...)``)."""
    aliases = _module_aliases(tree)

    def resolve_attr(node: ast.expr) -> Optional[Tuple[str, str]]:
        dotted = _dotted(node)
        if not dotted or "." not in dotted:
            return None
        parts = dotted.split(".")
        head = aliases.get(parts[0])
        if head is None:
            return None
        module = ".".join([head] + parts[1:-1])
        target = graph._module_paths.get(module)
        if target is None or target == path:
            return None
        return target, parts[-1]

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute):
                    poke = resolve_attr(target)
                    if poke is not None:
                        info.poked.add(poke)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATOR_METHODS:
            poke = resolve_attr(node.func.value)
            if poke is not None:
                info.poked.add(poke)


def _collect_node_effects(graph: CallGraph, fn: FunctionNode,
                          imports: ImportInfo, info: ParsafeInfo) -> None:
    func = fn.func_ast
    assert func is not None
    locals_here = _local_bindings(func)
    module_assigned = graph._module_assigned.get(fn.path, set())
    handles = info.handle_names.get(fn.path, {})
    poked_here = {name for (p, name) in info.poked if p == fn.path}
    params = _param_names(func)
    loads: Set[str] = set()

    for node in _own_body(func):
        if isinstance(node, ast.Call):
            _env_call_effects(fn, node, imports)
            _file_read_effects(fn, node)
            _dispatch_effects(fn, node, imports)
        elif isinstance(node, ast.Subscript):
            if imports.is_environ(node.value):
                key = node.slice
                if isinstance(node.ctx, ast.Load):
                    _env_read(fn, node, key)
                elif isinstance(node.ctx, (ast.Store, ast.Del)):
                    fn.effects.append(EffectSite(
                        ENV_WRITE, node.lineno, node.col_offset,
                        "mutates os.environ",
                        symbol=_const_str(key) or "<dynamic>"))
            elif isinstance(node.value, ast.Call) \
                    and _dotted(node.value.func) == "globals":
                fn.effects.append(EffectSite(
                    DYNAMIC_DISPATCH, node.lineno, node.col_offset,
                    "looks up a name via globals()[...]",
                    symbol="globals"))
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
            if node.id in module_assigned:
                loads.add(node.id)

    if params:
        _shadow_config_effects(fn, func, params, module_assigned)
    if loads:
        info.module_loads[fn.id] = loads


def _param_names(func: ast.AST) -> Set[str]:
    args = getattr(func, "args", None)
    if args is None:
        return set()
    return {a.arg for a in (list(args.posonlyargs) + list(args.args)
                            + list(args.kwonlyargs))}


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


def _env_call_effects(fn: FunctionNode, call: ast.Call,
                      imports: ImportInfo) -> None:
    func = call.func
    dotted = _dotted(func)
    head, _, rest = dotted.partition(".")
    key = call.args[0] if call.args else None
    if (head in imports.os_mods and rest == "getenv") \
            or dotted in imports.bare_getenv:
        _env_read(fn, call, key)
    elif isinstance(func, ast.Attribute) and func.attr == "get" \
            and imports.is_environ(func.value):
        _env_read(fn, call, key)
    elif (head in imports.os_mods and rest in ("putenv", "unsetenv")) \
            or dotted in imports.bare_putenv:
        fn.effects.append(EffectSite(
            ENV_WRITE, call.lineno, call.col_offset,
            f"mutates the environment via '{dotted}()'",
            symbol=_const_str(key) or "<dynamic>"))
    elif isinstance(func, ast.Attribute) \
            and func.attr in _ENV_MUTATORS \
            and imports.is_environ(func.value):
        fn.effects.append(EffectSite(
            ENV_WRITE, call.lineno, call.col_offset,
            f"mutates os.environ via .{func.attr}()",
            symbol=_const_str(key) or "<dynamic>"))


_PURE_WRITE_MODES = ("w", "a", "x")


def _file_read_effects(fn: FunctionNode, call: ast.Call) -> None:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = None
        if len(call.args) >= 2:
            mode = _const_str(call.args[1])
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


def _dispatch_effects(fn: FunctionNode, call: ast.Call,
                      imports: ImportInfo) -> None:
    func = call.func
    dotted = _dotted(func)
    head, _, rest = dotted.partition(".")
    if (head in imports.importlib_mods and rest == "import_module") \
            or dotted in imports.bare_import_module \
            or dotted == "__import__":
        if not call.args or _const_str(call.args[0]) is None:
            fn.effects.append(EffectSite(
                DYNAMIC_DISPATCH, call.lineno, call.col_offset,
                "imports a module named by a runtime value",
                symbol="import_module"))
    elif isinstance(func, ast.Name) and func.id == "getattr":
        if len(call.args) >= 2 and _const_str(call.args[1]) is None:
            fn.effects.append(EffectSite(
                DYNAMIC_DISPATCH, call.lineno, call.col_offset,
                "selects an attribute via getattr() with a "
                "non-constant name", symbol="getattr"))


_SHADOW_HINT = ("falls back to module-level '%s' at call time; the "
                "RunSpec key fingerprints source text, not runtime "
                "values, so rebinding the global changes results "
                "without changing the key")


def _shadow_config_effects(fn: FunctionNode, func: ast.AST,
                           params: Set[str],
                           module_assigned: Set[str]) -> None:
    """``x = KNOB if x is None else x`` / ``if x is None: x = KNOB`` /
    ``x = x or KNOB`` where ``x`` is a parameter and ``KNOB`` a
    module-level name."""

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


def _close_worker_modules(graph: CallGraph, info: ParsafeInfo) -> None:
    """BFS over project imports from every task-entry module: the set a
    spawned worker executes at import time to resolve some task."""
    queue: List[str] = []
    for root in graph.task_roots:
        module = root.entry.partition(":")[0]
        path = graph._module_paths.get(module)
        if path is None:
            suffix = "." + module
            candidates = [p for m, p in graph._module_paths.items()
                          if m.endswith(suffix)]
            path = candidates[0] if len(candidates) == 1 else None
        if path is None or path in info.worker_modules:
            continue
        info.worker_modules.add(path)
        info.import_parent[path] = None
        queue.append(path)
    while queue:
        current = queue.pop(0)
        for target in sorted(info.module_imports.get(current, ())):
            if target in info.worker_modules:
                continue
            info.worker_modules.add(target)
            info.import_parent[target] = current
            queue.append(target)


# ---------------------------------------------------------------- analyzer

class Pass4Analyzer:
    """Runs the SER / IMP / KEY families over one file."""

    def __init__(self, path: str, index: ProjectIndex, graph: CallGraph,
                 summaries: Dict[str, Dict[str, object]],
                 info: ParsafeInfo):
        self.path = path
        self.index = index
        self.graph = graph
        self.summaries = summaries
        self.info = info
        self.findings: List[RawFinding] = []
        self._reachable_cache: Dict[str, Set[str]] = {}

    def analyze(self) -> List[RawFinding]:
        self._check_ser302()
        self._check_root_summaries()
        self._check_imp401()
        self._check_imp402()
        seen: Set[RawFinding] = set()
        unique = [f for f in self.findings
                  if not (f in seen or seen.add(f))]
        unique.sort()
        return unique

    # -- shared helpers ------------------------------------------------

    def _local_roots(self):
        for root in self.graph.task_roots:
            if root.path == self.path:
                yield root

    def _reachable(self, node_id: str) -> Set[str]:
        cached = self._reachable_cache.get(node_id)
        if cached is not None:
            return cached
        seen = {node_id}
        stack = [node_id]
        while stack:
            node = self.graph.nodes.get(stack.pop())
            if node is None:
                continue
            for call in node.calls:
                if call.callee not in seen:
                    seen.add(call.callee)
                    stack.append(call.callee)
        self._reachable_cache[node_id] = seen
        return seen

    def _describe(self, effect) -> str:
        return effect.describe(self.graph)

    def _import_chain(self, path: str) -> str:
        hops = [dotted_module_name(path)]
        parent = self.info.import_parent.get(path)
        while parent is not None:
            hops.append(dotted_module_name(parent))
            parent = self.info.import_parent.get(parent)
        if len(hops) == 1:
            return f"task module {hops[0]}"
        return " <- ".join(hops)

    # -- SER302: stateful defaults on task functions -------------------

    def _check_ser302(self) -> None:
        seen: Set[str] = set()
        for root in self.graph.task_roots:
            if root.node_id is None or root.node_id in seen:
                continue
            seen.add(root.node_id)
            node = self.graph.nodes.get(root.node_id)
            if node is None or node.path != self.path \
                    or node.func_ast is None:
                continue
            for param, default in _defaults_of(node.func_ast):
                reason = self._stateful_default(default)
                if reason is None:
                    continue
                self.findings.append((
                    default.lineno, default.col_offset, "SER302",
                    f"task '{root.entry}' default for parameter "
                    f"'{param}' {reason}; defaults are evaluated once "
                    "per worker process and shared by every run "
                    "scheduled there, so results depend on scheduling "
                    "— take the value through the config dict instead"))

    def _stateful_default(self, default: ast.expr) -> Optional[str]:
        if isinstance(default, ast.Lambda):
            return "is a lambda (unpicklable under spawn)"
        if isinstance(default, ast.Call):
            tail = _dotted(default.func).rsplit(".", 1)[-1]
            if tail in _STATEFUL_CONSTRUCTORS:
                return f"constructs per-process state via '{tail}()'"
        if isinstance(default, ast.Name):
            kind = self.info.handle_names.get(
                self.path, {}).get(default.id)
            if kind is not None:
                return f"is the module-level {kind} '{default.id}'"
        return None

    # -- SER303 / KEY501 / KEY502: propagated task-root summaries ------

    def _check_root_summaries(self) -> None:
        for root in self._local_roots():
            if root.node_id is None:
                continue
            summary = self.summaries.get(root.node_id, {})
            for key in sorted(summary):
                kind, _, symbol = key.partition(":")
                if not symbol:
                    continue
                effect = summary[key]
                if kind == HANDLE_USE:
                    self.findings.append((
                        root.lineno, root.col, "SER303",
                        f"task '{root.entry}' submitted to "
                        f"{root.submit_name}() captures per-process "
                        f"state: {self._describe(effect)}; every spawn "
                        "worker re-creates its own copy, so "
                        "coordination through it silently fails"))
                elif kind in (ENV_READ, FILE_READ, SHADOW_CONFIG,
                              MODULE_STATE_READ):
                    self.findings.append((
                        root.lineno, root.col, "KEY501",
                        f"task '{root.entry}' submitted to "
                        f"{root.submit_name}() depends on state "
                        f"outside its RunSpec key: "
                        f"{self._describe(effect)} — fold the value "
                        "into the task's config so cache hits cannot "
                        "replay stale results"))
            effect = summary.get(DYNAMIC_DISPATCH)
            if effect is not None:
                self.findings.append((
                    root.lineno, root.col, "KEY502",
                    f"task '{root.entry}' submitted to "
                    f"{root.submit_name}() selects code dynamically: "
                    f"{self._describe(effect)}; the executed callee "
                    "escapes the RunSpec code fingerprint — dispatch "
                    "through a static mapping keyed by a config value "
                    "instead"))

    # -- IMP401: import-time effects in worker-imported modules --------

    def _check_imp401(self) -> None:
        if self.path not in self.info.worker_modules:
            return
        module_id = self.graph.module_nodes.get(self.path)
        if module_id is None:
            return
        summary = self.summaries.get(module_id, {})
        labels = {
            CLOCK_READ: "reads the wall clock",
            UNROUTED_RNG: "draws from an unrouted RNG",
            ENV_WRITE: "mutates the process environment",
        }
        for kind, label in labels.items():
            effect = summary.get(kind)
            if effect is None:
                continue
            lineno, col = self._module_site(module_id, effect)
            self.findings.append((
                lineno, col, "IMP401",
                f"module scope {label} at import time "
                f"({self._describe(effect)}); every spawned worker "
                f"replays this when resolving tasks "
                f"(worker-imported via {self._import_chain(self.path)})"
                " — move it inside a function or a __main__ guard"))

    def _module_site(self, module_id: str, effect) -> Tuple[int, int]:
        """The line *in this file* responsible for a module-scope
        effect: the site itself, or the module-scope call that starts
        the chain reaching it."""
        if effect.origin == module_id:
            return effect.site.lineno, effect.site.col
        node = self.graph.nodes[module_id]
        first_callee = effect.chain[1] if len(effect.chain) > 1 else None
        for call in node.calls:
            if call.callee == first_callee:
                return call.lineno, call.col
        return 1, 0

    # -- IMP402: readers of globals that tasks mutate ------------------

    def _check_imp402(self) -> None:
        flagged: Set[Tuple[int, str]] = set()
        for root in self.graph.task_roots:
            if root.node_id is None:
                continue
            summary = self.summaries.get(root.node_id, {})
            closure = None
            for key in sorted(summary):
                kind, _, symbol = key.partition(":")
                if kind != GLOBAL_WRITE or not symbol:
                    continue
                effect = summary[key]
                origin = self.graph.nodes.get(effect.origin)
                if origin is None or origin.path != self.path:
                    continue
                if closure is None:
                    closure = self._reachable(root.node_id)
                for node in self.graph.nodes.values():
                    if node.path != self.path \
                            or node.qualname == "<module>" \
                            or node.id in closure:
                        continue
                    if symbol not in self.info.module_loads.get(
                            node.id, ()):
                        continue
                    mark = (node.lineno, symbol)
                    if mark in flagged:
                        continue
                    flagged.add(mark)
                    self.findings.append((
                        node.lineno, 0, "IMP402",
                        f"'{node.qualname}' reads module global "
                        f"'{symbol}', which runner task "
                        f"'{root.entry}' mutates "
                        f"({self._describe(effect)}); the mutation "
                        "happens inside spawned worker processes and "
                        "is never visible here — return the value "
                        "through the task payload instead"))


def _defaults_of(func: ast.AST):
    """Yield ``(param_name, default_expr)`` pairs, positionals aligned
    from the tail, then keyword-only."""
    args = getattr(func, "args", None)
    if args is None:
        return
    positional = list(args.posonlyargs) + list(args.args)
    for arg, default in zip(positional[len(positional)
                                       - len(args.defaults):],
                            args.defaults):
        yield arg.arg, default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, default
