"""Pass 3b: interprocedural determinism dataflow.

Two layers on top of the :mod:`reproflow.callgraph`:

* :func:`propagate_effects` — closes each function's local effect sites
  over the call graph to a fixpoint, so a task entry point "has" every
  global write, key-escaping input and handle use of anything it can
  transitively reach.  Each propagated effect remembers the *first* call
  chain that introduced it, so the finding can show the path
  (``task → helper → offender``).

* :class:`Pass3Analyzer` — the per-file rule families, evaluated against
  the whole-project graph.  Like the call graph, every resolution is
  ambiguity-guarded: an entry point that cannot be resolved to exactly
  one function, or a name whose meaning is unclear, is skipped rather
  than guessed at.

==========  ============================  =========================================
id          name                          what it flags
==========  ============================  =========================================
FLO002      stream-escapes-module-state   a stream (possibly returned through
                                          helpers in other modules) stored into a
                                          module-level name, ``global``, or
                                          class-body attribute
FLO003      seed-reuse-across-runs        ``RandomRouter(seed)`` / ``.fork(salt)``
                                          constructed inside a realization loop
                                          with a loop-invariant seed — every
                                          "independent" realization replays the
                                          same randomness
PUR101      impure-task-state             a function submitted to the runner
                                          transitively mutates module/global (or
                                          closure) state — the content-addressed
                                          cache would return stale results
SER303      task-captures-handle          a runner task transitively uses a
                                          module-level open handle / lock — each
                                          spawn worker re-creates its own copy,
                                          so state read or coordinated through
                                          it differs between serial and
                                          ``--jobs`` runs
KEY501      cache-key-escape              a runner task's behaviour depends on
                                          state outside the RunSpec key: env
                                          vars, call-time file reads, module
                                          globals poked by other modules, or the
                                          ``x = KNOB if x is None else x``
                                          shadow-config fallback
ORD201      unordered-iteration-to-state  set/unordered iteration whose values
                                          flow into ordered state, schedules,
                                          dicts, or digests
==========  ============================  =========================================

The cache-key reasoning behind KEY501 is worth pinning down: a def-time
signature default (``def task(x=KNOB)``) is *sound* — the default is
source text, and the RunSpec key folds in a fingerprint of all source
text.  The unsound variant is the call-time read (``x = KNOB if x is
None else x``): the fingerprint still matches after ``KNOB`` is rebound
at runtime, so two runs with different effective configs share one key.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from reproflow.callgraph import (
    GLOBAL_WRITE,
    GRANULAR_KINDS,
    HANDLE_USE,
    KEY_ESCAPES,
    CallGraph,
    EffectSite,
    _own_body,
    _scope_statements,
)

RawFinding = Tuple[int, int, str, str]   # (lineno, col, rule, message)

#: call targets considered order-insensitive consumers of an iterable
_ORDER_INSENSITIVE = frozenset({
    "set", "frozenset", "sorted", "min", "max", "any", "all", "len",
    "Counter",
})
#: sequence materializers that freeze the (arbitrary) iteration order
_ORDER_MATERIALIZERS = frozenset({"list", "tuple", "join"})
#: loop-body calls that hand values onward in order (schedulers, queues)
_ORDER_SINK_CALLS = frozenset({
    "append", "appendleft", "extend", "insert", "push", "put", "enqueue",
    "send", "schedule", "call_at", "call_in", "emit", "update",
    "write", "writerow", "add_row",
})


class PropagatedEffect:
    """One effect visible from a node, with the chain that reaches it."""

    __slots__ = ("site", "origin", "chain")

    def __init__(self, site: EffectSite, origin: str,
                 chain: Tuple[str, ...]):
        self.site = site
        self.origin = origin       # node id where the effect happens
        self.chain = chain         # node ids from root to origin

    def describe(self, graph: CallGraph) -> str:
        hops = [graph.nodes[n].qualname for n in self.chain
                if n in graph.nodes]
        origin_node = graph.nodes.get(self.origin)
        where = origin_node.qualname if origin_node else self.origin
        path = " -> ".join(hops) if len(hops) > 1 else where
        detail = self.site.detail
        return (f"{where} (line {self.site.lineno}) {detail}"
                + (f" [via {path}]" if len(hops) > 1 else ""))


#: summary keys are the plain effect kind, plus — for
#: :data:`~reproflow.callgraph.GRANULAR_KINDS` with a known symbol —
#: ``"<kind>:<symbol>"`` entries so a consumer can see *every* distinct
#: offender, not just the first
Summary = Dict[str, PropagatedEffect]          # key -> best chain
Summaries = Dict[str, Summary]                 # node id -> summary


def propagate_effects(graph: CallGraph) -> Summaries:
    """Close local effects over call edges to a fixpoint.

    Each node's summary maps effect kind to the shortest known chain;
    cycles terminate because a summary only ever *gains* kinds and a
    kind's chain is never replaced once set.
    """
    summaries: Summaries = {}
    for node_id, node in graph.nodes.items():
        summary: Summary = {}
        for site in node.effects:
            keys = [site.kind]
            if site.kind in GRANULAR_KINDS and site.symbol:
                keys.append(f"{site.kind}:{site.symbol}")
            for key in keys:
                if key not in summary:
                    summary[key] = PropagatedEffect(
                        site, node_id, (node_id,))
        summaries[node_id] = summary

    # reverse adjacency: callee -> callers
    callers: Dict[str, List[str]] = {}
    for node_id, node in graph.nodes.items():
        for call in node.calls:
            callers.setdefault(call.callee, []).append(node_id)

    worklist = [n for n in graph.nodes if summaries[n]]
    while worklist:
        current = worklist.pop()
        current_summary = summaries[current]
        for caller in callers.get(current, ()):
            caller_summary = summaries[caller]
            changed = False
            for kind, effect in current_summary.items():
                if kind not in caller_summary:
                    caller_summary[kind] = PropagatedEffect(
                        effect.site, effect.origin,
                        (caller,) + effect.chain)
                    changed = True
            if changed:
                worklist.append(caller)
    return summaries


# ---------------------------------------------------------------------------
# per-file analyzer
# ---------------------------------------------------------------------------

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ClassDef)


def _last_segment(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _names_in(node: Optional[ast.AST]) -> Set[str]:
    if node is None:
        return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class Pass3Analyzer:
    """Runs the FLO / PUR / ORD / SER / KEY families over one file."""

    def __init__(self, path: str, graph: CallGraph, summaries: Summaries):
        self.path = path
        self.graph = graph
        self.summaries = summaries
        self.findings: List[RawFinding] = []
        self._module_names: Set[str] = set()

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            (node.lineno, node.col_offset, rule, message))

    # -- entry ---------------------------------------------------------

    def analyze(self, tree: ast.Module) -> List[RawFinding]:
        for stmt in tree.body:
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    self._module_names.add(target.id)

        self._check_tasks()
        # module body is a scope of its own (stream leaked at import time)
        self._check_flo002_scope(tree, is_module_scope=True,
                                 global_names=set())
        self._check_ord_scope(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                globals_here = {name
                                for stmt in _own_body(node)
                                if isinstance(stmt, ast.Global)
                                for name in stmt.names}
                self._check_flo002_scope(node, is_module_scope=False,
                                         global_names=globals_here)
                self._check_flo003(node)
                self._check_ord_scope(node)
            elif isinstance(node, ast.ClassDef):
                self._check_flo_class_body(node)
        self._check_flo003_module(tree)

        seen: Set[RawFinding] = set()
        unique = [f for f in self.findings
                  if not (f in seen or seen.add(f))]
        unique.sort()
        return unique

    # -- PUR / SER / KEY: what a runner task reaches ------------------

    def _check_tasks(self) -> None:
        for root in self.graph.task_roots:
            if root.path != self.path or root.node_id is None:
                continue
            summary = self.summaries.get(root.node_id, {})
            submitted = f"task '{root.entry}' submitted to " \
                        f"{root.submit_name}()"
            effect = summary.get(GLOBAL_WRITE)
            if effect is not None:
                self._emit_root(
                    root, "PUR101",
                    f"{submitted} is impure: "
                    f"{effect.describe(self.graph)}; the "
                    "content-addressed cache would replay results that "
                    "no longer match a fresh execution")
            for key in sorted(summary):
                kind, _, symbol = key.partition(":")
                if not symbol:
                    continue
                described = summary[key].describe(self.graph)
                if kind == HANDLE_USE:
                    self._emit_root(
                        root, "SER303",
                        f"{submitted} captures per-process state: "
                        f"{described}; every spawn worker re-creates its "
                        "own copy, so coordination through it silently "
                        "fails")
                elif kind in KEY_ESCAPES:
                    self._emit_root(
                        root, "KEY501",
                        f"{submitted} depends on state outside its "
                        f"RunSpec key: {described} — fold the value "
                        "into the task's config so cache hits cannot "
                        "replay stale results")

    def _emit_root(self, root, rule: str, message: str) -> None:
        self.findings.append((root.lineno, root.col, rule, message))

    # -- FLO: stream flow ----------------------------------------------

    def _stream_tainted_call(self, call: ast.Call) -> bool:
        """True when ``call`` evaluates to a RandomRouter stream."""
        if isinstance(call.func, ast.Attribute) \
                and call.func.attr == "stream":
            return True
        if isinstance(call.func, ast.Name):
            name = call.func.id
            target = self.graph._module_functions.get(
                self.path, {}).get(name)
            if target is None:
                candidates = self.graph._functions_by_name.get(name, [])
                if len(candidates) == 1:
                    target = candidates[0]
            if target is not None:
                node = self.graph.nodes.get(target)
                return node is not None and node.returns_stream
        return False

    def _check_flo002_scope(self, scope: ast.AST, is_module_scope: bool,
                            global_names: Set[str]) -> None:
        for stmt in _scope_statements(getattr(scope, "body", [])):
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if not (isinstance(value, ast.Call)
                    and self._stream_tainted_call(value)):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    if is_module_scope:
                        self._emit(
                            stmt, "FLO002",
                            f"stream bound to module-level name "
                            f"'{target.id}'; draws through it are "
                            "shared by every session in the process "
                            "— route streams through the session's "
                            "own RandomRouter")
                    elif target.id in global_names:
                        self._emit(
                            stmt, "FLO002",
                            f"stream stored into global "
                            f"'{target.id}'; stream state escapes "
                            "the session that owns it")
                elif isinstance(target, (ast.Attribute, ast.Subscript)) \
                        and not is_module_scope:
                    base = target
                    while isinstance(base, (ast.Attribute, ast.Subscript)):
                        base = base.value
                    if isinstance(base, ast.Name) \
                            and base.id in self._module_names:
                        self._emit(
                            stmt, "FLO002",
                            f"stream stored into module-level object "
                            f"'{base.id}'; stream state escapes the "
                            "session that owns it")

    def _check_flo_class_body(self, cls: ast.ClassDef) -> None:
        for stmt in cls.body:
            value = getattr(stmt, "value", None)
            if isinstance(value, ast.Call) \
                    and self._stream_tainted_call(value) \
                    and isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._emit(
                    stmt, "FLO002",
                    f"stream bound to a class attribute of "
                    f"'{cls.name}'; every instance shares one generator "
                    "— create it per instance, from the session router")

    # -- FLO003: seed reuse in realization loops -----------------------

    def _is_realization_loop_iter(self, iter_node: ast.expr) -> bool:
        """Loops over ``range(...)`` or ``*seed*`` iterables enumerate
        independent realizations; loops over strategy/link lists are the
        paired-comparison pattern, where seed *reuse is the point*."""
        if isinstance(iter_node, ast.Call) \
                and _last_segment(iter_node.func) == "range":
            return True
        name = _last_segment(iter_node)
        return name is not None and "seed" in name.lower()

    def _seed_factory_arg(self, call: ast.Call) -> Optional[ast.expr]:
        """The seed/salt argument when ``call`` builds new randomness."""
        callee = _last_segment(call.func)
        if isinstance(call.func, ast.Name) and callee == "RandomRouter":
            if call.args:
                return call.args[0]
            for keyword in call.keywords:
                if keyword.arg == "seed":
                    return keyword.value
            return ast.Constant(value=0, lineno=call.lineno,
                                col_offset=call.col_offset)
        if isinstance(call.func, ast.Attribute) and callee == "fork":
            if call.args:
                return call.args[0]
            for keyword in call.keywords:
                if keyword.arg == "salt":
                    return keyword.value
        return None

    def _check_flo003(self, func: ast.AST) -> None:
        for node in _own_body(func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if not self._is_realization_loop_iter(node.iter):
                    continue
                variant = _names_in(node.target)
                for stmt in node.body:
                    for leaf in ast.walk(stmt):
                        if isinstance(leaf, ast.Name) \
                                and isinstance(leaf.ctx, ast.Store):
                            variant.add(leaf.id)
                for stmt in node.body:
                    for call in ast.walk(stmt):
                        if isinstance(call, ast.Call):
                            self._flag_invariant_seed(call, variant)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    if not self._is_realization_loop_iter(gen.iter):
                        continue
                    variant = _names_in(gen.target)
                    for call in ast.walk(node):
                        if isinstance(call, ast.Call):
                            self._flag_invariant_seed(call, variant)

    def _check_flo003_module(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, (ast.For, ast.AsyncFor)) \
                    and self._is_realization_loop_iter(stmt.iter):
                variant = _names_in(stmt.target)
                for inner in stmt.body:
                    for call in ast.walk(inner):
                        if isinstance(call, ast.Call):
                            self._flag_invariant_seed(call, variant)

    def _flag_invariant_seed(self, call: ast.Call,
                             variant: Set[str]) -> None:
        seed_expr = self._seed_factory_arg(call)
        if seed_expr is None:
            return
        if _names_in(seed_expr) & variant:
            return
        callee = _last_segment(call.func)
        self._emit(
            call, "FLO003",
            f"'{callee}(...)' inside a realization loop uses a "
            "loop-invariant seed; every iteration replays identical "
            "randomness — derive the seed (or fork salt) from the loop "
            "variable")

    # -- ORD: iteration-order hazards ----------------------------------

    def _unordered_expr(self, node: ast.expr,
                        tainted: Set[str]) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Name):
            return node.id in tainted
        if isinstance(node, ast.Call):
            callee = _last_segment(node.func)
            if isinstance(node.func, ast.Name) \
                    and callee in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and callee in (
                    "union", "intersection", "difference",
                    "symmetric_difference"):
                return True
            if callee in ("listdir", "iglob", "scandir"):
                return True   # OS directory order is arbitrary
            if isinstance(node.func, ast.Name):
                target = self.graph._module_functions.get(
                    self.path, {}).get(callee or "")
                if target is None:
                    candidates = self.graph._functions_by_name.get(
                        callee or "", [])
                    if len(candidates) == 1:
                        target = candidates[0]
                if target is not None:
                    fn = self.graph.nodes.get(target)
                    return fn is not None and fn.returns_set
            return False
        if isinstance(node, ast.Attribute) \
                and node.attr in self.graph.set_attributes \
                and isinstance(node.ctx, ast.Load):
            return True
        return False

    def _check_ord_scope(self, scope: ast.AST) -> None:
        tainted: Set[str] = set()
        for node in _own_body(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                if self._unordered_expr(node.value, tainted):
                    tainted.add(node.targets[0].id)
                else:
                    tainted.discard(node.targets[0].id)

        blessed: Set[int] = set()
        for node in _own_body(scope):
            if isinstance(node, ast.Call):
                callee = _last_segment(node.func)
                if callee in _ORDER_INSENSITIVE and len(node.args) >= 1:
                    blessed.add(id(node.args[0]))

        for node in _own_body(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and self._unordered_expr(node.iter, tainted):
                self._check_ord_loop(node, tainted)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                if id(node) in blessed:
                    continue
                for gen in node.generators:
                    if self._unordered_expr(gen.iter, tainted):
                        kind = ("dict built from" if
                                isinstance(node, ast.DictComp)
                                else "sequence built from")
                        self._emit(
                            node, "ORD201",
                            f"{kind} an unordered iterable; its order "
                            "follows the hash seed, not the spec — "
                            "iterate sorted(...) instead")
                        break
            elif isinstance(node, ast.Call):
                callee = _last_segment(node.func)
                args = node.args
                if not args:
                    continue
                arg = args[0]
                direct = self._unordered_expr(arg, tainted)
                via_gen = isinstance(
                    arg, ast.GeneratorExp) and any(
                    self._unordered_expr(g.iter, tainted)
                    for g in arg.generators)
                if (direct or via_gen) and callee in _ORDER_MATERIALIZERS:
                    self._emit(
                        node, "ORD201",
                        f"'{callee}()' freezes the arbitrary order of "
                        "an unordered iterable; use sorted(...) so the "
                        "materialized order is the spec order")

    def _check_ord_loop(self, loop: ast.AST, tainted: Set[str]) -> None:
        target_names = _names_in(loop.target)
        for node in _own_body_of_loop(loop):
            if isinstance(node, ast.Call):
                callee = _last_segment(node.func)
                if callee in _ORDER_SINK_CALLS:
                    self._emit(
                        loop, "ORD201",
                        f"loop over an unordered iterable feeds "
                        f"'.{callee}()'; downstream order follows the "
                        "hash seed, not the spec — iterate sorted(...) "
                        "instead")
                    return
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        self._emit(
                            loop, "ORD201",
                            "loop over an unordered iterable writes "
                            "keyed entries; insertion order follows the "
                            "hash seed — iterate sorted(...) instead")
                        return
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self._emit(
                    loop, "ORD201",
                    "loop over an unordered iterable yields values; "
                    "consumers observe hash order — iterate "
                    "sorted(...) instead")
                return


def _own_body_of_loop(loop: ast.AST):
    """Nodes of the loop body, not nested scopes."""
    stack = list(loop.body)
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _SCOPE_NODES):
                continue
            stack.append(child)
