"""Pass 2: the UNT unit family, and the table of every rule id.

Every rule runs per-file but reasons with the whole-project
:class:`~reproflow.index.ProjectIndex` in hand, so a ``_ms`` expression
flowing into a ``_s`` dataclass field *defined three modules away* is
still caught.  :data:`ALL_RULES` lists these together with the per-file
DET/GEN/OBS family (:mod:`reproflow.filerules`), the pass-3 families
and the RCH family.

==========  ============================  ========================================
id          name                          what it flags
==========  ============================  ========================================
UNT001      mixed-unit-expression         arithmetic/comparison between two
                                          different unit-suffixed quantities
                                          (``x_ms + y_s``, ``a_dbm < b_mw``)
UNT002      unit-mismatched-argument      a unit-suffixed expression passed to a
                                          parameter or dataclass field whose
                                          suffix names a different unit, at any
                                          call site project-wide
UNT003      unit-mismatched-assignment    assigning a known ``_ms`` quantity to a
                                          ``_s``-suffixed name (or any other
                                          cross-unit binding)
==========  ============================  ========================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from reproflow.index import ClassSchema, FuncSchema, ProjectIndex
from reproflow.units import UnitInferrer, unit_of_identifier

RawFinding = Tuple[int, int, str, str]   # (lineno, col, rule, message)

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ClassDef)


def _last_segment(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _walk_pruned(node: ast.AST):
    """Yield ``node`` and descendants, not descending into nested scopes."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _SCOPE_NODES):
                continue
            stack.append(child)


def _iter_scope_statements(body: Sequence[ast.stmt]):
    """Statements of one scope in source order, entering control flow but
    not nested function/class scopes."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, _SCOPE_NODES):
            continue
        for attr in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, attr, None)
            if inner:
                yield from _iter_scope_statements(inner)
        for handler in getattr(stmt, "handlers", ()):
            yield from _iter_scope_statements(handler.body)


@dataclass
class _Scope:
    """One analysis scope: the module body or one function body."""

    body: Sequence[ast.stmt]
    node: Optional[ast.AST] = None


def _collect_scopes(tree: ast.Module) -> List[_Scope]:
    scopes = [_Scope(body=tree.body)]

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(_Scope(body=child.body, node=child))
            visit(child)

    visit(tree)
    return scopes


class ScopeAnalyzer:
    """Runs every rule family over one file against the project index."""

    def __init__(self, path: str, index: ProjectIndex):
        self.path = path
        self.index = index
        self.findings: List[RawFinding] = []
        #: names this module binds to *something else* — ``import x as y``
        #: / ``from m import f as g`` aliases make the local name mean a
        #: different symbol than the project-wide index entry of the same
        #: name, so resolution must not trust them
        self._aliased: Set[str] = set()

    # -- public entry --------------------------------------------------

    def analyze(self, tree: ast.Module) -> List[RawFinding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname and alias.asname != alias.name:
                        self._aliased.add(alias.asname)
        for scope in _collect_scopes(tree):
            self._analyze_scope(scope)
        seen: Set[RawFinding] = set()
        unique = [f for f in self.findings
                  if not (f in seen or seen.add(f))]
        unique.sort()
        return unique

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            (node.lineno, node.col_offset, rule, message))

    # -- per-scope statement walk --------------------------------------

    def _analyze_scope(self, scope: _Scope) -> None:
        inferrer = UnitInferrer(
            report=lambda node, msg: self._emit(node, "UNT001", msg))
        muted = UnitInferrer(env=inferrer.env)

        for stmt in _iter_scope_statements(scope.body):
            if isinstance(stmt, ast.Assign):
                value_unit = inferrer.infer(stmt.value)
                for target in stmt.targets:
                    self._handle_assign_target(target, value_unit, inferrer)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value_unit = inferrer.infer(stmt.value)
                self._handle_assign_target(stmt.target, value_unit,
                                           inferrer)
            elif isinstance(stmt, ast.AugAssign):
                target_unit = muted.infer(stmt.target)
                value_unit = inferrer.infer(stmt.value)
                if isinstance(stmt.op, (ast.Add, ast.Sub)) \
                        and target_unit and value_unit \
                        and target_unit != value_unit \
                        and {target_unit, value_unit} != {"dbm", "db"}:
                    self._emit(stmt, "UNT001",
                               f"mixed-unit in-place arithmetic: "
                               f"'{target_unit}' op '{value_unit}'")
            else:
                for expr in self._expression_roots(stmt):
                    inferrer.infer(expr)
            # Call-site families run over every call in the statement.
            for node in _walk_pruned(stmt):
                if isinstance(node, ast.Call):
                    self._check_call(node, muted, scope)

    def _expression_roots(self, stmt: ast.stmt) -> List[ast.expr]:
        roots: List[ast.expr] = []
        for attr in ("value", "test", "iter", "exc", "msg"):
            node = getattr(stmt, attr, None)
            if isinstance(node, ast.expr):
                roots.append(node)
        for item in getattr(stmt, "items", ()) or ():
            roots.append(item.context_expr)
        return roots

    # -- assignments (UNT003 + bookkeeping) ----------------------------

    def _handle_assign_target(self, target: ast.AST,
                              value_unit: Optional[str],
                              inferrer: UnitInferrer) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_assign_target(element, None, inferrer)
            return
        if isinstance(target, ast.Attribute):
            self._check_target_unit(target, target.attr, value_unit)
            return
        if not isinstance(target, ast.Name):
            return
        self._check_target_unit(target, target.id, value_unit)
        inferrer.learn(target, value_unit)

    def _check_target_unit(self, node: ast.AST, name: str,
                           value_unit: Optional[str]) -> None:
        target_unit = unit_of_identifier(name)
        if target_unit and value_unit and target_unit != value_unit \
                and {target_unit, value_unit} != {"dbm", "db"}:
            self._emit(node, "UNT003",
                       f"assigning a '{value_unit}' quantity to "
                       f"'{name}' (declared '{target_unit}'); convert "
                       "explicitly")

    # -- call sites (UNT002) -------------------------------------------

    def _check_call(self, call: ast.Call, muted: UnitInferrer,
                    scope: _Scope) -> None:
        callee = _last_segment(call.func)
        if callee is None:
            return
        if isinstance(call.func, ast.Name) \
                and (callee in self._aliased
                     or callee in _scope_params(scope)):
            return   # locally rebound name: the index entry is a stranger
        cls = self.index.resolve_class(callee)
        if cls is not None:
            self._check_constructor(call, cls, muted)
            return
        if callee in self.index.classes:
            return   # ambiguous class: never guess
        func = None
        if isinstance(call.func, ast.Name):
            func = self.index.resolve_function(callee)
        elif isinstance(call.func, ast.Attribute):
            # Attribute calls resolve through the method table only:
            # `np.mean(...)` must not hit a project function named
            # `mean` just because the last segment matches.
            func = self.index.resolve_method(callee)
        if func is not None:
            self._check_function_call(call, func, muted)

    def _check_constructor(self, call: ast.Call, cls: ClassSchema,
                           muted: UnitInferrer) -> None:
        fields = self.index.constructor_fields(cls)
        self._check_positional_units(call, [(name, fields.get(name))
                                            for name in cls.order], muted,
                                     f"field of {cls.name}")
        for keyword in call.keywords:
            if keyword.arg in fields:
                self._check_kwarg_unit(
                    keyword, fields[keyword.arg],
                    f"field '{keyword.arg}' of {cls.name}", muted)

    def _check_function_call(self, call: ast.Call, func: FuncSchema,
                             muted: UnitInferrer) -> None:
        self._check_positional_units(
            call, [(p.name, p.unit) for p in func.positional], muted,
            f"parameter of {func.name}()")
        for keyword in call.keywords:
            if keyword.arg in func.param_units:
                self._check_kwarg_unit(
                    keyword, func.param_units[keyword.arg],
                    f"parameter '{keyword.arg}' of {func.name}()", muted)

    def _check_positional_units(self, call: ast.Call,
                                params: List[Tuple[str, Optional[str]]],
                                muted: UnitInferrer, where: str) -> None:
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return
        for arg, (param_name, param_unit) in zip(call.args, params):
            if param_unit is None:
                continue
            arg_unit = muted.infer(arg)
            if arg_unit is not None and arg_unit != param_unit:
                self._emit(arg, "UNT002",
                           f"'{arg_unit}' expression passed to "
                           f"'{param_name}' ({where}) which expects "
                           f"'{param_unit}'")

    def _check_kwarg_unit(self, keyword: ast.keyword,
                          param_unit: Optional[str], where: str,
                          muted: UnitInferrer) -> None:
        if param_unit is None:
            return
        arg_unit = muted.infer(keyword.value)
        if arg_unit is not None and arg_unit != param_unit:
            self._emit(keyword.value, "UNT002",
                       f"'{arg_unit}' expression passed to {where} "
                       f"which expects '{param_unit}'")


def _scope_params(scope: _Scope) -> Set[str]:
    node = scope.node
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    args = node.args
    names = {a.arg for a in list(args.posonlyargs) + list(args.args)
             + list(args.kwonlyargs)}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


#: rule id -> (short name, one-line description)
ALL_RULES: Dict[str, Tuple[str, str]] = {
    # per-file determinism / hygiene / observability (reproflow.filerules)
    "DET001": ("unrouted-rng",
               "Global/unrouted RNG use outside the stream factory."),
    "DET002": ("wall-clock",
               "Wall-clock read or OS entropy in simulation code."),
    "DET003": ("unordered-iteration",
               "Set iteration inside a function that schedules events."),
    "GEN101": ("mutable-default-arg",
               "Mutable default argument shared across calls."),
    "GEN102": ("overbroad-except",
               "Bare except / except Exception hides invariant failures."),
    "OBS001": ("adhoc-observability",
               "print / stdout writes / global tallies in instrumented "
               "simulation packages."),
    # pass 2 (semantic families — reproflow.rules)
    "UNT001": ("mixed-unit-expression",
               "Arithmetic or comparison between different units."),
    "UNT002": ("unit-mismatched-argument",
               "Unit-suffixed expression passed to a parameter or "
               "dataclass field of a different unit."),
    "UNT003": ("unit-mismatched-assignment",
               "Known-unit value bound to a name suffixed with a "
               "different unit."),
    # pass 3 (interprocedural dataflow — reproflow.dataflow)
    "FLO001": ("stream-aliased",
               "One RandomRouter stream handed to two components (or "
               "handed out inside a loop over links/sessions)."),
    "FLO002": ("stream-escapes-module-state",
               "A stream stored into module-level, global, or "
               "class-attribute state."),
    "FLO003": ("seed-reuse-across-runs",
               "RandomRouter/fork constructed in a realization loop "
               "with a loop-invariant seed."),
    "PUR101": ("impure-task-state",
               "A runner task transitively mutates module/global or "
               "closure state (stale ResultCache)."),
    "ORD201": ("unordered-iteration-to-state",
               "set/unordered iteration flowing into ordered state, "
               "schedules, keyed writes, or digests."),
    "SER303": ("task-captures-handle",
               "A runner task transitively uses a module-level open "
               "handle or lock; each spawn worker gets its own copy."),
    "KEY501": ("cache-key-escape",
               "A runner task depends on env vars, call-time file "
               "reads, or module globals outside its RunSpec key."),
    # reachability of src/repro from the program (reproflow.reach)
    "RCH601": ("unreached-module",
               "A src/repro module no program file imports."),
    "RCH602": ("unnamed-definition",
               "A src/repro definition no program file names outside "
               "its own body."),
    "RCH603": ("unset-parameter",
               "A defaulted parameter no program call sets."),
    "RCH604": ("unset-field",
               "A defaulted dataclass field no program code sets."),
}


def rule_table() -> str:
    """Human-readable rule listing (``--list-rules``)."""
    width = max(len(rule_id) for rule_id in ALL_RULES)
    lines = []
    for rule_id in sorted(ALL_RULES):
        name, summary = ALL_RULES[rule_id]
        lines.append(f"{rule_id.ljust(width)}  {name.ljust(28)} {summary}")
    return "\n".join(lines)
