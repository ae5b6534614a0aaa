"""Unit inference from the identifier-suffix convention.

The repo encodes physical units in names: ``duration_s``, ``d_ms``,
``size_bytes``, ``rssi_dbm``, ``power_mw``, ``rate_hz``, ``fade_db``,
``bitrate_bps``.  This module turns that convention into a small unit
algebra:

* the unit of an expression is derived from identifier suffixes and
  propagated through arithmetic;
* multiplying/dividing by the literal conversion factors 1000 / 0.001
  converts between seconds and milliseconds (``x_s * 1000.0`` *is* a
  millisecond quantity, not a unit error);
* adding a dB gain to a dBm level is legal RF math and yields dBm;
* any other arithmetic or comparison between two *different* known units
  is a reportable mismatch.

Unknown units are ``None`` and never participate in mismatches — the
analysis only speaks up when both sides are provably unit-suffixed.

:func:`check_unt001` is the one rule built on it, UNT001
(mixed-unit-expression): it walks the module body and every function
body in source order, learning the units of suffix-less locals from
their assignments, and reports arithmetic, comparisons and in-place
updates that mix two different known units.  It needs one module only,
so it runs with the per-file family (:mod:`reproflow.filerules`).
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from reproflow.callgraph import ImportInfo, _scope_statements

#: longest suffixes first so ``_dbm`` wins over ``_db``, ``_bps`` over ``_s``
_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_bytes", "bytes"),
    ("_dbm", "dbm"),
    ("_bps", "bps"),
    ("_mw", "mw"),
    ("_ms", "ms"),
    ("_hz", "hz"),
    ("_db", "db"),
    ("_s", "s"),
)

#: (unit, multiplier) -> resulting unit, for the two blessed conversions
_MUL_CONVERSIONS: Dict[Tuple[str, float], str] = {
    ("s", 1000.0): "ms",
    ("ms", 0.001): "s",
}
_DIV_CONVERSIONS: Dict[Tuple[str, float], str] = {
    ("ms", 1000.0): "s",
    ("s", 0.001): "ms",
}

#: single-value wrappers that preserve the unit of their arguments
_PASSTHROUGH_CALLS = {
    "float", "abs", "max", "min", "round", "sum", "int",
    "mean", "median", "nanmean", "nanmedian", "nanmax", "nanmin",
    "amax", "amin", "asarray", "array",
}

ReportFn = Callable[[ast.AST, str], None]


def unit_of_identifier(name: str) -> Optional[str]:
    """Unit encoded in an identifier's suffix, or None."""
    for suffix, unit in _SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return unit
    return None


def _identifier_of(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _constant_value(node: ast.AST) -> Optional[float]:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _constant_value(node.operand)
        return -inner if inner is not None else None
    return None


def _additive_result(left: Optional[str], right: Optional[str]
                     ) -> Tuple[Optional[str], bool]:
    """(result unit, mismatch?) for ``left + right`` / ``left - right``."""
    if left is None or right is None:
        return (left or right), False
    if left == right:
        return left, False
    # Adding a dB gain/penalty to a dBm level is correct RF arithmetic.
    if {left, right} == {"dbm", "db"}:
        return "dbm", False
    return None, True


class UnitInferrer:
    """Infers expression units inside one scope, reporting mismatches.

    ``env`` carries units learned for suffix-less local names from
    earlier assignments in the same scope (``spacing = profile
    .inter_packet_spacing_s`` makes ``spacing`` a seconds quantity).
    """

    def __init__(self, env: Optional[Dict[str, str]] = None,
                 report: Optional[ReportFn] = None):
        self.env: Dict[str, str] = env if env is not None else {}
        self._report = report

    def report(self, node: ast.AST, message: str) -> None:
        if self._report is not None:
            self._report(node, message)

    # -- the recursive walk -------------------------------------------

    def infer(self, node: ast.AST) -> Optional[str]:
        """Unit of ``node``; reports mismatches found along the way."""
        if isinstance(node, (ast.Name, ast.Attribute)):
            ident = _identifier_of(node)
            unit = unit_of_identifier(ident) if ident else None
            if unit is None and isinstance(node, ast.Name):
                unit = self.env.get(node.id)
            return unit
        if isinstance(node, ast.Subscript):
            # recovery_delays_s[0] is still seconds
            return self.infer(node.value)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.Compare):
            self._check_compare(node)
            return None
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.IfExp):
            self.infer(node.test)
            body = self.infer(node.body)
            orelse = self.infer(node.orelse)
            return body if body == orelse else None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.infer(value)
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self.infer(element)
            return None
        if isinstance(node, ast.Starred):
            return self.infer(node.value)
        return None

    def _infer_binop(self, node: ast.BinOp) -> Optional[str]:
        left = self.infer(node.left)
        right = self.infer(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            result, mismatch = _additive_result(left, right)
            if mismatch:
                op = "+" if isinstance(node.op, ast.Add) else "-"
                self.report(node,
                            f"mixed-unit arithmetic: '{left}' {op} "
                            f"'{right}' (convert explicitly first)")
            return result
        if isinstance(node.op, ast.Mult):
            return self._infer_mult(node, left, right)
        if isinstance(node.op, ast.Div):
            return self._infer_div(node, left, right)
        if isinstance(node.op, ast.Mod):
            # t % period_s keeps the time unit
            if left is not None and right in (left, None):
                return left
            return None
        return None

    def _infer_mult(self, node: ast.BinOp,
                    left: Optional[str], right: Optional[str]
                    ) -> Optional[str]:
        for unit, other in ((left, node.right), (right, node.left)):
            if unit is None:
                continue
            factor = _constant_value(other)
            if factor is not None:
                converted = _MUL_CONVERSIONS.get((unit, factor))
                if converted is not None:
                    return converted
        if left is not None and right is None:
            return left      # scaling by a dimensionless factor
        if right is not None and left is None:
            return right
        return None          # unit * unit changes dimension; don't guess

    def _infer_div(self, node: ast.BinOp,
                   left: Optional[str], right: Optional[str]
                   ) -> Optional[str]:
        if left is not None and right is None:
            factor = _constant_value(node.right)
            if factor is not None:
                converted = _DIV_CONVERSIONS.get((left, factor))
                if converted is not None:
                    return converted
                return left   # dividing by a literal count keeps the unit
        # Dividing by a non-literal (a rate, a size, ...) changes the
        # dimension — bytes / rate_bps is a duration, not bytes.
        return None

    def _check_compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        units = [self.infer(operand) for operand in operands]
        for left, right in zip(units, units[1:]):
            if left is not None and right is not None and left != right \
                    and {left, right} != {"dbm", "db"}:
                self.report(node,
                            f"mixed-unit comparison: '{left}' vs "
                            f"'{right}' (convert explicitly first)")

    def _infer_call(self, node: ast.Call) -> Optional[str]:
        func_name = None
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            func_name = node.func.attr
        arg_units: List[Optional[str]] = [
            self.infer(arg) for arg in node.args]
        for keyword in node.keywords:
            self.infer(keyword.value)
        if func_name in _PASSTHROUGH_CALLS:
            known = [u for u in arg_units if u is not None]
            if len(set(known)) == 1:
                return known[0]
            if len(set(known)) > 1:
                self.report(node,
                            f"'{func_name}' mixes units "
                            f"{sorted(set(known))}; convert first")
        return None

    # -- assignment bookkeeping ---------------------------------------

    def learn(self, target: ast.AST, unit: Optional[str]) -> None:
        """Teach the env about ``target = <expr of unit>``."""
        if not isinstance(target, ast.Name) or unit is None:
            return
        if unit_of_identifier(target.id) is None:
            self.env[target.id] = unit


# -- the UNT001 rule ---------------------------------------------------

def _scope_bodies(tree: ast.Module) -> List[Sequence[ast.stmt]]:
    """The module body, then every function body (methods included)."""
    return [tree.body] + [
        node.body for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _expression_roots(stmt: ast.stmt) -> List[ast.expr]:
    roots: List[ast.expr] = []
    for attr in ("value", "test", "iter", "exc", "msg"):
        node = getattr(stmt, attr, None)
        if isinstance(node, ast.expr):
            roots.append(node)
    for item in getattr(stmt, "items", ()) or ():
        roots.append(item.context_expr)
    return roots


def check_unt001(tree: ast.Module, path: str, imports: ImportInfo
                 ) -> Iterator[Tuple[int, int, str]]:
    """Arithmetic, comparison or in-place update across two units."""
    hits: List[Tuple[int, int, str]] = []
    for body in _scope_bodies(tree):
        inferrer = UnitInferrer(report=lambda node, message: hits.append(
            (node.lineno, node.col_offset, message)))
        muted = UnitInferrer(env=inferrer.env)
        for stmt in _scope_statements(body):
            if isinstance(stmt, ast.Assign):
                value_unit = inferrer.infer(stmt.value)
                for target in stmt.targets:
                    inferrer.learn(target, value_unit)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                inferrer.learn(stmt.target, inferrer.infer(stmt.value))
            elif isinstance(stmt, ast.AugAssign):
                target_unit = muted.infer(stmt.target)
                value_unit = inferrer.infer(stmt.value)
                if isinstance(stmt.op, (ast.Add, ast.Sub)) \
                        and target_unit and value_unit \
                        and target_unit != value_unit \
                        and {target_unit, value_unit} != {"dbm", "db"}:
                    hits.append((stmt.lineno, stmt.col_offset,
                                 "mixed-unit in-place arithmetic: "
                                 f"'{target_unit}' op '{value_unit}'"))
            else:
                for expr in _expression_roots(stmt):
                    inferrer.infer(expr)
    yield from sorted(set(hits))
