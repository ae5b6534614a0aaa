"""The RCH family: every module, definition, defaulted parameter and
defaulted dataclass field under ``src/repro`` must be reached by the
program.

The program is ``python -m repro`` (``src/repro/__main__.py``) plus
``examples/``, ``benchmarks/`` and ``bench/``; the tests are not part of
it.  :func:`~reproflow.engine.analyze_paths` folds those roots into the
one parse the way it folds in ``src/``, findings are reported on
``src/repro`` files only, and a tree set without a program file gets no
verdict at all.

==========  ==================  ==========================================
id          name                what it flags
==========  ==================  ==========================================
RCH601      unreached-module    a module no program file imports,
                                directly, through a package re-export or
                                as ``package.name``, nor any reached
                                module; the package ``__init__`` files'
                                own re-exports do not count
RCH602      unnamed-definition  a function, class, method or property no
                                program file or reached module names
                                outside its own body: as a name, an
                                attribute, an import or a code string
                                (``"module:function"``, a dotted probe);
                                by name, so a method shares its fate with
                                every definition of that name
RCH603      unset-parameter     a defaulted parameter of a reached
                                function that no program call of that
                                name passes by keyword, by position or
                                through a ``*``/``**`` splat; a forwarded
                                ``**kwargs`` passes only what its program
                                callers pass, and a runner task's
                                parameter is also set by a program dict
                                key of its name outside the task's body
RCH604      unset-field         a defaulted field of a reached
                                ``@dataclass`` that no program call of
                                the class, ``replace`` keyword or
                                attribute store sets; ``field=self.field``
                                inside the class copies and sets nothing,
                                and a list, dict or set ``default_factory``
                                is an accumulator, not an option
==========  ==================  ==========================================

What only tests reach is a second implementation or a knob no artifact
uses: delete it with its tests, or make the default a constant.  A
``# reproflow: disable=RCH60x`` kept for a test seam or a named ROADMAP
caller that silences nothing in ``src/`` is itself reported, under the
rule it names, so the disable goes when the program comes to reach what
it kept.
"""

from __future__ import annotations

import ast
import os
import re
from itertools import chain
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

from reproflow.callgraph import ImportInfo, dotted_module_name

RawFinding = Tuple[int, int, str, str]   # (lineno, col, rule, message)

#: the program outside ``src``: everything these import is reached
PROGRAM_ROOTS = ("examples", "benchmarks", "bench")
#: ``python -m repro``: reached by design, though nothing imports it
ENTRY_MODULE = "repro.__main__"
RCH_RULES = frozenset({"RCH601", "RCH602", "RCH603", "RCH604"})

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: strings that name code: ``"pkg.mod:func"``, ``"Class.method"``, ...
_CODE_STRING = re.compile(r"[A-Za-z0-9_.:]+")
_TASK_STRING = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*:[A-Za-z_][A-Za-z0-9_]*")
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_CONTAINERS = (ast.List, ast.Dict, ast.Set,
               ast.ListComp, ast.DictComp, ast.SetComp)

Enclosing = Tuple[ast.AST, ...]


def source_module(path: str) -> Optional[str]:
    """The dotted name of a ``src/repro`` module, None for other files."""
    posix = "/" + path.replace("\\", "/")
    return dotted_module_name(path) if "/src/repro/" in posix else None


def is_program(path: str) -> bool:
    """``src/repro/__main__.py``, or a file under a program root of the
    working directory (not any ``bench`` directory on the path)."""
    module = source_module(path)
    if module is not None:
        return module == ENTRY_MODULE
    root = os.path.relpath(path).replace("\\", "/").split("/")[0]
    return root in PROGRAM_ROOTS


def _is_package(path: str) -> bool:
    return os.path.basename(path) == "__init__.py"


def reachability(trees: Dict[str, ast.Module],
                 imports: Dict[str, ImportInfo]
                 ) -> Dict[str, List[RawFinding]]:
    """RCH findings for every ``src/repro`` path in ``trees``; empty when
    no tree is a program file.  ``imports`` may lack the program files
    the other passes do not analyze."""
    program_files = [path for path in sorted(trees) if is_program(path)]
    if not program_files:
        return {}
    modules = {module: path for path in sorted(trees)
               if (module := source_module(path)) is not None}
    findings: Dict[str, List[RawFinding]] = {path: []
                                             for path in modules.values()}
    reached = _reached_modules(program_files, modules, trees, imports)
    for module, path in modules.items():
        if not _is_package(path) and module != ENTRY_MODULE \
                and module not in reached:
            findings[path].append((
                1, 0, "RCH601",
                f"{module} is imported by no program file "
                "(`python -m repro`, examples/, benchmarks/, bench/); "
                "delete it with its tests"))
    program = {path: trees[path] for path in program_files}
    for module, path in modules.items():
        if not _is_package(path) and module in reached:
            program[path] = trees[path]
    checked = {module: path for module, path in modules.items()
               if path in program}
    scan = _scan(program)
    for path, finding in chain(_unnamed_definitions(program, checked),
                               _unset_parameters(program, checked, scan),
                               _unset_fields(program, checked, scan)):
        findings[path].append(finding)
    return findings


def stale_disables(suppressions: Dict[int, Set[str]],
                   findings: Iterable[RawFinding],
                   selected: Set[str]) -> List[RawFinding]:
    """A finding for each ``disable=RCH60x`` that silences nothing."""
    fired = {(lineno, rule) for lineno, _, rule, _ in findings}
    return [(lineno, 0, rule,
             f"`disable={rule}` silences nothing: the program reaches "
             "what it kept; delete the comment")
            for lineno, rules in sorted(suppressions.items())
            for rule in sorted(rules & RCH_RULES & selected)
            if (lineno, rule) not in fired]


# ------------------------------------------------------------- modules

def _resolve(module: str, name: str, modules: Dict[str, str],
             reexports: Dict[Tuple[str, str], Tuple[str, str]]) -> str:
    """The module that defines ``module.name``, or a submodule of that
    name, following package re-exports."""
    for _ in range(len(reexports) + 1):
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if (module, name) not in reexports:
            return module
        module, name = reexports[(module, name)]
    return module


def _imported_by(tree: ast.Module, info: ImportInfo,
                 modules: Dict[str, str],
                 reexports: Dict[Tuple[str, str], Tuple[str, str]]
                 ) -> Set[str]:
    """The modules one file imports, or uses as ``package.name``."""
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


def _reached_modules(program_files: List[str], modules: Dict[str, str],
                     trees: Dict[str, ast.Module],
                     imports: Dict[str, ImportInfo]) -> Set[str]:
    """Modules reached from the program files, transitively: an import
    counts only when the importing ``src`` module is reached itself."""
    reexports: Dict[Tuple[str, str], Tuple[str, str]] = {}
    for module, path in modules.items():
        if _is_package(path):
            for source, name, asname in imports[path].from_imports:
                reexports[(module, asname or name)] = (source, name)
    frontier = list(program_files)
    reached: Set[str] = set()
    while frontier:
        path = frontier.pop()
        info = imports.get(path) or ImportInfo(trees[path])
        found = _imported_by(trees[path], info, modules, reexports)
        for module in sorted(found - reached):
            reached.add(module)
            source = modules.get(module)
            if source is not None and not _is_package(source):
                frontier.append(source)
    return reached


# --------------------------------------------------------- definitions

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


def _walk(tree: ast.Module) -> Iterator[Tuple[ast.AST, Enclosing]]:
    """Every node of the file, with the definitions enclosing it."""
    stack: List[Tuple[ast.AST, Enclosing]] = [(tree, ())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, _DEFINITION):
            enclosing = enclosing + (node,)
        yield node, enclosing
        stack.extend((child, enclosing)
                     for child in ast.iter_child_nodes(node))


def _names_used(tree: ast.Module) -> Iterator[Tuple[str, Enclosing]]:
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


def _unnamed_definitions(program: Dict[str, ast.Module],
                         checked: Dict[str, str]
                         ) -> Iterator[Tuple[str, RawFinding]]:
    uses: Dict[str, List[Tuple[str, Enclosing]]] = {}
    for path, tree in program.items():
        for name, enclosing in _names_used(tree):
            uses.setdefault(name, []).append((path, enclosing))
    for module, path in checked.items():
        for qualname, node in _definitions(program[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue   # called by Python itself
            if not any(where != path or node not in enclosing
                       for where, enclosing in uses.get(name, ())):
                yield path, (
                    node.lineno, node.col_offset, "RCH602",
                    f"{module}:{qualname} is named by no program file "
                    "outside its own body; delete it with its tests")


# ---------------------------------------------- parameters and fields

class _Call(NamedTuple):
    """One program call."""

    path: str
    #: the definitions enclosing the call
    enclosing: Enclosing
    positional: int
    keywords: List[str]
    #: passes a ``*``/``**`` splat other than the enclosing function's
    #: own ``**kwargs``
    splat: bool
    #: the enclosing function, when the call passes that function's own
    #: ``**kwargs`` on
    forwards: Optional[ast.AST]


class _Scan(NamedTuple):
    """What the program files do that can set a parameter or field."""

    #: calls by callee name
    calls: Dict[str, List[_Call]]
    #: string dict keys (``{"k": v}`` or ``dict(k=v)``) by key
    keys: Dict[str, List[Tuple[str, Enclosing]]]
    #: ``module:function`` strings: the runner tasks
    tasks: Set[str]
    #: attribute names assigned (``x.attr = ...``, ``x.attr += ...``)
    stores: Set[str]


def _callee(call: ast.Call) -> Optional[str]:
    func = call.func
    return func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None


def _forwards(call: ast.Call, enclosing: Enclosing) -> Optional[ast.AST]:
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
                      enclosing: Enclosing) -> bool:
    """Whether a call of a class inside its own body passes
    ``field=self.field``: a copy of the value, which sets nothing."""
    value = keyword.value
    return isinstance(value, ast.Attribute) and value.attr == keyword.arg \
        and isinstance(value.value, ast.Name) and value.value.id == "self" \
        and any(isinstance(node, ast.ClassDef) and node.name == callee
                for node in enclosing)


def _scan(program: Dict[str, ast.Module]) -> _Scan:
    scan = _Scan({}, {}, set(), set())
    for path, tree in program.items():
        for node, enclosing in _walk(tree):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) \
                            and isinstance(key.value, str):
                        scan.keys.setdefault(key.value, []).append(
                            (path, enclosing))
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and _TASK_STRING.fullmatch(node.value):
                scan.tasks.add(node.value)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Store):
                scan.stores.add(node.attr)
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            if name is None:
                continue
            keywords = [kw.arg for kw in node.keywords if kw.arg
                        and not _copies_own_field(kw, name, enclosing)]
            if name == "dict":
                for key in keywords:
                    scan.keys.setdefault(key, []).append((path, enclosing))
            forwards = _forwards(node, enclosing)
            splats = sum(isinstance(arg, ast.Starred) for arg in node.args) \
                + sum(kw.arg is None for kw in node.keywords)
            positional = len(node.args) - sum(
                isinstance(arg, ast.Starred) for arg in node.args)
            scan.calls.setdefault(name, []).append(
                _Call(path, enclosing, positional, keywords,
                      splats > (forwards is not None), forwards))
    return scan


def _outside(calls: Iterable[_Call], path: str,
             node: ast.AST) -> List[_Call]:
    """The calls outside the body of the definition ``node`` in ``path``."""
    return [call for call in calls
            if call.path != path or node not in call.enclosing]


def _keywords(call: _Call, scan: _Scan, seen: Enclosing = ()) -> Set[str]:
    """The keywords a call passes, with those that reach it through a
    forwarded ``**kwargs`` from the enclosing function's program callers
    (``runner_context(no_cache=)`` -> ``configure(**overrides)`` ->
    ``replace(config, **overrides)``); no other splat counts."""
    keywords = set(call.keywords)
    function = call.forwards
    if function is not None and function not in seen:
        for outer in _outside(scan.calls.get(function.name, ()),
                              call.path, function):
            keywords |= _keywords(outer, scan, seen + (function,))
    return keywords


def _sets(calls: List[_Call], name: str, index: Optional[int],
          scan: _Scan) -> bool:
    """Whether one of the calls sets the argument ``name`` (at positional
    ``index``, None for keyword-only), by name, position or splat; a
    forwarded ``**kwargs`` sets only what :func:`_keywords` resolves."""
    return any(call.splat or name in _keywords(call, scan)
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
               ) -> Iterator[Tuple[ast.arg, Optional[int]]]:
    """``(parameter, index among a caller's positional arguments)`` of
    each defaulted parameter; the index is None for keyword-only ones."""
    args = node.args
    positional = args.posonlyargs + args.args
    bound = method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list)
    for index in range(len(positional) - len(args.defaults),
                       len(positional)):
        yield positional[index], index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg, None


def _unset_parameters(program: Dict[str, ast.Module],
                      checked: Dict[str, str], scan: _Scan
                      ) -> Iterator[Tuple[str, RawFinding]]:
    for module, path in checked.items():
        for qualname, node, owner in _functions(program[path]):
            callee = owner if node.name == "__init__" else node.name
            calls = _outside(scan.calls.get(callee, ()), path, node)
            task = f"{module}:{qualname}" in scan.tasks
            for arg, index in _defaulted(node, owner is not None):
                if _sets(calls, arg.arg, index, scan):
                    continue
                if task and any(where != path or node not in enclosing
                                for where, enclosing
                                in scan.keys.get(arg.arg, ())):
                    continue
                yield path, (
                    arg.lineno, arg.col_offset, "RCH603",
                    f"{module}:{qualname}({arg.arg}) is set by no program "
                    "call; make its default a constant at its place of use")


def _is_dataclass(node: ast.AST) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        (_callee(decorator) if isinstance(decorator, ast.Call) else
         decorator.id if isinstance(decorator, ast.Name) else
         decorator.attr if isinstance(decorator, ast.Attribute) else None)
        == "dataclass" for decorator in node.decorator_list)


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


def _unset_fields(program: Dict[str, ast.Module],
                  checked: Dict[str, str], scan: _Scan
                  ) -> Iterator[Tuple[str, RawFinding]]:
    replaced: Set[str] = set()
    for call in scan.calls.get("replace", ()):
        replaced |= _keywords(call, scan)
    for module, path in checked.items():
        for qualname, node in _definitions(program[path]):
            if not _is_dataclass(node):
                continue
            calls = scan.calls.get(node.name, [])
            fields = [statement for statement in node.body
                      if isinstance(statement, ast.AnnAssign)
                      and isinstance(statement.target, ast.Name)]
            for index, statement in enumerate(fields):
                name = statement.target.id
                default = statement.value
                if default is None or _accumulator(default) \
                        or name in replaced or name in scan.stores \
                        or _sets(calls, name, index, scan):
                    continue
                yield path, (
                    statement.lineno, statement.col_offset, "RCH604",
                    f"{module}:{qualname}.{name} is set by no program "
                    "code; make its default a named constant at its place "
                    "of use")
