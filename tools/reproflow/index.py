"""Pass 1: the project-wide symbol index.

Walks every target module once and records what pass 2's semantic rules
need to reason *across* files:

* :class:`ClassSchema` — for each class, its constructor surface: dataclass
  fields (with units inferred from name suffixes) or ``__init__``
  parameters, and base classes (merged on demand);
* :class:`FuncSchema` — module-level functions and methods, with per-
  parameter units;
* the attributes that hold sets, which pass 3's ORD family reads.

Names are indexed *unqualified* (call sites rarely carry module paths);
when two definitions of the same name disagree, the entry is marked
ambiguous and pass 2 skips it rather than guess — a project-wide analysis
must never cry wolf on a name it cannot resolve.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from reproflow.units import unit_of_identifier


@dataclass
class ParamInfo:
    """One formal parameter (or dataclass field used positionally)."""

    name: str
    unit: Optional[str] = None


@dataclass
class FuncSchema:
    """Signature of one function or method."""

    name: str
    module: str
    #: positional-capable parameters in order (``self`` already dropped)
    positional: List[ParamInfo] = field(default_factory=list)
    #: every keyword-addressable parameter name -> unit
    param_units: Dict[str, Optional[str]] = field(default_factory=dict)
    has_var_positional: bool = False
    has_var_keyword: bool = False
    ambiguous: bool = False

    def signature_key(self) -> tuple:
        return (tuple(p.name for p in self.positional),
                tuple(sorted(self.param_units)),
                self.has_var_positional, self.has_var_keyword)


@dataclass
class ClassSchema:
    """Constructor surface of one class."""

    name: str
    module: str
    is_dataclass: bool = False
    #: keyword-addressable constructor names -> unit (dataclass fields,
    #: or ``__init__`` parameters for plain classes)
    fields: Dict[str, Optional[str]] = field(default_factory=dict)
    #: positional order of the above (dataclass field order / param order)
    order: List[str] = field(default_factory=list)
    bases: List[str] = field(default_factory=list)
    has_var_keyword: bool = False
    #: plain class without a visible ``__init__`` — constructor surface
    #: unknown, never resolved
    opaque: bool = False
    ambiguous: bool = False

    def schema_key(self) -> tuple:
        return (tuple(self.order), tuple(sorted(self.fields)),
                self.is_dataclass, self.has_var_keyword, self.opaque)


@dataclass
class ProjectIndex:
    """Everything pass 2 needs for cross-module resolution."""

    classes: Dict[str, ClassSchema] = field(default_factory=dict)
    functions: Dict[str, FuncSchema] = field(default_factory=dict)
    methods: Dict[str, FuncSchema] = field(default_factory=dict)
    #: instance-attribute names that hold a ``set``/``frozenset`` anywhere
    #: in the project (``self.x = set()`` or a ``Set[...]`` annotation) —
    #: pass 3's ORD family treats loads of these as unordered
    set_attributes: Set[str] = field(default_factory=set)

    # -- resolution helpers -------------------------------------------

    def resolve_class(self, name: str) -> Optional[ClassSchema]:
        schema = self.classes.get(name)
        if schema is None or schema.ambiguous or schema.opaque:
            return None
        return schema

    def resolve_function(self, name: str) -> Optional[FuncSchema]:
        schema = self.functions.get(name)
        if schema is None or schema.ambiguous:
            return None
        return schema

    def resolve_method(self, name: str) -> Optional[FuncSchema]:
        schema = self.methods.get(name)
        if schema is None or schema.ambiguous:
            return None
        return schema

    def constructor_fields(self, schema: ClassSchema,
                           _seen: Optional[Set[str]] = None
                           ) -> Dict[str, Optional[str]]:
        """Constructor surface including inherited dataclass fields."""
        seen = _seen if _seen is not None else set()
        seen.add(schema.name)
        merged: Dict[str, Optional[str]] = {}
        for base_name in schema.bases:
            if base_name in seen:
                continue
            base = self.classes.get(base_name)
            if base is not None and not base.ambiguous and not base.opaque:
                merged.update(self.constructor_fields(base, seen))
        merged.update(schema.fields)
        return merged


def _decorator_name(node: ast.AST) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    parts: List[str] = []
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if isinstance(target, ast.Name):
        parts.append(target.id)
    return parts[0] if parts else ""


def _is_classvar(annotation: ast.AST) -> bool:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr == "ClassVar"
    return isinstance(node, ast.Name) and node.id == "ClassVar"


def _func_schema(func: ast.FunctionDef, module: str,
                 is_method: bool) -> FuncSchema:
    args = func.args
    schema = FuncSchema(name=func.name, module=module)
    positional = list(args.posonlyargs) + list(args.args)
    if is_method and positional:
        positional = positional[1:]           # drop self/cls
    for arg in positional:
        info = ParamInfo(arg.arg, unit_of_identifier(arg.arg))
        schema.positional.append(info)
        schema.param_units[arg.arg] = info.unit
    for arg in args.kwonlyargs:
        schema.param_units[arg.arg] = unit_of_identifier(arg.arg)
    schema.has_var_positional = args.vararg is not None
    schema.has_var_keyword = args.kwarg is not None
    return schema


def _class_schema(cls: ast.ClassDef, module: str) -> ClassSchema:
    schema = ClassSchema(name=cls.name, module=module)
    schema.is_dataclass = any(
        _decorator_name(d) == "dataclass" for d in cls.decorator_list)
    schema.bases = [base_name for base in cls.bases
                    if (base_name := _base_name(base))]
    init: Optional[ast.FunctionDef] = None
    for stmt in cls.body:
        if schema.is_dataclass and isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and not _is_classvar(stmt.annotation):
            name = stmt.target.id
            schema.fields[name] = unit_of_identifier(name)
            schema.order.append(name)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and stmt.name == "__init__":
            init = stmt if isinstance(stmt, ast.FunctionDef) else None
    if not schema.is_dataclass:
        if init is not None:
            init_schema = _func_schema(init, module, is_method=True)
            schema.fields = dict(init_schema.param_units)
            schema.order = [p.name for p in init_schema.positional]
            schema.has_var_keyword = init_schema.has_var_keyword
        else:
            schema.opaque = True
    return schema


def _base_name(base: ast.AST) -> Optional[str]:
    node = base
    while isinstance(node, ast.Subscript):   # Generic[T] and friends
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def build_index(trees: Dict[str, ast.Module]) -> ProjectIndex:
    """Pass 1: index every module in ``trees`` (path -> parsed AST)."""
    index = ProjectIndex()
    for path in sorted(trees):
        tree = trees[path]
        _index_module(index, path, tree)
    return index


def _index_module(index: ProjectIndex, path: str, tree: ast.Module) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            schema = _class_schema(node, path)
            _insert_class(index, schema)
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) \
                        and not stmt.name.startswith("__"):
                    _insert_method(index,
                                   _func_schema(stmt, path, is_method=True))
            _collect_set_attributes(index, node)

    # Module-level functions only (methods were handled above).
    class_members = {id(stmt)
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef)
                     for stmt in node.body}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and id(node) not in class_members:
            _insert_function(index, _func_schema(node, path, is_method=False))


_SET_ANNOTATION_NAMES = {"Set", "FrozenSet", "MutableSet", "set",
                         "frozenset", "AbstractSet"}


def _is_set_annotation(annotation: Optional[ast.AST]) -> bool:
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATION_NAMES
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATION_NAMES


def _is_set_valued(value: Optional[ast.AST]) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in ("set", "frozenset")
    return False


def _collect_set_attributes(index: ProjectIndex, cls: ast.ClassDef) -> None:
    """Record attribute names bound to sets (annotation or assignment)."""
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and _is_set_annotation(stmt.annotation):
            index.set_attributes.add(stmt.target.id)
    for node in ast.walk(cls):
        target: Optional[ast.AST] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if _is_set_valued(node.value) and isinstance(target,
                                                         ast.Attribute):
                index.set_attributes.add(target.attr)
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Attribute) \
                and _is_set_annotation(node.annotation):
            index.set_attributes.add(node.target.attr)


def _insert_class(index: ProjectIndex, schema: ClassSchema) -> None:
    existing = index.classes.get(schema.name)
    if existing is None:
        index.classes[schema.name] = schema
    elif existing.module != schema.module \
            and existing.schema_key() != schema.schema_key():
        existing.ambiguous = True


def _insert_function(index: ProjectIndex, schema: FuncSchema) -> None:
    existing = index.functions.get(schema.name)
    if existing is None:
        index.functions[schema.name] = schema
    elif existing.module != schema.module \
            and existing.signature_key() != schema.signature_key():
        existing.ambiguous = True


def _insert_method(index: ProjectIndex, schema: FuncSchema) -> None:
    existing = index.methods.get(schema.name)
    if existing is None:
        index.methods[schema.name] = schema
    elif existing.signature_key() != schema.signature_key():
        existing.ambiguous = True
