"""Annotation-completeness gate for the packages ``mypy.ini`` gates.

``make typecheck`` runs mypy over ``src/repro``; every ``mypy.ini``
section that sets ``disallow_untyped_defs = True`` (the strict and
strict-lite profiles) names a package or module it holds to full
annotation.  mypy is an optional dev dependency; this test is the
always-on proxy that keeps those modules fully annotated, so a strict
mypy run never regresses silently on machines without it.  It reads the
gated set from ``mypy.ini`` itself, so the two cannot drift.

Every function and method in a gated module must annotate every
parameter (``self``/``cls``/``*args``/``**kwargs`` positions included
once named) and its return type.  Nested helper functions and lambdas
are exempt — mypy infers those.
"""

from __future__ import annotations

import ast
import configparser
from pathlib import Path
from typing import List

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


def _gated_patterns() -> List[str]:
    """The module patterns (``repro.core.*``, ``repro.analysis.sketch``)
    of the ``mypy.ini`` sections that set ``disallow_untyped_defs``."""
    config = configparser.ConfigParser()
    config.read(REPO / "mypy.ini")
    return [section[len("mypy-"):] for section in config.sections()
            if section.startswith("mypy-repro.")
            and config.getboolean(section, "disallow_untyped_defs",
                                  fallback=False)]


def _files(pattern: str) -> List[Path]:
    """The source files a mypy module pattern covers."""
    parts = pattern.split(".")[1:]
    if parts[-1] == "*":
        return sorted(SRC.joinpath(*parts[:-1]).rglob("*.py"))
    return [SRC.joinpath(*parts).with_suffix(".py")]


GATED_PATTERNS = _gated_patterns()

STRICT_FILES = sorted({path for pattern in GATED_PATTERNS
                       for path in _files(pattern)})


def _module_scope_functions(tree: ast.Module):
    """(owner, func) pairs for module-level functions and class methods —
    nested functions are skipped (mypy infers them under --strict)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield "<module>", node
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, stmt


def _missing_annotations(owner: str, func: ast.FunctionDef):
    args = func.args
    params = list(args.posonlyargs) + list(args.args)
    if owner != "<module>" and params:
        params = params[1:]                      # self / cls
    params += list(args.kwonlyargs)
    if args.vararg is not None:
        params.append(args.vararg)
    if args.kwarg is not None:
        params.append(args.kwarg)
    for param in params:
        if param.annotation is None:
            yield f"parameter '{param.arg}'"
    if func.returns is None and func.name != "__init__":
        yield "return type"


def test_strict_packages_exist():
    assert "repro.analysis.sketch" in GATED_PATTERNS
    for pattern in GATED_PATTERNS:
        assert all(path.is_file() for path in _files(pattern)) \
            and _files(pattern), f"no python files for {pattern}"


@pytest.mark.parametrize(
    "path", STRICT_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_strict_functions_fully_annotated(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for owner, func in _module_scope_functions(tree):
        for gap in _missing_annotations(owner, func):
            problems.append(
                f"{path.name}:{func.lineno} {owner}.{func.name}: "
                f"missing annotation for {gap}")
    assert not problems, "\n" + "\n".join(problems)
