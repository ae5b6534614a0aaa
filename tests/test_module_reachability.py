"""Every module under ``src/repro`` must be reached by the program.

The program is ``python -m repro`` plus ``examples/``, ``benchmarks/``
and ``bench/``.  A module is reached when one of those files, or a
reached ``src`` module, imports it or a name it defines: directly,
through a package's re-export, or as ``package.name`` after importing
the package.  The package ``__init__`` files' own re-exports do not
count, and neither do the tests.  A module reached only from tests is a
second implementation no artifact runs; delete it rather than keep it
alive through its tests.
"""

import ast
import sys
from pathlib import Path
from typing import Dict, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from reproflow.callgraph import ImportInfo, dotted_module_name   # noqa: E402

#: the program outside ``src``: everything these import is reached
PROGRAM_ROOTS = ("examples", "benchmarks", "bench")
#: ``python -m repro``: reached by design, though nothing imports it
ENTRY_MODULE = "repro.__main__"


def _modules() -> Dict[str, Path]:
    return {dotted_module_name(str(path.relative_to(REPO))): path
            for path in sorted((REPO / "src" / "repro").rglob("*.py"))}


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


def _reached_modules(modules: Dict[str, Path]) -> Set[str]:
    """Modules reached from the entry points, transitively: an import
    counts only when the importing ``src`` module is reached itself."""
    reexports = _reexports(modules)
    frontier = [path for root in PROGRAM_ROOTS
                for path in sorted((REPO / root).rglob("*.py"))]
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
    modules = _modules()
    reached = _reached_modules(modules)
    unreached = sorted(
        module for module, path in modules.items()
        if path.name != "__init__.py" and module != ENTRY_MODULE
        and module not in reached)
    assert unreached == [], (
        "modules that neither `python -m repro`, examples/, benchmarks/ "
        f"nor bench/ reach through imports: {unreached}")
