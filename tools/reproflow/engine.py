"""Driver: parse everything once, build the call graph, then analyze.

One parse feeds every rule: the :class:`CallGraph` (with effect
summaries propagated to fixpoint) is built on the *same* trees that the
per-file DET/GEN/OBS/UNT rules, the pass-3 analyzer and the RCH family
read — ``make lint`` pays for the filesystem walk and parsing exactly
once no matter how many rules run.

``analyze_paths`` always folds ``src/`` and the program roots
(``examples/``, ``benchmarks/``, ``bench/``) into the one parse (when
they exist) even if only a subset of files was asked for — cross-module
resolution is the whole point: a runner task defined in ``src/repro``
and submitted from a test is still followed into its callees, and the
RCH family (:mod:`reproflow.reach`) asks what the program reaches.
PARSE and rule findings are only *reported* for the files actually
requested.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from reproflow.callgraph import CallGraph, build_callgraph
from reproflow.dataflow import Pass3Analyzer, Summaries, propagate_effects
from reproflow.filerules import check_file
from reproflow.findings import Finding, is_suppressed, parse_suppressions
from reproflow.policy import DEFAULT_POLICY
from reproflow.reach import (PROGRAM_ROOTS, RCH_RULES, RawFinding,
                             reachability, stale_disables)
from reproflow.rules import ALL_RULES

__all__ = ["Finding", "analyze_paths", "analyze_source"]


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("__pycache__", ".git"))
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            out.append(path)
    return sorted(set(out))


def _parse(source: str, path: str
           ) -> Tuple[Optional[ast.Module], Optional[Finding]]:
    try:
        return ast.parse(source, filename=path), None
    except SyntaxError as exc:
        return None, Finding(path=path, rule="PARSE", line=exc.lineno or 1,
                             col=(exc.offset or 1) - 1,
                             message=f"syntax error: {exc.msg}", text="")


def _analyze_tree(path: str, tree: ast.Module, source: str,
                  selected: Set[str],
                  graph: CallGraph, summaries: Summaries,
                  reach: Dict[str, List[RawFinding]]) -> List[Finding]:
    lines = source.splitlines()
    suppressions = parse_suppressions(lines)
    raw = check_file(tree, path, graph.imports[path], selected)
    raw += Pass3Analyzer(path, graph, summaries).analyze(tree)
    family = reach.get(path)
    kept = [finding for finding in raw + (family or [])
            if finding[2] in selected
            and not is_suppressed(suppressions, finding[0], finding[2])]
    if family is not None:
        # a disable of the family that silences nothing is a finding,
        # which that same disable cannot silence
        kept += stale_disables(suppressions, family, selected)
    findings: List[Finding] = []
    for lineno, col, rule_id, message in kept:
        text = lines[lineno - 1].strip() if lineno <= len(lines) else ""
        findings.append(Finding(path=path, rule=rule_id, line=lineno,
                                col=col, message=message, text=text))
    return findings


def _selection(rules: Optional[Sequence[str]]) -> Set[str]:
    return set(rules) if rules is not None else set(ALL_RULES)


def analyze_source(source: str, path: str,
                   rules: Optional[Sequence[str]] = None,
                   extra: Optional[Dict[str, str]] = None) -> List[Finding]:
    """Analyze one file's source text (unit-test entry point).

    ``extra`` maps path -> source for additional modules that should be
    part of the call graph (callees and task roots defined "elsewhere")
    without being analyzed themselves.
    """
    tree, parse_error = _parse(source, path)
    if parse_error is not None:
        return [parse_error]
    assert tree is not None
    trees: Dict[str, ast.Module] = {path: tree}
    for extra_path, extra_source in (extra or {}).items():
        extra_tree, _ = _parse(extra_source, extra_path)
        if extra_tree is not None:
            trees[extra_path] = extra_tree
    graph = build_callgraph(trees)
    summaries = propagate_effects(graph)
    selected = _selection(rules)
    reach = reachability(trees, graph.imports) \
        if RCH_RULES & selected else {}
    findings = _analyze_tree(path, tree, source, selected,
                             graph, summaries, reach)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def analyze_paths(paths: Iterable[str],
                  rules: Optional[Sequence[str]] = None) -> List[Finding]:
    """Analyze every ``.py`` file under ``paths`` against a project-wide
    call graph that always includes ``src/`` and the program roots when
    present, dropping findings the
    :data:`~reproflow.policy.DEFAULT_POLICY` exempts."""
    targets = list(iter_python_files(paths))
    target_set = set(targets)
    # by real path, so `./src/` or an absolute target is not parsed twice
    seen = {os.path.realpath(path) for path in targets}

    def fold(roots: Sequence[str]) -> List[str]:
        return [path for path in iter_python_files(
                    [root for root in roots if os.path.isdir(root)])
                if os.path.realpath(path) not in seen]

    graph_files = targets + fold(["src"])
    # program files feed the RCH family alone, so a definition in bench/
    # cannot make a src name ambiguous to the other passes
    program_only = fold(PROGRAM_ROOTS)

    sources: Dict[str, str] = {}
    trees: Dict[str, ast.Module] = {}
    parse_findings: List[Finding] = []
    for path in graph_files + program_only:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                sources[path] = handle.read()
        except OSError:
            continue
        tree, parse_error = _parse(sources[path], path)
        if tree is not None:
            trees[path] = tree
        elif parse_error is not None and path in target_set:
            parse_findings.append(parse_error)

    program = {path: trees.pop(path) for path in program_only
               if path in trees}
    graph = build_callgraph(trees)
    summaries = propagate_effects(graph)
    selected = _selection(rules)
    reach = reachability({**trees, **program}, graph.imports) \
        if RCH_RULES & selected else {}
    findings = list(parse_findings)
    for path in targets:
        if path not in trees:
            continue
        findings.extend(
            _analyze_tree(path, trees[path], sources[path], selected,
                          graph, summaries, reach))
    findings = [f for f in findings
                if not DEFAULT_POLICY.exempt(f.path, f.rule)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
