"""The finding record, inline suppressions, and output formats.

A finding on line *n* is suppressed when line *n* carries a comment of
the form::

    something()   # reproflow: disable=DET001
    something()   # reproflow: disable=UNT001,OBS001
    something()   # reproflow: disable=all

Every disable comment on a line counts: ``# reproflow: disable=GEN101  #
reproflow: disable=DET002`` silences both rules.  Suppressions are deliberately line-scoped (the flagged statement's first
physical line) so that every exception is visible right where the rule
fires — there is no file- or block-level escape hatch.  They and the
directory exemptions of :mod:`reproflow.policy` are the only two ways a
finding is silenced.

``--format=json`` is a stable machine-readable dump for other tooling;
it includes every finding the text format would.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import IO, Dict, List, Sequence, Set

FORMATS = ("text", "json")

_DISABLE = re.compile(
    r"#\s*reproflow:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    path: str
    rule: str
    line: int
    col: int
    message: str
    #: stripped source text of the offending line (in the json output)
    text: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: " \
               f"{self.rule} {self.message}"


def parse_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the set of rule ids disabled there.

    The special id ``all`` disables every rule on that line; several
    disable comments on one line add up.
    """
    suppressions: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        rules = {part.strip() for match in _DISABLE.finditer(line)
                 for part in match.group(1).split(",")}
        if rules:
            suppressions[lineno] = rules
    return suppressions


def is_suppressed(suppressions: Dict[int, Set[str]],
                  lineno: int, rule: str) -> bool:
    """True if ``rule`` is disabled on ``lineno``."""
    disabled = suppressions.get(lineno)
    if not disabled:
        return False
    return rule in disabled or "all" in disabled


def emit(findings: List[Finding], fmt: str, summary: str,
         out: "IO[str]") -> None:
    """Write ``findings`` to ``out`` in ``fmt``, ending with ``summary``.

    The summary line is always present on text output (CI logs and
    humans both key off it); json folds it into the payload instead.
    """
    if fmt == "json":
        payload = {
            "tool": "reproflow",
            "summary": summary,
            "count": len(findings),
            "findings": [
                {"path": f.path.replace("\\", "/"), "rule": f.rule,
                 "line": f.line, "col": f.col + 1, "message": f.message,
                 "text": f.text}
                for f in findings],
        }
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
        return
    for finding in findings:
        print(finding.render(), file=out)
    print(summary, file=out)
