"""Command-line front end: ``python -m reproflow src/ tools/ tests/``.

Exit status: 0 when no findings, 1 when violations were found, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO, List, Optional

from reproflow.engine import analyze_paths
from reproflow.findings import FORMATS, emit
from reproflow.policy import DEFAULT_POLICY
from reproflow.rules import ALL_RULES, rule_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reproflow",
        description="Static analysis for the DiversiFi simulator: "
                    "per-file determinism rules plus project-wide units, "
                    "dataflow, runner-safety and reachability passes on "
                    "one shared parse.")
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories to lint (default: src/)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--format", default="text", choices=FORMATS,
                        dest="fmt",
                        help="output format: text (default) or json")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and path exemptions, "
                             "then exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-finding output")
    return parser


def main(argv: Optional[List[str]] = None,
         out: "IO[str]" = sys.stdout) -> int:
    """Parse ``argv`` and run the analysis end to end."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(rule_table(), file=out)
        print("\npath exemptions:\n" + DEFAULT_POLICY.describe(), file=out)
        return 0

    paths = args.paths or ["src/"]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"reproflow: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    rules: Optional[List[str]] = None
    if args.select is not None:
        rules = [r.strip() for r in args.select.split(",") if r.strip()]
        if not rules:
            print("reproflow: --select names no rule", file=sys.stderr)
            return 2
        unknown = [r for r in rules if r not in ALL_RULES]
        if unknown:
            print(f"reproflow: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    findings = analyze_paths(paths, rules=rules)
    checked = "all rules" if rules is None else ",".join(rules)
    summary = f"reproflow: {len(findings)} finding(s) ({checked})"
    if args.quiet:
        print(summary, file=out)
    else:
        emit(findings, args.fmt, summary, out)
    return 1 if findings else 0
