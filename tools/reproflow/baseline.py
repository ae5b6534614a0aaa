"""Baseline files: freeze known findings, fail only on new ones.

A baseline is a JSON multiset of ``(path, rule, line-text)`` fingerprints.
Line *numbers* are deliberately excluded — inserting a docstring above an
old violation must not make it "new" — but the offending line's stripped
source text is included, so editing a baselined line re-surfaces it.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Counter as CounterType
from typing import List, Tuple

from reproflow.findings import Finding

FingerprintKey = Tuple[str, str, str]


def fingerprint(finding: Finding) -> FingerprintKey:
    return (finding.path.replace("\\", "/"), finding.rule, finding.text)


def write_baseline(path: str, findings: List[Finding]) -> None:
    entries = [{"path": f.path.replace("\\", "/"), "rule": f.rule,
                "text": f.text}
               for f in sorted(findings, key=fingerprint)]
    payload = {"version": 1, "findings": entries}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_baseline(path: str) -> "CounterType[FingerprintKey]":
    """Multiset of baselined fingerprints."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    counter: CounterType[FingerprintKey] = Counter()
    for entry in payload.get("findings", ()):
        counter[(entry["path"], entry["rule"], entry["text"])] += 1
    return counter


def filter_new(findings: List[Finding],
               baselined: "CounterType[FingerprintKey]") -> List[Finding]:
    """Findings not covered by the baseline multiset."""
    budget = Counter(baselined)
    new: List[Finding] = []
    for finding in findings:
        key = fingerprint(finding)
        if budget[key] > 0:
            budget[key] -= 1
        else:
            new.append(finding)
    return new
