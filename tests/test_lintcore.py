"""Tests for reproflow's reporting machinery (``reproflow.findings`` and
``policy``): findings, inline suppressions, path policies and the output
formatters.
"""

import io
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from reproflow.findings import (Finding, emit, is_suppressed,             # noqa: E402
                                parse_suppressions)
from reproflow.policy import PathPolicy                                   # noqa: E402


def make_finding(path="src/a.py", rule="X001", line=3, col=4,
                 message="bad thing", text="x = 1"):
    return Finding(path=path, rule=rule, line=line, col=col,
                   message=message, text=text)


# -------------------------------------------------------- suppressions

def test_suppression_disable_all():
    sup = parse_suppressions(["z = 1  # reproflow: disable=all"])
    assert is_suppressed(sup, 1, "ANY999")


def test_suppression_reads_every_disable_comment_on_a_line():
    sup = parse_suppressions([
        "t = time.time()  # reproflow: disable=GEN101  "
        "# reproflow: disable=DET002,DET001"])
    for rule in ("GEN101", "DET002", "DET001"):
        assert is_suppressed(sup, 1, rule), rule
    assert not is_suppressed(sup, 1, "OBS001")


# -------------------------------------------------------------- policy

def test_path_policy_prefix_scoping():
    policy = PathPolicy((("tests/", ("A001",)),))
    assert policy.exempt("tests/test_x.py", "A001")
    assert not policy.exempt("tests/test_x.py", "B001")
    assert not policy.exempt("src/a.py", "A001")


def test_path_policy_matches_absolute_paths():
    policy = PathPolicy((("tests/", ("A001",)),))
    assert policy.exempt("/root/repo/tests/test_x.py", "A001")


def test_path_policy_normalizes_prefix_slashes():
    # "tests" and "tests/" are the same entry; backslash paths match.
    for prefix in ("tests", "tests/"):
        policy = PathPolicy(((prefix, ("A001",)),))
        assert policy.exempt("tests/test_x.py", "A001")
        assert policy.exempt("repo\\tests\\test_x.py", "A001")


def test_path_policy_prefix_is_a_component_not_a_substring():
    # "tests/" must match as a directory component: a sibling directory
    # that merely *starts* with the same letters stays covered by rules.
    policy = PathPolicy((("tests/", ("A001",)),))
    assert not policy.exempt("latests/test_x.py", "A001")
    assert not policy.exempt("src/latests/x.py", "A001")
    assert policy.exempt("nested/tests/x.py", "A001")


def test_path_policy_nested_prefix_scoping():
    policy = PathPolicy((("src/repro/runner/", ("A001",)),))
    assert policy.exempt("src/repro/runner/cache.py", "A001")
    assert not policy.exempt("src/repro/studies/provider.py", "A001")


def test_path_policy_union_across_overlapping_entries():
    # Overlapping entries union their rule sets: an empty narrow entry
    # does not mask a broader exemption, it only documents a decision.
    policy = PathPolicy((("src/repro/runner/", ()),
                         ("src/", ("A001",))))
    assert policy.exempt("src/repro/runner/cache.py", "A001")
    assert not policy.exempt("src/repro/runner/cache.py", "B001")


def test_path_policy_empty_and_describe():
    assert not PathPolicy().exempt("src/a.py", "A001")
    described = PathPolicy((("tests/", ("B001", "A001")),
                            ("tools", ("C001",)))).describe()
    assert "tests/  exempt: A001, B001" in described
    assert "tools/  exempt: C001" in described


# -------------------------------------------------------------- output

def test_emit_json_payload():
    out = io.StringIO()
    emit([make_finding()], "json", "summary", out)
    payload = json.loads(out.getvalue())
    assert payload["tool"] == "reproflow"
    assert payload["count"] == 1
    assert payload["findings"][0]["path"] == "src/a.py"
    assert payload["findings"][0]["line"] == 3


def test_emit_text_includes_summary():
    out = io.StringIO()
    emit([make_finding()], "text", "the-summary", out)
    assert "src/a.py:3:5: X001 bad thing" in out.getvalue()
    assert "the-summary" in out.getvalue()


def test_only_reproflow_disable_comments_suppress():
    sup = parse_suppressions(["x = 1  # reprolint: disable=DET001",
                              "y = 2  # reproflow: disable=DET001"])
    assert not is_suppressed(sup, 1, "DET001")
    assert is_suppressed(sup, 2, "DET001")
