"""Tests for reproflow's reporting machinery (``reproflow.findings``,
``baseline`` and ``policy``): findings, inline suppressions, baselines,
path policies and the output formatters.
"""

import io
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from reproflow.baseline import filter_new, load_baseline, write_baseline  # noqa: E402
from reproflow.findings import (Finding, emit, is_suppressed,             # noqa: E402
                                parse_suppressions, render_github)
from reproflow.policy import PathPolicy                                   # noqa: E402


def make_finding(path="src/a.py", rule="X001", line=3, col=4,
                 message="bad thing", text="x = 1"):
    return Finding(path=path, rule=rule, line=line, col=col,
                   message=message, text=text)


# -------------------------------------------------------- suppressions

def test_suppression_disable_all():
    sup = parse_suppressions(["z = 1  # reproflow: disable=all"])
    assert is_suppressed(sup, 1, "ANY999")


# ------------------------------------------------------------ baseline

def test_baseline_fingerprint_survives_line_shift(tmp_path):
    baseline_path = tmp_path / "bl.json"
    original = make_finding(line=3)
    write_baseline(str(baseline_path), [original])
    shifted = make_finding(line=30)        # same path/rule/text
    assert filter_new([shifted], load_baseline(str(baseline_path))) == []
    edited = make_finding(text="x = 2")    # text changed: new finding
    assert filter_new([edited],
                      load_baseline(str(baseline_path))) == [edited]


def test_baseline_is_a_multiset(tmp_path):
    baseline_path = tmp_path / "bl.json"
    write_baseline(str(baseline_path), [make_finding(line=3)])
    two = [make_finding(line=3), make_finding(line=7)]
    remaining = filter_new(two, load_baseline(str(baseline_path)))
    assert len(remaining) == 1             # only one occurrence absorbed


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


def test_path_policy_file_entry_exact_match():
    policy = PathPolicy((("tests/conftest.py", ("A001",)),))
    assert policy.exempt("tests/conftest.py", "A001")
    assert policy.exempt("/root/repo/tests/conftest.py", "A001")
    # Other files in the same directory are not covered...
    assert not policy.exempt("tests/test_x.py", "A001")
    # ...and neither is a file whose name merely ends the same way.
    assert not policy.exempt("tests/my_conftest.py", "A001")


def test_path_policy_empty_and_describe():
    assert not PathPolicy().exempt("src/a.py", "A001")
    described = PathPolicy((("tests/", ("B001", "A001")),
                            ("tests/conftest.py", ("C001",)))).describe()
    assert "tests/  exempt: A001, B001" in described
    assert "tests/conftest.py  exempt: C001" in described


def test_baseline_fingerprint_stable_under_reindent_only(tmp_path):
    # The fingerprint uses the *stripped* line text, so a pure
    # re-indent (e.g. wrapping the line in an if-block) stays baselined
    # when the analyzer strips text consistently.
    baseline_path = tmp_path / "bl.json"
    write_baseline(str(baseline_path), [make_finding(text="x = 1")])
    moved = make_finding(line=90, text="x = 1")
    assert filter_new([moved], load_baseline(str(baseline_path))) == []


def test_baseline_counts_duplicate_fingerprints(tmp_path):
    # Two identical lines baselined -> two occurrences absorbed, a
    # third is new (the multiset keeps exact counts, not a set).
    baseline_path = tmp_path / "bl.json"
    write_baseline(str(baseline_path),
                   [make_finding(line=3), make_finding(line=9)])
    three = [make_finding(line=3), make_finding(line=9),
             make_finding(line=12)]
    remaining = filter_new(three, load_baseline(str(baseline_path)))
    assert len(remaining) == 1


def test_baseline_distinguishes_rule_and_path(tmp_path):
    baseline_path = tmp_path / "bl.json"
    write_baseline(str(baseline_path), [make_finding()])
    other_rule = make_finding(rule="X002")
    other_path = make_finding(path="src/b.py")
    baselined = load_baseline(str(baseline_path))
    assert filter_new([other_rule], baselined) == [other_rule]
    assert filter_new([other_path], baselined) == [other_path]


def test_baseline_roundtrip_is_deterministic(tmp_path):
    # write_baseline sorts entries, so the same findings in any order
    # produce byte-identical baseline files (diff-stable in review).
    findings = [make_finding(line=9, text="b"),
                make_finding(line=3, text="a"),
                make_finding(path="src/b.py", text="c")]
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    write_baseline(str(path_a), findings)
    write_baseline(str(path_b), list(reversed(findings)))
    assert path_a.read_text() == path_b.read_text()


# -------------------------------------------------------------- output

def test_render_github_workflow_command():
    rendered = render_github(make_finding())
    assert rendered.startswith("::error file=src/a.py,line=3,col=5,")
    assert "title=X001" in rendered


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
