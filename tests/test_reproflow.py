"""Tests for the unit rule and the CLI of ``tools/reproflow``.

UNT001 gets triggering, clean, and suppressed fixtures plus focused
tests of its unit algebra; an import alias is shown to drop its
call-graph edge; and the real CLI is run over ``src/`` (must be clean),
over seeded violations (must fail), in its output formats and on bad
usage.
"""

import json
import sys
import textwrap
from pathlib import Path

import pytest

from tests.test_reprolint import repo_findings, run_cli

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from reproflow.engine import analyze_source                  # noqa: E402
from reproflow.rules import ALL_RULES                        # noqa: E402


def analyze(source, path="pkg/module.py", rules=None):
    return analyze_source(textwrap.dedent(source), path, rules=rules)


def rule_ids(findings):
    return [f.rule for f in findings]


# ------------------------------------------------------------------
# Per-family fixtures: (trigger source, clean source, suppressed source).
# ------------------------------------------------------------------

FAMILY_FIXTURES = {
    "UNT": (
        """
        def jitter(a_ms, b_s):
            return a_ms + b_s
        """,
        """
        def jitter(a_ms, b_s):
            return a_ms + b_s * 1000.0
        """,
        """
        def jitter(a_ms, b_s):
            return a_ms + b_s  # reproflow: disable=UNT001
        """,
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILY_FIXTURES))
def test_family_triggers(family):
    trigger, _, _ = FAMILY_FIXTURES[family]
    found = rule_ids(analyze(trigger))
    assert any(r.startswith(family) for r in found), found


@pytest.mark.parametrize("family", sorted(FAMILY_FIXTURES))
def test_family_clean(family):
    _, clean, _ = FAMILY_FIXTURES[family]
    assert analyze(clean) == []


@pytest.mark.parametrize("family", sorted(FAMILY_FIXTURES))
def test_family_suppressed_inline(family):
    _, _, suppressed = FAMILY_FIXTURES[family]
    assert analyze(suppressed) == []


# ------------------------------------------------------------------ UNT

def test_unt001_comparison():
    found = analyze("""
    def late(deadline_ms, elapsed_s):
        return elapsed_s > deadline_ms
    """)
    assert rule_ids(found) == ["UNT001"]


def test_unt001_conversion_factors_are_clean():
    assert analyze("""
    def convert(one_way_delay_s, d_ms):
        a_ms = max(one_way_delay_s, 0.0) * 1000.0
        b_s = d_ms / 1000.0
        c_s = d_ms * 0.001
        return a_ms + d_ms, b_s + c_s
    """) == []


def test_unt001_dbm_plus_db_is_legal_rf_math():
    assert analyze("""
    def rssi(base_dbm, fade_db, penalty_db):
        return base_dbm + fade_db - penalty_db
    """) == []


def test_unt001_learns_units_through_locals():
    found = analyze("""
    def gap(config, gap_ms):
        spacing = config.inter_packet_spacing_s
        return gap_ms + spacing
    """)
    assert rule_ids(found) == ["UNT001"]


# ------------------------------------------------------ name resolution

def test_import_alias_is_not_resolved():
    # `from x import other as helper` makes the local name a stranger to
    # the project-wide `helper`: the call graph drops the edge, so the
    # helper's module-state write never reaches the task.
    helper = "STATE = []\n\ndef helper():\n    STATE.append(1)\n"
    task = textwrap.dedent("""
        from somewhere import other as helper

        def task(seed, config=None):
            return helper()

        def submit(runner, configs):
            return runner.map_task("pkg.module:task", configs)
        """)

    def lint(source):
        return rule_ids(analyze_source(source, "pkg/module.py",
                                       extra={"core/state.py": helper}))

    assert lint(task) == []
    assert lint(task.replace("from somewhere import other as helper\n",
                             "")) == ["PUR101"]


# ----------------------------------------------------------------- CLI

UNIT_VIOLATION = "def f(a_ms, b_s):\n    return a_ms + b_s\n"


def test_cli_clean_on_repo_source_tree():
    """`python -m reproflow src/` over the real tree: zero findings (the
    acceptance criterion for this subsystem), read off the one
    whole-tree lint."""
    assert repo_findings(path_prefix="src/") == []


def test_cli_fails_on_seeded_unit_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(UNIT_VIOLATION)
    result = run_cli(str(bad), cwd=tmp_path)
    assert result.returncode == 1
    assert "UNT001" in result.stdout


def test_cli_select_restricts_rules(tmp_path):
    """A project-wide rule selected alone ignores the other family's
    violation."""
    bad = tmp_path / "bad.py"
    bad.write_text(UNIT_VIOLATION)
    result = run_cli(str(bad), "--select", "FLO002", cwd=tmp_path)
    assert result.returncode == 0


def test_cli_json_format(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(UNIT_VIOLATION)
    result = run_cli(str(bad), "--format=json", cwd=tmp_path)
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["tool"] == "reproflow"
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "UNT001"


def test_cli_list_rules_mentions_every_rule():
    """Each rule's table line carries its id, name and summary."""
    result = run_cli("--list-rules")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    for rule, (name, summary) in ALL_RULES.items():
        line = next(line for line in lines if line.startswith(rule + " "))
        assert name in line and summary in line, line


def test_cli_unknown_rule_is_usage_error(tmp_path):
    """One unknown id among known ones fails the run before any lint."""
    bad = tmp_path / "bad.py"
    bad.write_text(UNIT_VIOLATION)
    result = run_cli(str(bad), "--select", "UNT001,NOPE999", cwd=tmp_path)
    assert result.returncode == 2
    assert "NOPE999" in result.stderr
    assert result.stdout == ""


def test_cli_missing_path_is_usage_error(tmp_path):
    """One missing path among existing ones fails the run."""
    bad = tmp_path / "bad.py"
    bad.write_text(UNIT_VIOLATION)
    result = run_cli(str(bad), "no/such/dir", cwd=tmp_path)
    assert result.returncode == 2
    assert "no/such/dir" in result.stderr
    assert result.stdout == ""


def test_syntax_error_reported_as_parse_finding(tmp_path):
    """A file that does not parse is a finding, and the project-wide
    rules still run over the files that do."""
    (tmp_path / "broken.py").write_text("def oops(:\n")
    (tmp_path / "bad.py").write_text(UNIT_VIOLATION)
    result = run_cli("broken.py", "bad.py", cwd=tmp_path)
    assert result.returncode == 1
    assert "broken.py:1:10: PARSE" in result.stdout
    assert "bad.py:2:12: UNT001" in result.stdout
