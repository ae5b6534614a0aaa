"""Tests for the project-wide semantic analysis (``tools/reproflow``).

The UNT rule family gets triggering, clean, and suppressed
fixtures; the index is tested for cross-module resolution and ambiguity
guarding; and the real CLI is run over ``src/`` (must be clean), over
seeded violations (must fail), in its output formats and on bad usage.
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
from reproflow.index import build_index                      # noqa: E402
from reproflow.rules import ALL_RULES                        # noqa: E402
import ast                                                   # noqa: E402


# A miniature project the fixtures resolve against: schemas live in a
# *different* module than the code under analysis, exactly as in the
# real tree (pass 1 must carry units and fields across files).
CORE = textwrap.dedent('''
    from dataclasses import dataclass

    @dataclass
    class ClientConfig:
        inter_packet_spacing_s: float = 0.02
        playout_deadline_ms: float = 150.0

    def schedule(timeout_s: float) -> float:
        return timeout_s
''')


def analyze(source, path="pkg/module.py", rules=None):
    return analyze_source(textwrap.dedent(source), path, rules=rules,
                          extra={"core/schema.py": CORE})


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


def test_unt002_keyword_argument_cross_module():
    found = analyze("""
    def arm(delay_ms):
        return schedule(timeout_s=delay_ms)
    """)
    assert rule_ids(found) == ["UNT002"]


def test_unt002_positional_argument():
    found = analyze("""
    def arm(delay_ms):
        return schedule(delay_ms)
    """)
    assert rule_ids(found) == ["UNT002"]


def test_unt002_dataclass_field_cross_module():
    found = analyze("""
    def build(deadline_s):
        return ClientConfig(playout_deadline_ms=deadline_s)
    """)
    assert rule_ids(found) == ["UNT002"]


def test_unt002_unknown_unit_never_flags():
    assert analyze("""
    def arm(delay):
        return schedule(timeout_s=delay)
    """) == []


def test_unt003_assignment():
    found = analyze("""
    def convert(spacing_ms):
        spacing_s = spacing_ms
        return spacing_s
    """)
    assert rule_ids(found) == ["UNT003"]


def test_unt003_learns_units_through_locals():
    found = analyze("""
    def gap(config):
        spacing = config.inter_packet_spacing_s
        gap_ms = spacing
        return gap_ms
    """)
    assert rule_ids(found) == ["UNT003"]


# ------------------------------------------------------------- the index

def test_index_dataclass_units_and_rosters():
    tree = ast.parse(CORE)
    index = build_index({"core/schema.py": tree})
    cfg = index.resolve_class("ClientConfig")
    assert cfg is not None
    assert cfg.fields["inter_packet_spacing_s"] == "s"
    assert cfg.fields["playout_deadline_ms"] == "ms"
    assert index.resolve_function("schedule") is not None


def test_index_conflicting_definitions_are_ambiguous():
    a = ast.parse("def helper(x_s):\n    return x_s\n")
    b = ast.parse("def helper(a, b, c):\n    return a\n")
    index = build_index({"m1.py": a, "m2.py": b})
    assert index.resolve_function("helper") is None


def test_ambiguous_schema_is_never_checked():
    # Two different ClientConfig definitions: the analysis must not
    # guess which one a call site means, so the unit mismatch against
    # the CORE definition goes unreported.
    other = "class ClientConfig:\n    def __init__(self, totally):\n        pass\n"
    found = analyze_source(
        "def build(deadline_s):\n"
        "    return ClientConfig(playout_deadline_ms=deadline_s)\n",
        "pkg/module.py",
        extra={"core/schema.py": CORE, "alt/schema.py": other})
    assert found == []


def test_import_alias_is_not_resolved():
    # `from x import f as schedule` makes the local name a stranger to
    # the indexed `schedule` — no checks may apply.
    found = analyze("""
    from somewhere import other as schedule
    def arm(delay_ms):
        return schedule(timeout_s=delay_ms)
    """)
    assert found == []


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


def test_cli_seeded_violation_resolves_against_src_schemas(tmp_path):
    # The fixture file lives outside src/ but passes milliseconds to a
    # seconds field of a core config: pass 1 must have indexed src/ anyway.
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.core.config import ClientConfig\n"
        "spacing_ms = 20.0\n"
        "cfg = ClientConfig(inter_packet_spacing_s=spacing_ms)\n")
    result = run_cli(str(bad))
    assert result.returncode == 1, result.stdout + result.stderr
    assert "UNT002" in result.stdout
    assert "inter_packet_spacing_s" in result.stdout


def test_cli_select_restricts_rules(tmp_path):
    """A project-wide rule selected alone ignores the other family's
    violation."""
    bad = tmp_path / "bad.py"
    bad.write_text(UNIT_VIOLATION)
    result = run_cli(str(bad), "--select", "FLO001", cwd=tmp_path)
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
