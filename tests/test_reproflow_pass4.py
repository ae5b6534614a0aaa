"""Tests for reproflow's runner-safety rules, SER303 and KEY501 (task
inputs collected in ``callgraph``, reported by ``dataflow``'s pass-3
analyzer).

Each family gets triggering, clean, and suppressed fixtures; each rule
gets targeted trigger and clean cases, including the cross-module
module-state poke; the granular effect propagation is exercised
directly; and the real CLI is run over seeded violations.
"""

import sys
import textwrap
from pathlib import Path

import pytest

from tests.test_reprolint import run_cli

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import ast                                                    # noqa: E402

from reproflow.callgraph import (                             # noqa: E402
    HANDLE_USE,
    SHADOW_CONFIG,
    build_callgraph,
)
from reproflow.dataflow import propagate_effects              # noqa: E402
from reproflow.engine import analyze_source                   # noqa: E402
from reproflow.policy import DEFAULT_POLICY                   # noqa: E402


def analyze(source, path="pkg/module.py", rules=None, extra=None):
    return analyze_source(textwrap.dedent(source), path, rules=rules,
                          extra=extra)


def rule_ids(findings):
    return [f.rule for f in findings]


def graph_and_summaries(modules):
    """Build the call graph and its summaries from ``{path: source}``."""
    sources = {p: textwrap.dedent(s) for p, s in modules.items()}
    trees = {p: ast.parse(s, filename=p) for p, s in sources.items()}
    graph = build_callgraph(trees)
    return graph, propagate_effects(graph)


# ------------------------------------------------------------------
# Per-family fixtures: (trigger source, clean source, suppressed source).
# ------------------------------------------------------------------

FAMILY_FIXTURES = {
    "SER": (
        """
        from threading import Lock

        _GUARD = Lock()

        def locked_task(seed, config=None):
            with _GUARD:
                return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:locked_task", configs)
        """,
        """
        def doubling_task(seed, config=None):
            return seed * 2

        def submit(runner, configs):
            return runner.map_task("pkg.module:doubling_task", configs)
        """,
        """
        from threading import Lock

        _GUARD = Lock()

        def locked_task(seed, config=None):
            with _GUARD:
                return seed

        def submit(runner, configs):
            return runner.map_task(  # reproflow: disable=SER303
                "pkg.module:locked_task", configs)
        """,
    ),
    "KEY": (
        """
        import os

        def env_task(seed, config=None):
            return os.getenv("REPRO_SCALE")

        def submit(runner, configs):
            return runner.map_task("pkg.module:env_task", configs)
        """,
        """
        def scaled_task(seed, scale=1.0, config=None):
            return seed * scale

        def submit(runner, configs):
            return runner.map_task("pkg.module:scaled_task", configs)
        """,
        """
        import os

        def env_task(seed, config=None):
            return os.getenv("REPRO_SCALE")

        def submit(runner, configs):
            return runner.map_task(  # reproflow: disable=KEY501
                "pkg.module:env_task", configs)
        """,
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILY_FIXTURES))
def test_family_triggers(family):
    trigger, _, _ = FAMILY_FIXTURES[family]
    findings = analyze(trigger)
    assert any(r.startswith(family) for r in rule_ids(findings)), findings


@pytest.mark.parametrize("family", sorted(FAMILY_FIXTURES))
def test_family_clean(family):
    _, clean, _ = FAMILY_FIXTURES[family]
    findings = analyze(clean)
    assert not any(r.startswith(family) for r in rule_ids(findings)), findings


@pytest.mark.parametrize("family", sorted(FAMILY_FIXTURES))
def test_family_suppressed(family):
    _, _, suppressed = FAMILY_FIXTURES[family]
    findings = analyze(suppressed)
    assert not any(r.startswith(family) for r in rule_ids(findings)), findings


# ------------------------------------------------------------------
# SER303: tasks capturing module-level handles.
# ------------------------------------------------------------------

def test_ser303_module_lock_used_by_task():
    findings = analyze("""
        from threading import Lock

        _GUARD = Lock()

        def locked_task(seed, config=None):
            with _GUARD:
                return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:locked_task", configs)
    """)
    ser = [f for f in findings if f.rule == "SER303"]
    assert ser and "_GUARD" in ser[0].message


def test_ser303_transitive_handle_use_shows_chain():
    findings = analyze("""
        from threading import Lock

        _GUARD = Lock()

        def _locked_helper(value):
            with _GUARD:
                return value

        def outer_task(seed, config=None):
            return _locked_helper(seed)

        def submit(runner, configs):
            return runner.map_task("pkg.module:outer_task", configs)
    """)
    ser = [f for f in findings if f.rule == "SER303"]
    assert ser and "_locked_helper" in ser[0].message


def test_ser303_lock_outside_tasks_is_clean():
    findings = analyze("""
        from threading import Lock

        _GUARD = Lock()

        def serve(request):
            with _GUARD:
                return request

        def pure_task(seed, config=None):
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:pure_task", configs)
    """)
    assert "SER303" not in rule_ids(findings)


# ------------------------------------------------------------------
# KEY501: cache-key escapes.
# ------------------------------------------------------------------

def test_key501_environ_subscript_and_get():
    for read in ('os.environ["REPRO_SCALE"]',
                 'os.environ.get("REPRO_SCALE")',
                 'os.getenv("REPRO_SCALE")'):
        findings = analyze(f"""
            import os

            def env_task(seed, config=None):
                return {read}

            def submit(runner, configs):
                return runner.map_task("pkg.module:env_task", configs)
        """)
        key = [f for f in findings if f.rule == "KEY501"]
        assert key, (read, findings)
        assert "REPRO_SCALE" in key[0].message


def test_key501_sanctioned_sanitizer_var_is_clean():
    findings = analyze("""
        import os

        def checked_task(seed, config=None):
            if os.environ.get("REPRO_SANITIZE"):
                assert seed >= 0
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:checked_task", configs)
    """)
    assert "KEY501" not in rule_ids(findings)


def test_key501_file_read_in_task():
    findings = analyze("""
        def loading_task(seed, config=None):
            with open("calibration.json") as handle:
                return handle.read()

        def submit(runner, configs):
            return runner.map_task("pkg.module:loading_task", configs)
    """)
    key = [f for f in findings if f.rule == "KEY501"]
    assert key and "calibration.json" in key[0].message


def test_key501_write_only_open_is_clean():
    findings = analyze("""
        def logging_task(seed, config=None):
            with open("out.log", "w") as handle:
                handle.write(str(seed))
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:logging_task", configs)
    """)
    assert "KEY501" not in rule_ids(findings)


def test_key501_shadow_config_fallback_transitive():
    # The provider.py shape this rule was built for: a task-reachable
    # helper whose parameter falls back to a module global at call time.
    findings = analyze("""
        KNOB = 0.5

        def synthesize(n, scale=None):
            scale = KNOB if scale is None else scale
            return n * scale

        def knob_task(seed, config=None):
            return synthesize(seed)

        def submit(runner, configs):
            return runner.map_task("pkg.module:knob_task", configs)
    """)
    key = [f for f in findings if f.rule == "KEY501"]
    assert key, findings
    assert "'scale'" in key[0].message and "KNOB" in key[0].message
    assert "via knob_task -> synthesize" in key[0].message


def test_key501_shadow_config_if_statement_form():
    findings = analyze("""
        KNOB = 0.5

        def knob_task(seed, scale=None, config=None):
            if scale is None:
                scale = KNOB
            return seed * scale

        def submit(runner, configs):
            return runner.map_task("pkg.module:knob_task", configs)
    """)
    assert "KEY501" in rule_ids(findings)


def test_key501_shadow_config_or_form():
    findings = analyze("""
        KNOB = 0.5

        def knob_task(seed, scale=None, config=None):
            scale = scale or KNOB
            return seed * scale

        def submit(runner, configs):
            return runner.map_task("pkg.module:knob_task", configs)
    """)
    assert "KEY501" in rule_ids(findings)


def test_key501_def_time_default_is_sound():
    # The fixed provider.py shape: the knob bound as a signature
    # default is source text, which the code fingerprint covers.
    findings = analyze("""
        KNOB = 0.5

        def knob_task(seed, scale=KNOB, config=None):
            return seed * scale

        def submit(runner, configs):
            return runner.map_task("pkg.module:knob_task", configs)
    """)
    assert "KEY501" not in rule_ids(findings)


def test_key501_module_state_poked_from_another_module():
    tuner = """
        from pkg import module

        def retune():
            module.KNOB = 2.0
    """
    findings = analyze("""
        KNOB = 0.5

        def knob_task(seed, config=None):
            return seed * KNOB

        def submit(runner, configs):
            return runner.map_task("pkg.module:knob_task", configs)
    """, extra={"pkg/tuner.py": textwrap.dedent(tuner)})
    key = [f for f in findings if f.rule == "KEY501"]
    assert key, findings
    assert "KNOB" in key[0].message
    assert "another module rebinds" in key[0].message


def test_key501_unpoked_module_constant_is_clean():
    findings = analyze("""
        KNOB = 0.5

        def knob_task(seed, config=None):
            return seed * KNOB

        def submit(runner, configs):
            return runner.map_task("pkg.module:knob_task", configs)
    """)
    assert "KEY501" not in rule_ids(findings)


# ------------------------------------------------------------------
# Plumbing: granular propagation and the shadow-config effect.
# ------------------------------------------------------------------

def test_granular_summary_keys_keep_plain_kind():
    _, summaries = graph_and_summaries({"a/mod.py": """
        from threading import Lock

        _A = Lock()
        _B = Lock()

        def both(x):
            with _A:
                with _B:
                    return x
    """})
    summary = summaries["a/mod.py::both"]
    assert HANDLE_USE in summary                       # plain kind key
    assert f"{HANDLE_USE}:_A" in summary               # per-symbol keys
    assert f"{HANDLE_USE}:_B" in summary


def test_shadow_config_effect_records_param_and_knob():
    graph, _ = graph_and_summaries({"a/mod.py": """
        KNOB = 2

        def f(x=None):
            x = KNOB if x is None else x
            return x
    """})
    effects = [e for e in graph.nodes["a/mod.py::f"].effects
               if e.kind == SHADOW_CONFIG]
    assert [e.symbol for e in effects] == ["x<-KNOB"]


def test_pass4_rules_have_no_policy_exemptions():
    for rule in ("SER303", "KEY501"):
        for path in ("src/repro/studies/provider.py",
                     "src/repro/runner/executor.py",
                     "tests/test_runner.py", "tools/reproflow/cli.py"):
            assert not DEFAULT_POLICY.exempt(path, rule)


# ------------------------------------------------------------------
# CLI integration.
# ------------------------------------------------------------------

def test_cli_fails_on_seeded_pass4_violations(tmp_path):
    bad = tmp_path / "bad_parallel.py"
    bad.write_text(textwrap.dedent("""
        import os
        from threading import Lock

        _GUARD = Lock()

        def env_task(seed, config=None):
            return os.getenv("SCALE")

        def locked_task(seed, config=None):
            with _GUARD:
                return seed

        def submit(runner, configs):
            runner.map_task("bad_parallel:env_task", configs)
            runner.map_configs("bad_parallel:locked_task", configs)
    """))
    result = run_cli(str(bad), cwd=tmp_path)
    assert result.returncode == 1
    assert "KEY501" in result.stdout
    assert "SER303" in result.stdout


def test_cli_lists_pass4_rules():
    result = run_cli("--list-rules")
    for rule in ("SER303", "KEY501"):
        assert rule in result.stdout
