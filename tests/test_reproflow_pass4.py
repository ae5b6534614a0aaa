"""Tests for reproflow pass 4 (``parsafe``): SER / IMP / KEY.

Each family gets triggering, clean, and suppressed fixtures; every rule
(SER302/303, IMP401/402, KEY501/502) gets targeted trigger and
clean cases, including the cross-module variants (worker-import
closure, module-state pokes); the granular effect propagation and the
synthetic ``<module>`` nodes are exercised directly; and the real CLI
is run over seeded violations.
"""

import sys
import textwrap
from pathlib import Path

import pytest

from tests.test_reprolint import run_cli

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import ast                                                    # noqa: E402

from reproflow.callgraph import build_callgraph               # noqa: E402
from reproflow.dataflow import propagate_effects              # noqa: E402
from reproflow.engine import analyze_source                   # noqa: E402
from reproflow.index import build_index                       # noqa: E402
from reproflow.parsafe import (                               # noqa: E402
    GRANULAR_KINDS,
    HANDLE_USE,
    SHADOW_CONFIG,
    collect_parsafe,
)
from reproflow.policy import DEFAULT_POLICY                   # noqa: E402


def analyze(source, path="pkg/module.py", rules=None, extra=None):
    return analyze_source(textwrap.dedent(source), path, rules=rules,
                          extra=extra)


def rule_ids(findings):
    return [f.rule for f in findings]


def graph_and_info(modules):
    """Build graph + parsafe info + summaries from ``{path: source}``."""
    sources = {p: textwrap.dedent(s) for p, s in modules.items()}
    trees = {p: ast.parse(s, filename=p) for p, s in sources.items()}
    graph = build_callgraph(trees, sources, build_index(trees))
    info = collect_parsafe(graph, trees)
    summaries = propagate_effects(graph, GRANULAR_KINDS)
    return graph, info, summaries


# ------------------------------------------------------------------
# Per-family fixtures: (trigger source, clean source, suppressed source).
# ------------------------------------------------------------------

FAMILY_FIXTURES = {
    "SER": (
        """
        from threading import Lock

        def guarded_task(seed, lock=Lock(), config=None):
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:guarded_task", configs)
        """,
        """
        def doubling_task(seed, config=None):
            return seed * 2

        def submit(runner, configs):
            return runner.map_task("pkg.module:doubling_task", configs)
        """,
        """
        from threading import Lock

        def guarded_task(seed, lock=Lock(),  # reproflow: disable=SER302
                         config=None):
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:guarded_task", configs)
        """,
    ),
    "IMP": (
        """
        import time

        _IMPORT_STAMP = time.time()

        def stamped_task(seed, config=None):
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:stamped_task", configs)
        """,
        """
        import time

        def stamped_task(seed, config=None):
            return seed

        if __name__ == "__main__":
            print(time.time())

        def submit(runner, configs):
            return runner.map_task("pkg.module:stamped_task", configs)
        """,
        """
        import time

        _IMPORT_STAMP = time.time()  # reproflow: disable=IMP401

        def stamped_task(seed, config=None):
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:stamped_task", configs)
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
# SER302: stateful defaults on task functions.
# ------------------------------------------------------------------

def test_ser302_lock_default():
    findings = analyze("""
        from threading import Lock

        def guarded_task(seed, lock=Lock(), config=None):
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:guarded_task", configs)
    """)
    ser = [f for f in findings if f.rule == "SER302"]
    assert ser and "'lock'" in ser[0].message
    assert "Lock()" in ser[0].text


def test_ser302_rng_default():
    findings = analyze("""
        from numpy.random import default_rng

        def noisy_task(seed, *, rng=default_rng(0), config=None):
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:noisy_task", configs)
    """)
    assert "SER302" in rule_ids(findings)


def test_ser302_only_fires_for_runner_tasks():
    # The same default on a never-submitted function is not pass 4's
    # business (GEN101 owns generic mutable-default style).
    findings = analyze("""
        from threading import Lock

        def helper(seed, lock=Lock()):
            return seed
    """)
    assert "SER302" not in rule_ids(findings)


def test_ser302_immutable_defaults_are_clean():
    findings = analyze("""
        def steady_task(seed, scale=1.0, label="x", config=None):
            return seed * scale

        def submit(runner, configs):
            return runner.map_task("pkg.module:steady_task", configs)
    """)
    assert "SER302" not in rule_ids(findings)


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
# IMP401: import-time effects in worker-imported modules.
# ------------------------------------------------------------------

def test_imp401_transitive_effect_located_at_module_call():
    findings = analyze("""
        import random

        def _draw_pool():
            return [random.random() for _ in range(4)]

        _POOL = _draw_pool()

        def pooled_task(seed, config=None):
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:pooled_task", configs)
    """)
    imp = [f for f in findings if f.rule == "IMP401"]
    assert imp, findings
    assert "unrouted RNG" in imp[0].message
    assert "_POOL = _draw_pool()" in imp[0].text   # the module-scope call
    assert "task module pkg.module" in imp[0].message


def test_imp401_reaches_transitively_imported_modules():
    # The effect sits in a module the *task module* imports: the worker
    # executes it while resolving the entry, so it is flagged — in the
    # file that owns the effect, with the import chain in the message.
    helper = """
        import time

        _LOADED_AT = time.time()

        def helper(x):
            return x
    """
    taskmod = """
        import pkg.helper

        def chained_task(seed, config=None):
            return pkg.helper.helper(seed)

        def submit(runner, configs):
            return runner.map_task("pkg.taskmod:chained_task", configs)
    """
    findings = analyze(helper, path="pkg/helper.py",
                       extra={"pkg/taskmod.py": textwrap.dedent(taskmod)})
    imp = [f for f in findings if f.rule == "IMP401"]
    assert imp, findings
    assert "pkg.helper <- pkg.taskmod" in imp[0].message


def test_imp401_ignores_modules_no_worker_imports():
    findings = analyze("""
        import time

        _LOADED_AT = time.time()

        def helper(x):
            return x
    """)
    assert "IMP401" not in rule_ids(findings)


def test_imp401_main_guard_and_function_bodies_are_exempt():
    findings = analyze("""
        import time

        def timed_task(seed, config=None):
            return seed

        def probe():
            return time.time()

        if __name__ == "__main__":
            print(time.time())

        def submit(runner, configs):
            return runner.map_task("pkg.module:timed_task", configs)
    """)
    assert "IMP401" not in rule_ids(findings)


# ------------------------------------------------------------------
# IMP402: cross-process global reads.
# ------------------------------------------------------------------

def test_imp402_reader_of_task_mutated_global():
    findings = analyze("""
        TOTALS = {}

        def tally_task(seed, config=None):
            TOTALS[seed] = seed
            return seed

        def report():
            return len(TOTALS)

        def submit(runner, configs):
            return runner.map_task("pkg.module:tally_task", configs)
    """)
    imp = [f for f in findings if f.rule == "IMP402"]
    assert imp, findings
    assert "'report'" in imp[0].message and "TOTALS" in imp[0].message


def test_imp402_reader_inside_task_closure_is_clean():
    # The task itself (and its helpers) read the global they mutate in
    # the same process — coherent, and already PUR101's business.
    findings = analyze("""
        TOTALS = {}

        def tally_task(seed, config=None):
            TOTALS[seed] = seed
            return len(TOTALS)

        def submit(runner, configs):
            return runner.map_task("pkg.module:tally_task", configs)
    """)
    assert "IMP402" not in rule_ids(findings)


def test_imp402_unrelated_global_reader_is_clean():
    findings = analyze("""
        TOTALS = {}
        LIMITS = {"max": 10}

        def tally_task(seed, config=None):
            TOTALS[seed] = seed
            return seed

        def check():
            return LIMITS["max"]

        def submit(runner, configs):
            return runner.map_task("pkg.module:tally_task", configs)
    """)
    assert "IMP402" not in rule_ids(findings)


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
# KEY502: dynamic dispatch escaping the code fingerprint.
# ------------------------------------------------------------------

def test_key502_import_module_with_runtime_name():
    findings = analyze("""
        import importlib

        def plugin_task(seed, config=None):
            impl = importlib.import_module(config["impl"])
            return impl.run(seed)

        def submit(runner, configs):
            return runner.map_task("pkg.module:plugin_task", configs)
    """)
    key = [f for f in findings if f.rule == "KEY502"]
    assert key and "runtime value" in key[0].message


def test_key502_getattr_and_globals_lookup():
    for dispatch in ("getattr(mod, config['name'])(seed)",
                     "globals()[config['name']](seed)"):
        findings = analyze(f"""
            import pkg.other as mod

            def dyn_task(seed, config=None):
                return {dispatch}

            def submit(runner, configs):
                return runner.map_task("pkg.module:dyn_task", configs)
        """)
        assert "KEY502" in rule_ids(findings), dispatch


def test_key502_constant_dispatch_is_clean():
    findings = analyze("""
        import importlib

        def fixed_task(seed, config=None):
            impl = importlib.import_module("pkg.fixed")
            handler = getattr(impl, "run")
            return handler(seed)

        def submit(runner, configs):
            return runner.map_task("pkg.module:fixed_task", configs)
    """)
    assert "KEY502" not in rule_ids(findings)


def test_key502_dynamic_dispatch_outside_tasks_is_clean():
    findings = analyze("""
        def loader(name):
            return globals()[name]

        def pure_task(seed, config=None):
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:pure_task", configs)
    """)
    assert "KEY502" not in rule_ids(findings)


# ------------------------------------------------------------------
# Plumbing: granular propagation and the synthetic <module> nodes.
# ------------------------------------------------------------------

def test_granular_summary_keys_keep_plain_kind():
    _, _, summaries = graph_and_info({"a/mod.py": """
        from threading import Lock

        _A = Lock()
        _B = Lock()

        def both(x):
            with _A:
                with _B:
                    return x
    """})
    summary = summaries["a/mod.py::both"]
    assert HANDLE_USE in summary                       # pass-3 style key
    assert f"{HANDLE_USE}:_A" in summary               # per-symbol keys
    assert f"{HANDLE_USE}:_B" in summary


def test_module_node_excludes_defs_and_main_guard():
    graph, _, summaries = graph_and_info({"a/mod.py": """
        import time

        def f():
            return time.time()

        if __name__ == "__main__":
            print(time.time())

        CONST = 1
    """})
    module_id = graph.module_nodes["a/mod.py"]
    assert "clock-read" not in summaries.get(module_id, {})


def test_worker_module_closure_includes_imports():
    _, info, _ = graph_and_info({
        "pkg/helper.py": "def helper(x):\n    return x\n",
        "pkg/taskmod.py": """
            import pkg.helper

            def work(seed):
                return pkg.helper.helper(seed)

            def submit(runner, configs):
                return runner.map_task("pkg.taskmod:work", configs)
        """,
        "pkg/unrelated.py": "def other(x):\n    return x\n",
    })
    assert "pkg/taskmod.py" in info.worker_modules
    assert "pkg/helper.py" in info.worker_modules
    assert "pkg/unrelated.py" not in info.worker_modules
    assert info.import_parent["pkg/helper.py"] == "pkg/taskmod.py"


def test_shadow_config_effect_records_param_and_knob():
    graph, _, _ = graph_and_info({"a/mod.py": """
        KNOB = 2

        def f(x=None):
            x = KNOB if x is None else x
            return x
    """})
    effects = [e for e in graph.nodes["a/mod.py::f"].effects
               if e.kind == SHADOW_CONFIG]
    assert [e.symbol for e in effects] == ["x<-KNOB"]


def test_pass4_rules_have_no_policy_exemptions():
    for rule in ("SER302", "SER303", "IMP401", "IMP402",
                 "KEY501", "KEY502"):
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

        def env_task(seed, config=None):
            return os.getenv("SCALE")

        def guarded_task(seed, lock=Lock(), config=None):
            return seed

        def submit(runner, configs):
            runner.map_task("bad_parallel:env_task", configs)
            runner.map_configs("bad_parallel:guarded_task", configs)
    """))
    result = run_cli(str(bad), cwd=tmp_path)
    assert result.returncode == 1
    assert "KEY501" in result.stdout
    assert "SER302" in result.stdout


def test_cli_lists_pass4_rules():
    result = run_cli("--list-rules")
    for rule in ("SER302", "SER303", "IMP401", "IMP402",
                 "KEY501", "KEY502"):
        assert rule in result.stdout
