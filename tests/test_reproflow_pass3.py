"""Tests for reproflow pass 3 (``callgraph`` + ``dataflow``).

Each new family (FLO / PUR / ORD) gets triggering, clean, and
suppressed fixtures; the call graph is tested for resolution,
ambiguity guarding, effect collection and the returns-stream fixpoint;
the seeded cross-module leak (stream created in the router module,
returned through a helper in another module, stored into module state
in a third) and the impure-runner-task case are each proven to be
caught; and the real CLI is run over seeded violations.
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
    GLOBAL_WRITE,
    build_callgraph,
    dotted_module_name,
)
from reproflow.dataflow import propagate_effects              # noqa: E402
from reproflow.engine import analyze_source                   # noqa: E402
from reproflow.policy import DEFAULT_POLICY                   # noqa: E402


def analyze(source, path="pkg/module.py", rules=None, extra=None):
    return analyze_source(textwrap.dedent(source), path, rules=rules,
                          extra=extra)


def rule_ids(findings):
    return [f.rule for f in findings]


def graph_of(modules):
    """Build the call graph from ``{path: source}``."""
    sources = {p: textwrap.dedent(s) for p, s in modules.items()}
    trees = {p: ast.parse(s, filename=p) for p, s in sources.items()}
    return build_callgraph(trees)


# ------------------------------------------------------------------
# Per-family fixtures: (trigger source, clean source, suppressed source).
# ------------------------------------------------------------------

FAMILY_FIXTURES = {
    "FLO": (
        """
        class RandomRouter:
            def __init__(self, seed=0):
                self.seed = seed
            def stream(self, name):
                return object()

        ROUTER = RandomRouter(7)
        SHARED = ROUTER.stream("module.state")
        """,
        """
        class RandomRouter:
            def __init__(self, seed=0):
                self.seed = seed
            def stream(self, name):
                return object()

        def build(router):
            loss = router.stream("link.loss")
            delay = router.stream("link.delay")
            return (loss.__class__, delay.__class__)
        """,
        """
        class RandomRouter:
            def __init__(self, seed=0):
                self.seed = seed
            def stream(self, name):
                return object()

        ROUTER = RandomRouter(7)
        SHARED = ROUTER.stream("module.state")  # reproflow: disable=FLO002
        """,
    ),
    "PUR": (
        """
        SEEN = []

        def counting_task(seed, config=None):
            SEEN.append(seed)
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:counting_task", configs)
        """,
        """
        def pure_task(seed, config=None):
            return seed * 2

        def submit(runner, configs):
            return runner.map_task("pkg.module:pure_task", configs)
        """,
        """
        SEEN = []

        def counting_task(seed, config=None):
            SEEN.append(seed)
            return seed

        def submit(runner, configs):
            return runner.map_task(  # reproflow: disable=PUR101
                "pkg.module:counting_task", configs)
        """,
    ),
    "ORD": (
        """
        def merge(metrics):
            links = {m.link for m in metrics}
            out = []
            for link in links:
                out.append(link)
            return out
        """,
        """
        def merge(metrics):
            links = {m.link for m in metrics}
            out = []
            for link in sorted(links):
                out.append(link)
            return out
        """,
        """
        def merge(metrics):
            links = {m.link for m in metrics}
            out = []
            for link in links:  # reproflow: disable=ORD201
                out.append(link)
            return out
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
# The stream factory the FLO fixtures below build on.
# ------------------------------------------------------------------

STREAM_PRELUDE = """
    class RandomRouter:
        def __init__(self, seed=0):
            self.seed = seed
        def stream(self, name):
            return object()
"""


# ------------------------------------------------------------------
# FLO002: stream escaping into module state — including the seeded
# cross-module case from the issue: the stream is created in the router
# module, returned through a helper in a *second* module, and stored
# into module state in a *third*.
# ------------------------------------------------------------------

def test_flo002_global_statement_store():
    findings = analyze(STREAM_PRELUDE + """
        _CACHE = None

        def setup(router):
            global _CACHE
            _CACHE = router.stream("leaked")
    """)
    assert "FLO002" in rule_ids(findings)


def test_flo002_instance_attribute_is_clean():
    findings = analyze(STREAM_PRELUDE + """
        class Link:
            def __init__(self, router):
                self._rng = router.stream("link.loss")
    """)
    assert "FLO002" not in rule_ids(findings)


def test_flo002_cross_module_leak_through_helper():
    router_mod = """
        class RandomRouter:
            def __init__(self, seed=0):
                self.seed = seed
            def stream(self, name):
                return object()
    """
    helper_mod = """
        def shared_stream(router):
            return router.stream("shared")
    """
    leaky = """
        from repro.util.helpers import shared_stream

        FALLBACK = None

        def setup(router):
            global FALLBACK
            FALLBACK = shared_stream(router)
    """
    findings = analyze(
        leaky, path="src/repro/studies/leaky.py",
        extra={"src/repro/sim/random.py": textwrap.dedent(router_mod),
               "src/repro/util/helpers.py": textwrap.dedent(helper_mod)})
    assert "FLO002" in rule_ids(findings)
    assert "FALLBACK" in [f.message for f in findings
                          if f.rule == "FLO002"][0]


# ------------------------------------------------------------------
# FLO003: seed reuse across independent realizations.
# ------------------------------------------------------------------

def test_flo003_loop_invariant_seed_triggers():
    findings = analyze(STREAM_PRELUDE + """
        def run_all(n):
            routers = []
            for i in range(n):
                routers.append(RandomRouter(42))
            return routers
    """)
    assert "FLO003" in rule_ids(findings)


def test_flo003_derived_seed_is_clean():
    findings = analyze(STREAM_PRELUDE + """
        def run_all(n):
            routers = []
            for i in range(n):
                routers.append(RandomRouter(1000 + i))
            return routers
    """)
    assert "FLO003" not in rule_ids(findings)


def test_flo003_strategy_loop_not_flagged():
    # Paired comparison: same seed across *strategies* is the
    # methodology, not a bug — only realization loops (range/seeds)
    # are checked.
    findings = analyze(STREAM_PRELUDE + """
        def compare(strategies):
            out = []
            for strategy in strategies:
                out.append(RandomRouter(42))
            return out
    """)
    assert "FLO003" not in rule_ids(findings)


def test_flo003_exempt_under_tests_policy():
    assert DEFAULT_POLICY.exempt("tests/test_digest.py", "FLO003")
    assert not DEFAULT_POLICY.exempt("src/repro/studies/a.py", "FLO003")


# ------------------------------------------------------------------
# PUR: runner-task purity (the cache-poisoning proof).
# ------------------------------------------------------------------

def test_pur101_global_mutation_is_caught():
    findings = analyze("""
        COUNTER = {"n": 0}

        def counting_task(seed, config=None):
            COUNTER["n"] = COUNTER["n"] + 1
            return seed

        def submit(runner, configs):
            return runner.map_task("pkg.module:counting_task", configs)
    """)
    assert "PUR101" in rule_ids(findings)


def test_pur_entry_via_module_constant():
    findings = analyze("""
        SEEN = []
        TASK = "pkg.module:counting_task"

        def counting_task(seed, config=None):
            SEEN.append(seed)
            return seed

        def submit(runner, configs):
            return runner.map_task(TASK, configs)
    """)
    assert "PUR101" in rule_ids(findings)


def test_pur_runspec_build_is_a_root():
    findings = analyze("""
        SEEN = []

        def counting(seed, config=None):
            SEEN.append(seed)
            return seed

        def submit(RunSpec):
            return RunSpec.build("pkg.module:counting", 1)
    """)
    assert "PUR101" in rule_ids(findings)


# ------------------------------------------------------------------
# ORD: iteration-order hazards.
# ------------------------------------------------------------------

def test_ord201_dictcomp_over_set():
    findings = analyze("""
        def tally(names):
            return {name: names.count(name) for name in set(names)}
    """)
    assert "ORD201" in rule_ids(findings)


def test_ord201_keyed_write_in_loop():
    findings = analyze("""
        def index(packets):
            seqs = {p.seq for p in packets}
            table = {}
            for seq in seqs:
                table[seq] = True
            return table
    """)
    assert "ORD201" in rule_ids(findings)


def test_ord201_set_to_set_is_clean():
    findings = analyze("""
        def survivors(rules, disabled):
            return {r for r in rules if r not in disabled}
    """)
    assert "ORD201" not in rule_ids(findings)


def test_ord201_membership_and_len_are_clean():
    findings = analyze("""
        def check(links, name):
            pending = set(links)
            return name in pending, len(pending), sorted(pending)
    """)
    assert rule_ids(findings) == []


def test_ord201_set_attribute_load():
    findings = analyze("""
        class Tracker:
            def __init__(self):
                self.pending = set()

            def drain(self):
                return list(self.pending)
    """)
    assert "ORD201" in rule_ids(findings)


def test_ord201_returns_set_helper_propagates():
    findings = analyze("""
        def pending_links(links):
            return {l for l in links if l.up}

        def drain(links):
            return list(pending_links(links))
    """)
    assert "ORD201" in rule_ids(findings)


# ------------------------------------------------------------------
# Call graph unit tests.
# ------------------------------------------------------------------

def test_dotted_module_name():
    assert dotted_module_name("src/repro/sim/random.py") == \
        "repro.sim.random"
    assert dotted_module_name("tools/reproflow/cli.py") == "reproflow.cli"
    assert dotted_module_name("src/repro/__init__.py") == "repro"
    assert dotted_module_name("pkg/module.py") == "pkg.module"


def test_callgraph_same_module_call_resolved():
    graph = graph_of({"a/mod.py": """
        def helper():
            return 1
        def caller():
            return helper()
    """})
    caller = graph.nodes["a/mod.py::caller"]
    assert [c.callee for c in caller.calls] == ["a/mod.py::helper"]


def test_callgraph_ambiguous_name_drops_edge():
    graph = graph_of({
        "a/one.py": "def helper():\n    return 1\n",
        "a/two.py": "def helper():\n    return 2\n",
        "a/use.py": "def caller():\n    return helper()\n",
    })
    caller = graph.nodes["a/use.py::caller"]
    assert caller.calls == []


def test_callgraph_self_method_prefers_own_class():
    graph = graph_of({"a/mod.py": """
        class Worker:
            def step(self):
                return 1
            def run(self):
                return self.step()

        class Other:
            def step(self):
                return 2
    """})
    run = graph.nodes["a/mod.py::Worker.run"]
    assert [c.callee for c in run.calls] == ["a/mod.py::Worker.step"]


def test_returns_stream_fixpoint_through_two_hops():
    graph = graph_of({
        "a/base.py": """
            def make(router):
                return router.stream("x")
        """,
        "a/mid.py": """
            def relay(router):
                return make(router)
        """,
    })
    assert graph.nodes["a/base.py::make"].returns_stream
    assert graph.nodes["a/mid.py::relay"].returns_stream


def test_propagate_effects_builds_chain():
    graph = graph_of({"a/mod.py": """
        SEEN = []

        def leaf():
            SEEN.append(1)

        def mid():
            return leaf()

        def root():
            return mid()
    """})
    summaries = propagate_effects(graph)
    effect = summaries["a/mod.py::root"][GLOBAL_WRITE]
    assert effect.chain == ("a/mod.py::root", "a/mod.py::mid",
                            "a/mod.py::leaf")
    described = effect.describe(graph)
    assert "root -> mid -> leaf" in described


def test_task_root_collection():
    graph = graph_of({"a/mod.py": """
        TASK = "a.mod:work"

        def work(seed, config=None):
            return seed

        def submit(runner, configs):
            runner.map_task(TASK, configs)
            runner.map_configs("a.mod:work", configs)
    """})
    entries = {(r.entry, r.submit_name) for r in graph.task_roots}
    assert entries == {("a.mod:work", "map_task"),
                       ("a.mod:work", "map_configs")}
    assert all(r.node_id == "a/mod.py::work" for r in graph.task_roots)


# ------------------------------------------------------------------
# CLI integration.
# ------------------------------------------------------------------

def test_cli_fails_on_seeded_pur_violation(tmp_path):
    bad = tmp_path / "bad_task.py"
    bad.write_text(textwrap.dedent("""
        SEEN = []

        def counting(seed, config=None):
            SEEN.append(seed)
            return seed

        def submit(runner, configs):
            return runner.map_task("bad_task:counting", configs)
    """))
    result = run_cli(str(bad), cwd=tmp_path)
    assert result.returncode == 1
    assert "PUR101" in result.stdout


def test_cli_fails_on_seeded_flo_violation(tmp_path):
    bad = tmp_path / "leaky.py"
    bad.write_text(textwrap.dedent("""
        class RandomRouter:
            def __init__(self, seed=0):
                self.seed = seed
            def stream(self, name):
                return object()

        STREAM = RandomRouter(0).stream("module")
    """))
    result = run_cli(str(bad), cwd=tmp_path)
    assert result.returncode == 1
    assert "FLO002" in result.stdout


def test_cli_lists_pass3_rules():
    result = run_cli("--list-rules")
    for rule in ("FLO002", "FLO003", "PUR101", "ORD201"):
        assert rule in result.stdout
