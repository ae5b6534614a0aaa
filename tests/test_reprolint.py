"""Per-rule completeness tests for reproflow's merged rule set, plus the
per-file rules of ``reproflow.filerules`` (DET / GEN / OBS).

Every rule id in ``ALL_RULES`` gets a triggering fixture, and the same
fixture with an inline ``# reproflow: disable=`` on each reported line
must come back clean.  The DET / GEN / OBS rules get focused tests, and
the real CLI is run over the ``make lint`` trees (must be clean) and over
synthetic violations (must fail).
"""

import functools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from reproflow.engine import analyze_paths, analyze_source   # noqa: E402
from reproflow.filerules import FILE_CHECKERS   # noqa: E402
from reproflow.rules import ALL_RULES     # noqa: E402

#: the per-file family the focused tests below exercise
FILE_RULES = sorted(FILE_CHECKERS)


def lint(source, path="pkg/module.py", rules=FILE_RULES, extra=None):
    """Analyze ``source``; ``rules=None`` runs every rule."""
    return analyze_source(textwrap.dedent(source), path, rules=rules,
                          extra=extra)


def rule_ids(findings):
    return [f.rule for f in findings]


# ------------------------------------------------------------------
# Per-rule triggering fixtures.  Each is self-contained: the schemas,
# streams and runner submissions a rule reasons about are defined in
# the fixture itself.
# ------------------------------------------------------------------

_STREAMS = """
class RandomRouter:
    def __init__(self, seed=0):
        self.seed = seed
    def stream(self, name):
        return object()
"""

_SUBMIT = """
def submit(runner, configs):
    return runner.map_task("pkg.module:{task}", configs)
"""

FIXTURES = {
    "DET001": """
        import numpy as np
        rng = np.random.default_rng(0)
        """,
    "DET002": """
        import time
        def elapsed():
            return time.time()
        """,
    "DET003": """
        def arm(sim, links):
            for link in set(links):
                sim.call_in(0.1, link.poll)
        """,
    "GEN101": """
        def collect(items=[]):
            return items
        """,
    "GEN102": """
        def guarded(fn):
            try:
                fn()
            except Exception:
                pass
        """,
    "OBS001": """
        def transmit(frame):
            print("sending", frame)
        """,
    "UNT001": """
        def jitter(a_ms, b_s):
            return a_ms + b_s
        """,
    "UNT002": """
        def schedule(timeout_s):
            return timeout_s
        def arm(delay_ms):
            return schedule(timeout_s=delay_ms)
        """,
    "UNT003": """
        def convert(spacing_ms):
            spacing_s = spacing_ms
            return spacing_s
        """,
    "FLO001": _STREAMS + """
def build(router):
    shared = router.stream("fading")
    first = FadingProcess(shared)
    second = MacLayer(shared)
    return first, second
""",
    "FLO002": _STREAMS + """
ROUTER = RandomRouter(7)
SHARED = ROUTER.stream("module.state")
""",
    "FLO003": _STREAMS + """
def run_all(n):
    routers = []
    for i in range(n):
        routers.append(RandomRouter(42))
    return routers
""",
    "PUR101": """
COUNTER = {"n": 0}

def counting_task(seed, config=None):
    COUNTER["n"] = COUNTER["n"] + 1
    return seed
""" + _SUBMIT.format(task="counting_task"),
    "ORD201": """
        def merge(metrics):
            links = {m.link for m in metrics}
            out = []
            for link in links:
                out.append(link)
            return out
        """,
    "SER303": """
from threading import Lock

_GUARD = Lock()

def locked_task(seed, config=None):
    with _GUARD:
        return seed
""" + _SUBMIT.format(task="locked_task"),
    "KEY501": """
import os

def env_task(seed, config=None):
    return os.getenv("REPRO_SCALE")
""" + _SUBMIT.format(task="env_task"),
    # The RCH fixtures are src/repro/mod.py; a program file and a test
    # that reaches what the program does not are in FIXTURE_EXTRA.
    "RCH601": """
        def helper():
            return 1
        """,
    "RCH602": """
        def named():
            return 1

        def unnamed(n):
            return unnamed(n - 1) if n else 0
        """,
    "RCH603": """
        def run(a, by_position=2, by_keyword=1, only_tests=3, by_key=4):
            return a

        def task(seed, by_key=4):
            return seed

        def own_key(seed, x_own=1):
            return {'x_own': x_own}

        def splatted(x=1):
            return x

        def study(n, swept=1, fixed=2):
            return n

        class Box:
            def __init__(self, width=1, depth=2):
                self.width = width
        """,
    "RCH604": """
        import dataclasses
        from dataclasses import dataclass, field

        @dataclass
        class Config:
            name: str
            by_position: int = 1
            by_keyword: int = 2
            only_tests: int = 3
            by_replace: int = 4
            by_store: int = 5
            log: list = field(default_factory=list)
            table: dict = field(default_factory=lambda: {'a': 0})
            nested: tuple = field(default_factory=lambda: (1, 2))
            copied: int = 6
            rescaled: int = 7

            def renamed(self, name):
                return Config(name, copied=self.copied,
                              rescaled=2 * self.rescaled)

        @dataclasses.dataclass(frozen=True)
        class Options:
            forwarded: int = 1
            not_forwarded: int = 2

        def configure(options, **overrides):
            return dataclasses.replace(options, **overrides)

        def scoped(**overrides):
            return configure(Options(), **overrides)
        """,
}

#: rules that only fire on specific paths lint their fixture there
FIXTURE_PATHS = {"OBS001": "src/repro/wifi/mac.py",
                 "RCH601": "src/repro/mod.py", "RCH602": "src/repro/mod.py",
                 "RCH603": "src/repro/mod.py", "RCH604": "src/repro/mod.py"}


def _program(main, tests="", where="src/repro/__main__.py"):
    """The rest of a fixture tree: a program file (by default the
    ``python -m repro`` entry point) and a test, which is not one."""
    return {"src/repro/__init__.py": "", where: textwrap.dedent(main),
            "tests/test_mod.py": textwrap.dedent(tests)}


#: the files a rule's fixture is analyzed with
FIXTURE_EXTRA = {
    "RCH601": _program("import sys\n",
                       tests="from repro.mod import helper\n"),
    "RCH602": _program("from repro.mod import named\nnamed()\n",
                       tests="from repro.mod import unnamed\n",
                       where="examples/demo.py"),
    # a program call, or a dict key outside a runner task's body, sets a
    # parameter; a key sets nothing for a function no task string names,
    # and a forwarded **kwargs sets only what its program callers pass
    "RCH603": _program("""
        from repro.mod import Box, own_key, run, splatted, study
        TASKS = ('repro.mod:task', 'repro.mod:own_key')
        CONFIG = {'by_key': 4}
        run(0, 5, by_keyword=1)
        own_key(0)
        splatted(**CONFIG)
        Box(3)
        def rows_with(n, **overrides):
            return study(n, **overrides)
        rows_with(1, swept=3)
        """, tests="""
        from repro.mod import Box, run
        run(0, only_tests=9)
        Box(depth=4)
        """),
    # a program call, replace call or attribute store sets a field, and an
    # accumulator is not an option; a **kwargs forwarded into replace sets
    # only what its program callers pass, and field=self.field in the
    # class's own body copies the field without setting it
    "RCH604": _program("""
        import dataclasses
        from repro.mod import Config, scoped
        config = Config('x', 7, by_keyword=8)
        config = dataclasses.replace(config, by_replace=9)
        config.by_store += 1
        config = config.renamed('y')
        scoped(forwarded=3)
        """, tests="""
        from repro.mod import Config, Options
        Config('x', only_tests=9, nested=())
        Options(not_forwarded=4)
        """),
}


def fixture_path(rule):
    return FIXTURE_PATHS.get(rule, "pkg/module.py")


def lint_fixture(rule, source=None):
    """Every rule on ``rule``'s fixture (or ``source`` in its place)."""
    return lint(FIXTURES[rule] if source is None else source,
                path=fixture_path(rule), rules=None,
                extra=FIXTURE_EXTRA.get(rule))


def with_inline_disable(source, rule, lines):
    """``source`` with ``# reproflow: disable=<rule>`` on ``lines``."""
    out = textwrap.dedent(source).splitlines()
    for lineno in lines:
        out[lineno - 1] += f"  # reproflow: disable={rule}"
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("rule", sorted(ALL_RULES))
def test_every_rule_has_fixture(rule):
    assert rule in FIXTURES


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_rule_triggers(rule):
    assert rule in rule_ids(lint_fixture(rule)), \
        f"{rule} did not fire on its fixture"


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_rule_suppressed_inline(rule):
    fired = sorted({f.line for f in lint_fixture(rule) if f.rule == rule})
    assert fired
    suppressed = with_inline_disable(FIXTURES[rule], rule, fired)
    assert rule not in rule_ids(lint_fixture(rule, suppressed)), \
        f"{rule} fired despite inline disable"


def test_disable_all_suppresses_everything():
    findings = lint("""
        import numpy as np
        rng = np.random.default_rng(0)  # reproflow: disable=all
        """)
    assert findings == []


def test_disable_list_is_rule_specific():
    # Disabling an unrelated rule must not silence the real one.
    findings = lint("""
        import numpy as np
        rng = np.random.default_rng(0)  # reproflow: disable=DET002
        """)
    assert rule_ids(findings) == ["DET001"]


# ------------------------------------------------------------ subsumption

#: a deleted rule's former trigger, linted as a ``src/repro`` file, and
#: the surviving rule that reports it (CONTRIBUTING.md, "Deleted rules")
SUBSUMED = {
    ("PUR102", "DET002"): """
        import time

        def slow_task(seed, config=None):
            time.time()
            return seed

        def submit(runner, configs):
            return runner.map_task("repro.mod:slow_task", configs)
        """,
    ("PUR103", "DET001"): """
        import random

        def noisy_task(seed, config=None):
            return random.random()

        def submit(runner, configs):
            return runner.map_task("repro.mod:noisy_task", configs)
        """,
    ("IMP401", "DET002"): """
        import time

        _IMPORT_STAMP = time.time()

        def stamped_task(seed, config=None):
            return seed

        def submit(runner, configs):
            return runner.map_task("repro.mod:stamped_task", configs)
        """,
    ("IMP401", "DET001"): """
        import random

        _IMPORT_SALT = random.random()

        def salted_task(seed, config=None):
            return seed

        def submit(runner, configs):
            return runner.map_task("repro.mod:salted_task", configs)
        """,
    ("IMP402", "PUR101"): """
        TOTALS = {}

        def tally_task(seed, config=None):
            TOTALS[seed] = seed
            return seed

        def report():
            return len(TOTALS)

        def submit(runner, configs):
            return runner.map_task("repro.mod:tally_task", configs)
        """,
    ("SER302", "RCH603"): """
        from threading import Lock

        def guarded_task(seed, lock=Lock()):
            return seed

        def submit(runner, configs):
            return runner.map_task("repro.mod:guarded_task", configs)
        """,
}


@pytest.mark.parametrize("deleted,survivor", sorted(SUBSUMED))
def test_deleted_rule_trigger_still_reported(deleted, survivor):
    findings = lint(SUBSUMED[deleted, survivor], path="src/repro/mod.py",
                    rules=None, extra=_program("""
                        from repro.mod import submit
                        submit(None, [(0, {})])
                        """))
    assert survivor in rule_ids(findings), findings


# ------------------------------------------------------------ RCH60x

def reported(rule, source=None):
    """What ``rule`` names on its fixture (or on ``source``)."""
    return sorted(f.message.split()[0] for f in lint_fixture(rule, source)
                  if f.rule == rule)


def test_rch601_rch602_report_only_what_tests_alone_reach():
    assert reported("RCH601") == ["repro.mod"]
    assert reported("RCH602") == ["repro.mod:unnamed"]


def test_rch603_reports_the_parameters_only_tests_set():
    assert reported("RCH603") == [
        "repro.mod:Box.__init__(depth)",
        "repro.mod:own_key(x_own)",
        "repro.mod:run(by_key)",
        "repro.mod:run(only_tests)",
        "repro.mod:study(fixed)",
    ]


def test_rch604_reports_the_fields_only_tests_set():
    assert reported("RCH604") == [
        "repro.mod:Config.copied",
        "repro.mod:Config.nested",
        "repro.mod:Config.only_tests",
        "repro.mod:Options.not_forwarded",
    ]


def test_rch_disable_that_silences_nothing_is_a_finding():
    source = FIXTURES["RCH602"].replace(
        "def named():", "def named():  # reproflow: disable=RCH602")
    assert reported("RCH602", source) == ["`disable=RCH602`",
                                          "repro.mod:unnamed"]


def test_rch_family_is_silent_without_a_program():
    extra = dict(FIXTURE_EXTRA["RCH602"])
    del extra["examples/demo.py"]
    findings = lint(FIXTURES["RCH602"], path=fixture_path("RCH602"),
                    rules=None, extra=extra)
    assert [f for f in findings if f.rule.startswith("RCH")] == []


def test_rch_program_roots_fold_in_by_real_path(tmp_path, monkeypatch):
    """``analyze_paths`` folds ``examples/`` in as the program, and a
    target named by absolute path is not parsed again through ``src/``."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(FIXTURES["RCH602"]))
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        FIXTURE_EXTRA["RCH602"]["examples/demo.py"])
    monkeypatch.chdir(tmp_path)
    findings = analyze_paths([str(package)], rules=["RCH602"])
    assert [f.message.split()[0] for f in findings] == ["repro.mod:unnamed"]


# ------------------------------------------------------------ DET001

def test_det001_stdlib_random():
    findings = lint("""
        import random
        x = random.randint(0, 5)
        """)
    assert rule_ids(findings) == ["DET001"]


def test_det001_bare_default_rng_import():
    findings = lint("""
        from numpy.random import default_rng
        g = default_rng(3)
        """)
    assert rule_ids(findings) == ["DET001"]


def test_det001_exempts_stream_factory():
    findings = lint("""
        import numpy as np
        g = np.random.default_rng(np.random.SeedSequence(1))
        """, path="src/repro/sim/random.py")
    assert findings == []


def test_det001_ignores_annotations_and_injected_rng():
    findings = lint("""
        import numpy as np
        def sample(rng: np.random.Generator) -> float:
            return float(rng.random())
        """)
    assert findings == []


# ------------------------------------------------------------ DET002

def test_det002_datetime_now():
    findings = lint("""
        from datetime import datetime
        stamp = datetime.now()
        """)
    assert rule_ids(findings) == ["DET002"]


def test_det002_os_urandom_and_sleep():
    findings = lint("""
        import os
        import time
        token = os.urandom(8)
        time.sleep(0.1)
        """)
    assert rule_ids(findings) == ["DET002", "DET002"]


def test_det002_perf_counter_is_flagged():
    # Monotonic clocks are wall-clock too: the cli.py use needs an
    # explicit suppression, which is the point.
    findings = lint("""
        import time
        t0 = time.perf_counter()
        """)
    assert rule_ids(findings) == ["DET002"]


# ------------------------------------------------------------ DET003

def test_det003_only_fires_in_scheduling_functions():
    findings = lint("""
        def harmless(items):
            return [x for x in set(items)]
        """)
    assert findings == []


def test_det003_comprehension_in_scheduler():
    findings = lint("""
        def arm(sim, links):
            delays = [l.delay for l in set(links)]
            sim.call_in(min(delays), tick)
        """)
    assert rule_ids(findings) == ["DET003"]


# ------------------------------------------------------------ GEN10x

def test_gen101_kwonly_defaults():
    findings = lint("""
        def f(*, cache={}):
            return cache
        """)
    assert rule_ids(findings) == ["GEN101"]


def test_gen102_bare_except():
    findings = lint("""
        try:
            risky()
        except:
            pass
        """)
    assert rule_ids(findings) == ["GEN102"]


def test_gen102_specific_except_ok():
    findings = lint("""
        try:
            risky()
        except ValueError:
            pass
        """)
    assert findings == []


# ------------------------------------------------------------ OBS001

def test_obs001_only_fires_in_instrumented_packages():
    source = """
        def debug(x):
            print(x)
        """
    assert rule_ids(lint(source, path="src/repro/voice/playout.py")) \
        == ["OBS001"]
    # cli.py and the tools tree print legitimately; tests too.
    assert lint(source, path="src/repro/cli.py") == []
    assert lint(source, path="tools/reproflow/cli.py") == []
    assert lint(source, path="tests/test_thing.py") == []


def test_obs001_stdout_writes_flagged():
    findings = lint("""
        import sys
        def warn():
            sys.stderr.write("retry storm\\n")
        """, path="src/repro/runner/executor.py")
    assert rule_ids(findings) == ["OBS001"]


def test_obs001_global_counter_tally():
    findings = lint("""
        _retry_count = 0
        def note_retry():
            global _retry_count
            _retry_count += 1
        """, path="src/repro/wifi/psm.py")
    assert rule_ids(findings) == ["OBS001"]


def test_obs001_non_counter_global_ok():
    # The active-registry pattern itself uses module state; only
    # tally-shaped names are flagged.
    findings = lint("""
        _active = None
        def install(registry):
            global _active
            _active = registry
        """, path="src/repro/runner/context.py")
    assert findings == []


def test_obs001_metrics_calls_ok():
    findings = lint("""
        def transmit(metrics, frame):
            metrics.counter("mac.attempts").inc()
        """, path="src/repro/wifi/mac.py")
    assert findings == []


# ------------------------------------------------------------ CLI
# A single-file run from the repo root folds all of src/ into the index;
# from tmp_path it parses the one file, so those runs use cwd=tmp_path.

def run_cli(*args, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "tools"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return subprocess.run(
        [sys.executable, "-m", "reproflow", *args],
        capture_output=True, text=True, cwd=str(cwd), env=env)


@functools.lru_cache(maxsize=None)
def repo_lint():
    """`make lint` over the real trees, RCH family included, as its json
    payload.  The only whole-tree lint in the tests: run once, and read
    by every test that checks some part of the tree is clean."""
    result = run_cli("src/", "tools/", "tests/", "--format=json")
    assert result.returncode in (0, 1), result.stdout + result.stderr
    return json.loads(result.stdout)


def repo_findings(rule_prefix="", path_prefix=""):
    """The whole-tree lint's findings of the given rule and path prefix,
    rendered for an assertion message."""
    return [f"{f['path']}:{f['line']}: {f['rule']} {f['message']}"
            for f in repo_lint()["findings"]
            if f["rule"].startswith(rule_prefix)
            and f["path"].startswith(path_prefix)]


def test_cli_clean_on_repo_source_tree():
    """`make lint` over the real trees: zero findings."""
    assert repo_findings() == []
    assert "0 finding(s) (all rules)" in repo_lint()["summary"]


def test_cli_fails_on_synthetic_det001(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nr = np.random.default_rng(1)\n")
    result = run_cli(str(bad), cwd=tmp_path)
    assert result.returncode == 1
    assert "DET001" in result.stdout


def test_cli_fails_on_synthetic_det002(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    result = run_cli(str(bad), cwd=tmp_path)
    assert result.returncode == 1
    assert "DET002" in result.stdout


def test_cli_select_restricts_rules(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    result = run_cli(str(bad), "--select", "DET001", cwd=tmp_path)
    assert result.returncode == 0


@pytest.mark.parametrize("selection", [",", ""])
def test_cli_empty_select_is_usage_error(tmp_path, selection):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    result = run_cli(str(bad), "--select", selection, cwd=tmp_path)
    assert result.returncode == 2, result.stdout


def test_cli_list_rules_mentions_every_rule():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule in ALL_RULES:
        assert rule in result.stdout


def test_cli_unknown_rule_is_usage_error():
    result = run_cli("src/", "--select", "NOPE999")
    assert result.returncode == 2


def test_cli_missing_path_is_usage_error(tmp_path):
    result = run_cli("no/such/dir", cwd=tmp_path)
    assert result.returncode == 2


def test_syntax_error_reported_as_parse_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    result = run_cli(str(bad), cwd=tmp_path)
    assert result.returncode == 1
    assert "PARSE" in result.stdout
