"""Tests for the repro.runner subsystem: job model, cache, executor.

The pool tests spawn real worker processes on tasks defined in this
module, so they extend ``PYTHONPATH`` with the repo root (spawn children
re-import tasks by module name).
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    EMPTY_METRICS_JSON,
    MetricsRegistry,
    active_registry,
    merge_metrics_json,
    to_canonical_json,
)
from repro.runner import (
    BatchResult,
    ResultCache,
    RunnerConfig,
    RunSpec,
    RunTimeoutError,
    active_config,
    batch_digest,
    canonical_json,
    clear_memo,
    code_fingerprint,
    configure,
    map_configs,
    map_task,
    run_batch,
    runner_context,
)
from repro.runner import executor
from repro.runner.cache import CACHE_VERSION
from repro.runner.spec import RunResult
from repro.runner.worker import TaskResolutionError, execute_spec, \
    resolve_task

REPO_ROOT = Path(__file__).resolve().parent.parent

ADD_TASK = "tests.test_runner:add_task"
CRASH_TASK = "tests.test_runner:crash_in_worker_task"
SLEEP_TASK = "tests.test_runner:sleep_task"
METERED_TASK = "tests.test_runner:metered_task"
PID_TASK = "tests.test_runner:pid_task"


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memo()
    yield
    clear_memo()


@pytest.fixture()
def pool_pythonpath(monkeypatch):
    """Make this module importable from spawned worker processes."""
    src = REPO_ROOT / "src"
    monkeypatch.setenv(
        "PYTHONPATH", f"{src}{os.pathsep}{REPO_ROOT}")


def add_task(seed, *, offset=0, label="x"):
    return {"value": seed + offset, "label": label, "seed": seed}


def crash_in_worker_task(seed):
    # Dies hard in a pool worker; succeeds on the serial fallback path.
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return {"seed": seed}


def sleep_task(seed):
    time.sleep(1.5)
    return {"seed": seed}


def pid_task(seed):
    return {"seed": seed, "pid": os.getpid()}


def metered_task(seed, *, amount=1.0):
    # Records into the registry the runner installs around each task.
    registry = active_registry()
    registry.counter("task.calls").inc()
    registry.counter("task.amount").inc(amount)
    registry.histogram("task.seed", bounds=(2.0, 4.0)).observe(float(seed))
    return {"seed": seed}


# ------------------------------------------------------------------- spec

def test_spec_key_ignores_config_ordering():
    a = RunSpec.build(ADD_TASK, 1, {"offset": 2, "label": "y"})
    b = RunSpec.build(ADD_TASK, 1, {"label": "y", "offset": 2})
    assert a.key == b.key


@pytest.mark.parametrize("other", [
    RunSpec.build(ADD_TASK, 2, {"offset": 2}),              # seed
    RunSpec.build(ADD_TASK, 1, {"offset": 3}),              # config
    RunSpec.build("tests.test_runner:sleep_task", 1,
                  {"offset": 2}),                            # task
    RunSpec.build(ADD_TASK, 1, {"offset": 2},
                  fingerprint="f" * 64),                     # fingerprint
])
def test_spec_key_changes_with_any_input(other):
    base = RunSpec.build(ADD_TASK, 1, {"offset": 2})
    assert base.key != other.key


def test_spec_defaults_to_code_fingerprint():
    spec = RunSpec.build(ADD_TASK, 0)
    assert spec.fingerprint == code_fingerprint()
    assert len(spec.fingerprint) == 64


def test_spec_rejects_malformed_task():
    with pytest.raises(ValueError):
        RunSpec.build("not-an-entry-point", 0)


@pytest.mark.parametrize("task", [lambda seed: seed, None, 3])
def test_spec_rejects_non_string_task(task):
    """Regression: a callable task failed with ``TypeError: argument of
    type 'function' is not iterable`` instead of naming the contract."""
    with pytest.raises(ValueError, match="module:function"):
        RunSpec.build(task, 0)


def test_canonical_json_is_byte_stable():
    assert canonical_json({"b": 1, "a": [1.5, True]}) \
        == '{"a":[1.5,true],"b":1}'
    assert canonical_json({"x": np.int64(3), "y": np.float64(0.5),
                           "z": np.bool_(True),
                           "w": np.array([1, 2])}) \
        == '{"w":[1,2],"x":3,"y":0.5,"z":true}'
    with pytest.raises(TypeError):
        canonical_json({"bad": object()})


def test_batch_digest_format_and_order_sensitivity():
    batch = run_batch([RunSpec.build(ADD_TASK, s) for s in (0, 1)])
    digest, count = batch.digest.rsplit("#", 1)
    assert count == "2"
    assert len(digest) == 64
    reversed_digest = batch_digest(tuple(reversed(batch.results)))
    assert reversed_digest != batch.digest


# ------------------------------------------------------------------ cache

def test_cache_roundtrip_and_layout(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec.build(ADD_TASK, 5, {"offset": 1})
    assert cache.get(spec) is None
    cache.put(spec, canonical_json({"value": 6}), EMPTY_METRICS_JSON)
    assert cache.get(spec) == ('{"value":6}', EMPTY_METRICS_JSON)
    path = cache.path_for(spec.key)
    assert path.parent.name == spec.key[:2]
    entry = json.loads(path.read_text())
    assert entry["seed"] == 5 and entry["task"] == ADD_TASK


def test_cache_fingerprint_change_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    old = RunSpec.build(ADD_TASK, 5, fingerprint="a" * 64)
    cache.put(old, canonical_json({"v": 1}), EMPTY_METRICS_JSON)
    new = RunSpec.build(ADD_TASK, 5, fingerprint="b" * 64)
    assert cache.get(new) is None
    assert cache.get(old) == ('{"v":1}', EMPTY_METRICS_JSON)


@pytest.mark.parametrize("corruption", [
    "not json at all {",
    '{"version":999,"key":"KEY","payload":{},"metrics":{"metrics":[]}}',
    '{"version":2,"key":"wrong","payload":{},"metrics":{"metrics":[]}}',
    '{"version":2,"key":"KEY","metrics":{"metrics":[]}}',
    # v1 entries (no metrics blob, wall-clock field) are schema drift
    '{"version":1,"key":"KEY","payload":{},"wall_time_s":0.1}',
])
def test_cache_corrupted_entry_deleted_and_missed(tmp_path, corruption):
    cache = ResultCache(tmp_path)
    spec = RunSpec.build(ADD_TASK, 7)
    path = cache.path_for(spec.key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(corruption.replace("KEY", spec.key))
    assert cache.get(spec) is None
    assert not path.exists()


def test_cache_concurrent_writers_never_leave_torn_entries(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec.build(ADD_TASK, 9)
    payload = canonical_json({"blob": "x" * 4096})

    def hammer():
        for _ in range(50):
            cache.put(spec, payload, EMPTY_METRICS_JSON)
            assert cache.get(spec) == (payload, EMPTY_METRICS_JSON)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert cache.get(spec) == (payload, EMPTY_METRICS_JSON)
    # atomic publishes: no temp files left behind
    assert not list(tmp_path.rglob("*.tmp"))


def _old_entry_text(spec, payload_json, metrics_json):
    """The entry text as ``put`` used to build it: parse, then
    canonicalize the whole entry object."""
    return canonical_json({
        "version": CACHE_VERSION,
        "key": spec.key,
        "task": spec.task,
        "seed": spec.seed,
        "config": json.loads(spec.config_json),
        "fingerprint": spec.fingerprint,
        "metrics": json.loads(metrics_json),
        "payload": json.loads(payload_json),
    })


def _busy_metrics_json():
    registry = MetricsRegistry()
    registry.counter("task.calls").inc(3)
    registry.histogram("task.delay_s", bounds=(0.01, 0.1)).observe(-0.25)
    return to_canonical_json(registry)


_ENTRY_CONFIG = {"offset": -1.5, "label": "caf\u00e9 \u6771\u4eac",
                 "nested": {"b": [], "a": {}, "c": [0.1, 1e-300]}}


@pytest.mark.parametrize("payload", [
    {"floats": [0.1, -2.5e-300, 1e300, 3.0, 1 / 3],
     "deep": {"z": {"y": [[-0.0, 7.25]]}, "a": 1.5}},
    {"text": "Z\u00fcrich \u2013 \u6771\u4eac \U0001f600", "k\u00e9": "\x00"},
    {"ints": [-17, -2 ** 63, 0, 2 ** 70], "neg": -1},
    {"list": [], "dict": {}, "str": "", "nested": [[], {}]},
    [],
    {},
])
def test_cache_put_writes_the_canonical_entry_bytes(tmp_path, payload):
    cache = ResultCache(tmp_path)
    spec = RunSpec.build(ADD_TASK, -3, _ENTRY_CONFIG)
    payload_json, metrics_json = canonical_json(payload), _busy_metrics_json()
    cache.put(spec, payload_json, metrics_json)
    text = cache.path_for(spec.key).read_text(encoding="utf-8")
    assert text == _old_entry_text(spec, payload_json, metrics_json)
    assert cache.get(spec) == (payload_json, metrics_json)


def test_cache_get_hits_entries_written_by_the_old_encoder(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec.build(ADD_TASK, 4, _ENTRY_CONFIG)
    payload_json = canonical_json({"value": [1.25, -4], "s": "\u00e9"})
    metrics_json = _busy_metrics_json()
    path = cache.path_for(spec.key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_old_entry_text(spec, payload_json, metrics_json),
                    encoding="utf-8")
    assert cache.get(spec) == (payload_json, metrics_json)
    assert path.exists()


def _fill_cache(cache, n, size=512):
    """``n`` distinct entries with strictly increasing access times."""
    specs = [RunSpec.build(ADD_TASK, seed, {"pad": "x" * size})
             for seed in range(n)]
    for i, spec in enumerate(specs):
        cache.put(spec, canonical_json({"seed": spec.seed}),
                  EMPTY_METRICS_JSON)
        # Pin timestamps explicitly: filesystem timestamp granularity
        # (and noatime mounts) would otherwise make the order flaky.
        os.utime(cache.path_for(spec.key), (1000 + i, 1000 + i))
    return specs


def test_cache_prune_evicts_least_recently_used_first(tmp_path):
    cache = ResultCache(tmp_path)
    specs = _fill_cache(cache, 6)
    entry_size = cache.path_for(specs[0].key).stat().st_size
    removed = cache.prune(3 * entry_size)
    assert removed == 3
    # The three oldest-accessed entries are gone, the rest survive.
    assert all(cache.get(s) is None for s in specs[:3])
    assert all(cache.get(s) is not None for s in specs[3:])
    assert cache.size_bytes() <= 3 * entry_size


def test_cache_prune_respects_hit_recency(tmp_path):
    cache = ResultCache(tmp_path)
    specs = _fill_cache(cache, 4)
    # A hit refreshes the entry's timestamps, moving it to the LRU tail.
    assert cache.get(specs[0]) is not None
    entry_size = cache.path_for(specs[0].key).stat().st_size
    cache.prune(entry_size)
    assert cache.get(specs[0]) is not None
    assert all(cache.get(s) is None for s in specs[1:])


def test_cache_prune_to_zero_empties_store_and_shards(tmp_path):
    cache = ResultCache(tmp_path)
    specs = _fill_cache(cache, 5)
    assert cache.prune(0) == 5
    assert cache.size_bytes() == 0
    assert all(cache.get(s) is None for s in specs)
    # Emptied two-character fan-out shards are swept away.
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]


def test_cache_prune_noop_under_limit(tmp_path):
    cache = ResultCache(tmp_path)
    _fill_cache(cache, 3)
    assert cache.prune(10 * 1024 * 1024) == 0
    assert len(list(cache.entries())) == 3
    with pytest.raises(ValueError):
        cache.prune(-1)


def test_cache_prune_under_concurrent_reads(tmp_path):
    """Readers racing a pruner see a hit or a clean miss, never a torn
    entry or an exception — eviction is a single atomic unlink."""
    cache = ResultCache(tmp_path)
    specs = [RunSpec.build(ADD_TASK, seed, {"blob": "x" * 2048})
             for seed in range(8)]
    payloads = {s.key: canonical_json({"seed": s.seed}) for s in specs}
    for spec in specs:
        cache.put(spec, payloads[spec.key], EMPTY_METRICS_JSON)
    failures = []

    def read_loop():
        for _ in range(40):
            for spec in specs:
                got = cache.get(spec)
                if got is not None and \
                        got != (payloads[spec.key], EMPTY_METRICS_JSON):
                    failures.append(got)

    def prune_loop():
        for _ in range(20):
            cache.prune(3 * 1024)
            for spec in specs:   # refill so readers keep racing
                cache.put(spec, payloads[spec.key], EMPTY_METRICS_JSON)

    threads = [threading.Thread(target=read_loop) for _ in range(3)]
    threads.append(threading.Thread(target=prune_loop))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures


# ----------------------------------------------------------------- worker

def test_resolve_task_errors():
    with pytest.raises(TaskResolutionError):
        resolve_task("no-colon")
    with pytest.raises(TaskResolutionError):
        resolve_task("no.such.module:fn")
    with pytest.raises(TaskResolutionError):
        resolve_task("tests.test_runner:not_a_function")


def test_execute_spec_returns_canonical_payload():
    payload_json, metrics_json, wall = execute_spec(
        ADD_TASK, canonical_json({"offset": 10}), 2)
    assert json.loads(payload_json) == {"value": 12, "label": "x",
                                        "seed": 2}
    assert metrics_json == EMPTY_METRICS_JSON   # task records nothing
    assert wall >= 0.0


# --------------------------------------------------------------- executor

def test_map_task_returns_payloads_in_seed_order():
    payloads = map_task(ADD_TASK, [3, 1, 2], {"offset": 100})
    assert [p["seed"] for p in payloads] == [3, 1, 2]
    assert [p["value"] for p in payloads] == [103, 101, 102]


def test_map_configs_varies_config_per_item():
    payloads = map_configs(ADD_TASK, [(0, {"offset": 1}),
                                      (0, {"offset": 2})])
    assert [p["value"] for p in payloads] == [1, 2]


def test_memo_makes_second_batch_free():
    specs = [RunSpec.build(ADD_TASK, s) for s in range(4)]
    first = run_batch(specs)
    second = run_batch(specs)
    assert first.stats.executed == 4
    assert second.stats.executed == 0
    assert second.stats.memo_hits == 4
    assert second.digest == first.digest
    assert second.payloads == first.payloads


def test_no_cache_bypasses_memo_and_disk(tmp_path):
    specs = [RunSpec.build(ADD_TASK, s) for s in range(3)]
    config = RunnerConfig(cache_dir=tmp_path)
    run_batch(specs, config=config)
    rerun = run_batch(specs, config=RunnerConfig(cache_dir=tmp_path,
                                                 no_cache=True))
    assert rerun.stats.executed == 3
    assert rerun.stats.cache_hits == 0 and rerun.stats.memo_hits == 0


def test_disk_cache_warm_rerun_executes_nothing(tmp_path):
    specs = [RunSpec.build(ADD_TASK, s, {"offset": 7}) for s in range(4)]
    cold = run_batch(specs, config=RunnerConfig(cache_dir=tmp_path))
    clear_memo()   # fresh process simulation: only the disk survives
    warm = run_batch(specs, config=RunnerConfig(cache_dir=tmp_path))
    assert cold.stats.executed == 4
    assert warm.stats.executed == 0
    assert warm.stats.cache_hits == 4
    assert warm.digest == cold.digest
    assert warm.payloads == cold.payloads


def test_disk_cache_invalidated_by_fingerprint_change(tmp_path):
    config = RunnerConfig(cache_dir=tmp_path)
    old = [RunSpec.build(ADD_TASK, 0, fingerprint="a" * 64)]
    run_batch(old, config=config)
    clear_memo()
    new = [RunSpec.build(ADD_TASK, 0, fingerprint="b" * 64)]
    rerun = run_batch(new, config=config)
    assert rerun.stats.executed == 1
    assert rerun.stats.cache_hits == 0


def test_corrupted_disk_entry_recomputed_and_rewritten(tmp_path):
    spec = RunSpec.build(ADD_TASK, 1)
    cache_config = RunnerConfig(cache_dir=tmp_path)
    run_batch([spec], config=cache_config)
    clear_memo()
    path = ResultCache(tmp_path).path_for(spec.key)
    path.write_text("truncated{")
    rerun = run_batch([spec], config=cache_config)
    assert rerun.stats.executed == 1
    assert json.loads(path.read_text())["key"] == spec.key


def test_non_utf8_disk_entry_recomputed_and_rewritten(tmp_path):
    """An entry that does not decode is corrupt like one that does not
    parse: discarded and recomputed, not a crash."""
    spec = RunSpec.build(ADD_TASK, 1)
    cache_config = RunnerConfig(cache_dir=tmp_path)
    run_batch([spec], config=cache_config)
    clear_memo()
    path = ResultCache(tmp_path).path_for(spec.key)
    path.write_bytes(b"\xff\xfe")
    rerun = run_batch([spec], config=cache_config)
    assert rerun.stats.executed == 1
    assert json.loads(path.read_text())["key"] == spec.key


def test_batch_hook():
    batches = []
    config = RunnerConfig(on_batch=batches.append)
    run_batch([RunSpec.build(ADD_TASK, s) for s in range(3)],
              config=config)
    assert len(batches) == 1 and isinstance(batches[0], BatchResult)
    assert "3 run(s), 3 executed" in batches[0].stats.summary()


def test_runner_config_validation():
    with pytest.raises(ValueError):
        RunnerConfig(jobs=0)


def test_runner_context_scopes_and_restores():
    before = active_config()
    with runner_context(jobs=3, cache_dir="~/somewhere") as config:
        assert active_config() is config
        assert config.jobs == 3
        assert config.cache_dir == Path("~/somewhere").expanduser()
    assert active_config() is before


def test_configure_returns_previous():
    previous = configure(jobs=2)
    try:
        assert active_config().jobs == 2
    finally:
        configure(jobs=previous.jobs)


# ------------------------------------------------------------ pool / par

def test_pool_matches_serial_payloads_and_digest(pool_pythonpath):
    specs = [RunSpec.build(ADD_TASK, s, {"offset": 5}) for s in range(6)]
    serial = run_batch(specs, config=RunnerConfig(no_cache=True))
    parallel = run_batch(specs, config=RunnerConfig(jobs=2,
                                                    no_cache=True))
    assert parallel.stats.pool_used
    assert parallel.digest == serial.digest
    assert parallel.payloads == serial.payloads
    assert all(r.worker == "pool" for r in parallel.results)


def _worker_pids():
    """PIDs of the workers that ran a healthy ``jobs=2`` batch."""
    specs = [RunSpec.build(PID_TASK, s) for s in range(4)]
    batch = run_batch(specs, config=RunnerConfig(jobs=2, no_cache=True))
    assert [r.worker for r in batch.results] == ["pool"] * 4
    assert batch.stats.retries == 0
    assert [p["seed"] for p in batch.payloads] == [0, 1, 2, 3]
    return {p["pid"] for p in batch.payloads}


@pytest.mark.parametrize("variable", ["REPRO_SANITIZE", "PYTHONPATH"])
def test_pool_reused_until_worker_environment_changes(pool_pythonpath,
                                                      monkeypatch,
                                                      variable):
    """Consecutive batches share one pool; a change to anything a spawned
    worker froze at start (here the environment) gets a fresh one."""
    reused = _worker_pids() | _worker_pids() | _worker_pids()
    # three batches, never more workers than jobs: one pool served all
    assert len(reused) <= 2
    assert os.getpid() not in reused
    if variable == "PYTHONPATH":
        # still imports this module, from a different path string
        monkeypatch.setenv(variable,
                           os.environ[variable] + os.pathsep + "missing")
    else:
        monkeypatch.setenv(variable, "1")
    fresh = _worker_pids()
    assert not fresh & reused


def test_pool_left_open_does_not_block_interpreter_exit():
    """A process that ran a parallel batch and never shut its pool down
    exits promptly, leaving no worker behind."""
    script = (
        "from repro.runner import RunnerConfig, RunSpec, run_batch\n"
        f"specs = [RunSpec.build({PID_TASK!r}, s) for s in range(4)]\n"
        "batch = run_batch(specs, config=RunnerConfig(jobs=2,"
        " no_cache=True))\n"
        "assert {r.worker for r in batch.results} == {'pool'}\n"
        "print(sorted({p['pid'] for p in batch.payloads}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    workers = json.loads(done.stdout)
    assert workers
    for pid in workers:
        assert not _running(pid), f"worker {pid} outlived its parent"


def _running(pid):
    """Alive and not a zombie awaiting its reaper."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:   # gone meanwhile, or no procfs
        return not Path("/proc").is_dir()
    return "\nState:\tZ" not in status


def test_pool_timeout_aborts_batch(pool_pythonpath):
    # the task sleeps on purpose: the clock read IS the behavior under
    # test (timeouts), and no_cache=True keeps it out of the ResultCache
    specs = [RunSpec.build(SLEEP_TASK, s)
             for s in range(2)]
    before = _worker_pids()   # the pool the sleeping batch runs on
    config = RunnerConfig(jobs=2, timeout_s=0.2, no_cache=True)
    with pytest.raises(RunTimeoutError) as excinfo:
        run_batch(specs, config=config)
    assert excinfo.value.timeout_s == 0.2
    # the pool holding the stuck workers was dropped and rebuilt
    assert not _worker_pids() & before


def test_pool_crash_falls_back_to_serial(pool_pythonpath, monkeypatch):
    monkeypatch.setattr(executor, "POOL_RETRIES", 0)
    specs = [RunSpec.build(CRASH_TASK, s) for s in range(2)]
    before = _worker_pids()   # the pool the crashing batch runs on
    config = RunnerConfig(jobs=2, no_cache=True)
    batch = run_batch(specs, config=config)
    assert batch.stats.retries == 1
    assert [p["seed"] for p in batch.payloads] == [0, 1]
    assert all(r.worker == "serial" for r in batch.results)
    # the broken pool was dropped and rebuilt
    assert not _worker_pids() & before


def test_sanitize_asserts_merge_contract(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    specs = [RunSpec.build(ADD_TASK, s) for s in range(3)]
    batch = run_batch(specs)
    assert batch.digest == run_batch(specs).digest


# ---------------------------------------------------------------- metrics

def test_run_results_carry_metrics_blob():
    specs = [RunSpec.build(METERED_TASK, s, {"amount": 2.0})
             for s in range(3)]
    batch = run_batch(specs, config=RunnerConfig(no_cache=True))
    for result in batch.results:
        assert result.metrics.counter("task.calls").value == 1.0
    merged = merge_metrics_json([r.metrics_json for r in batch.results])
    assert merged.counter("task.calls").value == 3.0
    assert merged.counter("task.amount").value == 6.0
    # Histogram buckets are half-open: seeds {0,1} < 2, {2,3} in [2,4).
    assert merged.histogram("task.seed", bounds=(2.0, 4.0)).counts \
        == [2, 1, 0]


def test_metrics_fold_into_batch_digest():
    spec = RunSpec.build(METERED_TASK, 0)
    base = run_batch([spec], config=RunnerConfig(no_cache=True)).results[0]
    tampered = RunResult(spec=base.spec, payload_json=base.payload_json,
                         wall_time_s=0.0, metrics_json=EMPTY_METRICS_JSON)
    assert base.metrics_json != EMPTY_METRICS_JSON
    assert batch_digest((base,)) != batch_digest((tampered,))


def test_metrics_identical_serial_parallel_and_warm(pool_pythonpath,
                                                    tmp_path):
    """The tentpole determinism claim at the runner level: the merged
    metrics export is byte-identical whether runs executed serially,
    on a spawn pool, or replayed from the disk cache."""
    specs = [RunSpec.build(METERED_TASK, s) for s in range(4)]
    serial = run_batch(specs, config=RunnerConfig(cache_dir=tmp_path))
    parallel = run_batch(specs, config=RunnerConfig(jobs=2, no_cache=True))
    clear_memo()
    warm = run_batch(specs, config=RunnerConfig(cache_dir=tmp_path))
    assert parallel.stats.pool_used
    assert warm.stats.cache_hits == 4 and warm.stats.executed == 0
    blobs = [to_canonical_json(merge_metrics_json(
                 [r.metrics_json for r in batch.results]))
             for batch in (serial, parallel, warm)]
    assert blobs[0] == blobs[1] == blobs[2]
    assert serial.digest == parallel.digest == warm.digest


# ------------------------------------------------- cache-hit timing fix

def test_cache_entry_carries_no_wall_clock(tmp_path):
    """Regression: v1 entries stored the original run's ``wall_time_s``,
    so byte-identical simulations cached on different machines produced
    different cache files and hits replayed stale timings."""
    spec = RunSpec.build(ADD_TASK, 3)
    run_batch([spec], config=RunnerConfig(cache_dir=tmp_path))
    entry = json.loads(ResultCache(tmp_path).path_for(spec.key).read_text())
    assert "wall_time_s" not in entry
    assert set(entry) == {"version", "key", "task", "seed", "config",
                          "fingerprint", "payload", "metrics"}


def test_cache_hit_latency_reported_separately(tmp_path):
    specs = [RunSpec.build(ADD_TASK, s) for s in range(3)]
    cold = run_batch(specs, config=RunnerConfig(cache_dir=tmp_path))
    assert cold.stats.hit_wall_times_s == []
    assert all(r.hit_wall_time_s == 0.0 for r in cold.results)
    clear_memo()
    warm = run_batch(specs, config=RunnerConfig(cache_dir=tmp_path))
    # The lookup cost lands on hit_wall_time_s; wall_time_s stays 0.0
    # because no simulation ran (replaying the original elapsed time
    # would corrupt executed-run statistics).
    assert len(warm.stats.hit_wall_times_s) == 3
    assert all(t >= 0.0 for t in warm.stats.hit_wall_times_s)
    for result in warm.results:
        assert result.cached and result.worker == "disk"
        assert result.wall_time_s == 0.0
        assert result.hit_wall_time_s >= 0.0
    assert warm.stats.run_wall_times_s == []
