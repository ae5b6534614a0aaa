"""Tests for the experiment CLI."""

import io
import re

import pytest

from repro.cli import _COMMANDS, build_parser, main, run_command
from repro.runner import clear_memo


def strip_timing(text):
    """Drop the wall-clock status line; everything else is deterministic."""
    return "\n".join(line for line in text.splitlines()
                     if not re.search(r"; [0-9.]+s\]$", line))


def runner_digest(text):
    match = re.search(r"digest=([0-9a-f]+)\]", text)
    assert match, f"no runner footer in output:\n{text}"
    return match.group(1)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_list_shows_every_command():
    code, output = run_cli(["list"])
    assert code == 0
    for name in _COMMANDS:
        assert name in output


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nonsense"])


def test_fig1_runs_and_renders():
    code, output = run_cli(["fig1"])
    assert code == 0
    assert "Figure 1" in output
    assert "BSSIDs" in output


def test_table3_with_runs_override():
    code, output = run_cli(["table3", "--runs", "5"])
    assert code == 0
    assert "Table 3" in output
    assert "Middlebox" in output


def test_seed_changes_stochastic_output():
    _, a = run_cli(["fig1", "--seed", "1"])
    _, b = run_cli(["fig1", "--seed", "2"])
    assert a != b


def test_seed_reproducible():
    _, a = run_cli(["fig1", "--seed", "3"])
    _, b = run_cli(["fig1", "--seed", "3"])
    # The timing footer differs; compare the rendered table only.
    strip = lambda s: "\n".join(line for line in s.splitlines()
                                if not line.startswith("["))
    assert strip(a) == strip(b)


def test_every_command_has_description():
    for name, (_, _, description) in _COMMANDS.items():
        assert description
        assert len(description) < 80


def test_run_command_prints_timing_footer():
    out = io.StringIO()
    run_command("fig1", None, 0, out=out)
    assert "[fig1:" in out.getvalue()


def test_list_and_unknown_command_exit_codes():
    code, _ = run_cli(["list"])
    assert code == 0
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["definitely-not-a-command"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        run_cli([])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("name", ["uplink", "nlinks", "fec", "gaming"])
def test_deleted_extension_commands_are_usage_errors(name):
    # The FEC and n-link claims are tested in tests/test_extensions.py,
    # tests/test_multilink_fitting_io.py and the ablation benchmarks.
    _, output = run_cli(["list"])
    assert name not in {line.split()[0] for line in output.splitlines()}
    with pytest.raises(SystemExit) as excinfo:
        run_cli([name])
    assert excinfo.value.code == 2


def test_parallel_jobs_output_matches_serial():
    clear_memo()
    _, serial = run_cli(["table3", "--runs", "4", "--no-cache"])
    clear_memo()
    _, parallel = run_cli(["table3", "--runs", "4", "--no-cache",
                           "--jobs", "2"])
    assert runner_digest(serial) == runner_digest(parallel)
    assert strip_timing(serial).replace("jobs=1", "jobs=2") \
        == strip_timing(parallel)


def test_runner_footer_reports_cache_reuse(tmp_path):
    clear_memo()
    _, cold = run_cli(["table3", "--runs", "3",
                       "--cache-dir", str(tmp_path)])
    clear_memo()
    _, warm = run_cli(["table3", "--runs", "3",
                       "--cache-dir", str(tmp_path)])
    assert "executed=3 cached=0" in cold
    assert "executed=0 cached=3" in warm
    assert runner_digest(cold) == runner_digest(warm)
    # The rendered table is identical; only the telemetry counters in
    # the runner footer reflect the cache reuse.
    drop_footer = lambda s: "\n".join(
        line for line in strip_timing(s).splitlines()
        if not line.startswith("[runner"))
    assert drop_footer(cold) == drop_footer(warm)


def test_cache_max_bytes_prunes_store_after_command(tmp_path):
    from repro.runner import ResultCache
    clear_memo()
    _, output = run_cli(["table3", "--runs", "3",
                         "--cache-dir", str(tmp_path),
                         "--cache-max-bytes", "0"])
    assert "[cache table3: pruned 3 entries; 0 bytes retained]" in output
    assert ResultCache(tmp_path).size_bytes() == 0
    # A generous limit keeps every entry and reports nothing pruned.
    clear_memo()
    _, output = run_cli(["table3", "--runs", "3",
                         "--cache-dir", str(tmp_path),
                         "--cache-max-bytes", str(64 * 1024 * 1024)])
    assert "pruned 0 entries" in output
    assert len(list(ResultCache(tmp_path).entries())) == 3


def test_no_cache_flag_forces_recompute(tmp_path):
    clear_memo()
    run_cli(["table3", "--runs", "3", "--cache-dir", str(tmp_path)])
    clear_memo()
    _, output = run_cli(["table3", "--runs", "3",
                         "--cache-dir", str(tmp_path), "--no-cache"])
    assert "executed=3 cached=0" in output


def test_metrics_out_writes_canonical_json(tmp_path):
    import json
    clear_memo()
    metrics_file = tmp_path / "metrics.json"
    code, _ = run_cli(["table3", "--runs", "3", "--no-cache",
                       "--metrics-out", str(metrics_file)])
    assert code == 0
    text = metrics_file.read_text()
    payload = json.loads(text)
    assert payload["metrics"], "instrumented run exported no metrics"
    names = [entry["name"] for entry in payload["metrics"]]
    assert names == sorted(names)
    # Canonical form: compact separators, trailing newline only.
    assert text == json.dumps(payload, sort_keys=True,
                              separators=(",", ":")) + "\n"


def test_metrics_out_identical_serial_parallel_warm(tmp_path):
    """The PR's acceptance criterion at CLI level: --metrics-out bytes
    are identical for serial, --jobs 2 and warm-cache executions."""
    clear_memo()
    files = {name: tmp_path / f"{name}.json"
             for name in ("serial", "jobs2", "warm")}
    run_cli(["table3", "--runs", "3", "--cache-dir", str(tmp_path / "c"),
             "--metrics-out", str(files["serial"])])
    clear_memo()
    run_cli(["table3", "--runs", "3", "--no-cache", "--jobs", "2",
             "--metrics-out", str(files["jobs2"])])
    clear_memo()
    _, warm_out = run_cli(["table3", "--runs", "3",
                           "--cache-dir", str(tmp_path / "c"),
                           "--metrics-out", str(files["warm"])])
    assert "executed=0 cached=3" in warm_out
    serial = files["serial"].read_bytes()
    assert serial == files["jobs2"].read_bytes()
    assert serial == files["warm"].read_bytes()


def test_metrics_out_dash_writes_to_stdout():
    import json
    clear_memo()
    code, output = run_cli(["table3", "--runs", "2", "--no-cache",
                            "--metrics-out", "-"])
    assert code == 0
    last_line = output.rstrip("\n").splitlines()[-1]
    assert json.loads(last_line)["metrics"]


def test_metrics_out_rejected_for_all(tmp_path, capsys):
    code, _ = run_cli(["all", "--metrics-out", str(tmp_path / "m.json")])
    assert code == 2
    assert "--metrics-out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["table2", "--runs", "-5"],
    ["table2", "--runs", "0"],
    ["table1", "--runs", "-5"],
    ["fig2a", "--runs", "-1"],
])
def test_runs_must_be_positive_int(argv, capsys):
    """A zero or negative --runs is a usage error (exit 2), not a
    clamped population, a silent default or a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        run_cli(argv)
    assert excinfo.value.code == 2
    assert "--runs" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Sanitized one-run sweep: every command, every runner submit site and
# every artifact's keyword calls executed once with REPRO_SANITIZE=1, so
# the runtime checks (StreamSharingError, TypeError on an unknown
# keyword, TaskResolutionError on an unresolvable task entry) cover
# every artifact path on each tier-1 run.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,backend", [
    *((name, "event") for name in sorted(_COMMANDS)),
    ("fig2a", "batch"),
])
def test_sanitized_one_run_sweep(name, backend, monkeypatch):
    from repro.runner import runner_context
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    out = io.StringIO()
    # memo off: a memo hit would skip the sanitized execution entirely
    with runner_context(memo=False):
        run_command(name, 1, 0, out=out, backend=backend)
    assert f"[{name}:" in out.getvalue()


# ---------------------------------------------------------------------------
# Option validation: malformed runner options are usage errors (exit 2)
# reported before any simulation runs.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,option", [
    (["fig3", "--jobs", "0"], "--jobs"),
    (["fig3", "--jobs", "-2"], "--jobs"),
    (["fig3", "--cache-max-bytes", "-1", "--cache-dir", "{tmp}"],
     "--cache-max-bytes"),
    # Regression: a negative seed ran fig3 and 13 other commands but
    # crashed these eight with a SeedSequence traceback.
    (["fig3", "--seed", "-1"], "--seed"),
    *(([name, "--seed", "-1"], "--seed")
      for name in ("table1", "table2", "table3", "fig1", "fig8", "fig9",
                   "sec63", "sec64")),
    # `all` runs every command, so it must refuse the seed before the first.
    (["all", "--seed", "-1"], "--seed"),
    # Regression: each of these ran the command (or started to) and then
    # exited 1 with a FileNotFoundError, IsADirectoryError,
    # FileExistsError or NotADirectoryError traceback.
    (["fig3", "--metrics-out", "{tmp}/missing/m.json"], "--metrics-out"),
    (["fig3", "--metrics-out", "{tmp}"], "--metrics-out"),
    (["table3", "--cache-dir", "{tmp}/a_file"], "--cache-dir"),
    (["table3", "--cache-dir", "{tmp}/a_file/sub"], "--cache-dir"),
])
def test_runner_options_reject_out_of_range_values(argv, option, tmp_path,
                                                    capsys):
    (tmp_path / "a_file").write_text("")
    try:
        code, output = run_cli([arg.format(tmp=tmp_path) for arg in argv])
    except SystemExit as exc:   # argparse rejects a malformed value
        code, output = exc.code, ""
    assert code == 2
    assert output == ""
    assert option in capsys.readouterr().err


def test_failed_run_leaves_old_metrics_file(tmp_path, monkeypatch):
    metrics = tmp_path / "m.json"
    metrics.write_text("old\n")

    def runner(runs, seed):
        raise RuntimeError("run failed")

    monkeypatch.setitem(_COMMANDS, "table3", (runner, 7, "stub"))
    with pytest.raises(RuntimeError):
        run_cli(["table3", "--metrics-out", str(metrics)])
    assert metrics.read_text() == "old\n"


def test_cache_max_bytes_requires_cache_dir(capsys):
    code, output = run_cli(["fig3", "--cache-max-bytes", "100"])
    assert code == 2
    assert output == ""
    assert "--cache-dir" in capsys.readouterr().err


def test_all_rejects_batch_backend(capsys):
    code, output = run_cli(["all", "--backend", "batch"])
    assert code == 2
    assert output == ""
    assert "--backend" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["fig3", "table3"])
def test_batch_backend_rejected_for_event_only_commands(name, capsys):
    """Regression: ``fig3 --backend batch`` raised ``SystemExit(str)``
    inside ``run_command`` and exited 1 instead of a usage error."""
    code, output = run_cli([name, "--backend", "batch"])
    assert code == 2
    assert output == ""
    assert "--backend" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["fig1", "fig3"])
def test_runs_rejected_for_commands_without_run_count(name, capsys):
    """Regression: ``--runs`` was silently ignored by fig1 and fig3."""
    code, output = run_cli([name, "--runs", "5"])
    assert code == 2
    assert output == ""
    assert "--runs" in capsys.readouterr().err


def test_list_shows_every_declared_default_run_count():
    _, output = run_cli(["list"])
    lines = {line.split()[0]: line for line in output.splitlines()}
    for name, (_, default_runs, _) in _COMMANDS.items():
        if default_runs is None:
            assert "default runs" not in lines[name]
        else:
            assert lines[name].endswith(f"(default runs: {default_runs})")
    assert "(default runs: 120000)" in lines["table1"]
    assert "(default runs: 2306)" in lines["table2"]


def test_run_command_passes_the_declared_default(monkeypatch):
    seen = []

    class Rendered:
        def render(self):
            return "rendered"

    def runner(runs, seed):
        seen.append(runs)
        return Rendered()

    monkeypatch.setitem(_COMMANDS, "table3", (runner, 7, "stub"))
    run_command("table3", None, 0, out=io.StringIO())
    run_command("table3", 3, 0, out=io.StringIO())
    assert seen == [7, 3]
