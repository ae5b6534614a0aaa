"""The digest-smoke driver's verdicts, with the simulator runs stubbed.

The real runs are exercised by the ``*-smoke`` make targets; these tests
pin down that each check the driver makes can actually fail.
"""

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import digest_smoke  # noqa: E402

FOOTER = "[runner fig: runs=2 executed={n} digest={d}]\n"


def stub_runs(monkeypatch, outputs):
    """Serve ``outputs`` (serial, jobs2, warm) to the three runs."""
    calls = []

    def fake_run(argv):
        calls.append(argv)
        stdout, metrics = outputs[len(calls) - 1]
        Path(argv[argv.index("--metrics-out") + 1]).write_text(metrics)
        return stdout

    monkeypatch.setattr(digest_smoke, "_run", fake_run)
    return calls


def test_identical_runs_pass(monkeypatch, capsys):
    calls = stub_runs(monkeypatch, [
        (FOOTER.format(n=2, d="ab"), "{}"),
        (FOOTER.format(n=2, d="ab"), "{}"),
        (FOOTER.format(n=0, d="ab"), "{}")])
    assert digest_smoke.main(["fig8", "--runs", "2"]) == 0
    assert "identical" in capsys.readouterr().out
    assert calls[1][:4] == ["fig8", "--runs", "2", "--no-cache"]
    assert "--jobs" in calls[1] and "--cache-dir" in calls[2]


@pytest.mark.parametrize("outputs", [
    # --jobs 2 digest differs
    [(FOOTER.format(n=2, d="ab"), "{}"), (FOOTER.format(n=2, d="cd"), "{}"),
     (FOOTER.format(n=0, d="ab"), "{}")],
    # the warm rerun executed simulations
    [(FOOTER.format(n=2, d="ab"), "{}"), (FOOTER.format(n=2, d="ab"), "{}"),
     (FOOTER.format(n=2, d="ab"), "{}")],
    # metrics bytes differ
    [(FOOTER.format(n=2, d="ab"), "{}"), (FOOTER.format(n=2, d="ab"), "{ }"),
     (FOOTER.format(n=0, d="ab"), "{}")],
    # no digest at all
    [("done\n", "{}"), ("done\n", "{}"), ("executed=0\n", "{}")],
], ids=["jobs2-digest", "warm-executed", "metrics-bytes", "no-digest"])
def test_each_check_can_fail(monkeypatch, outputs):
    stub_runs(monkeypatch, outputs)
    assert digest_smoke.main(["fig8", "--runs", "2"]) == 1


REPORT = "Figure 3\nlink A  5.97\n[fig3: two-weak-links example; {t}s]\n"


def test_footerless_runs_compare_reports(monkeypatch, capsys):
    """A command with no runner footer passes when its reports match,
    whatever the timing line says and though nothing reports
    ``executed=0``."""
    stub_runs(monkeypatch, [(REPORT.format(t="0.3"), "{}"),
                            (REPORT.format(t="1.2"), "{}"),
                            (REPORT.format(t="0.2"), "{}")])
    assert digest_smoke.main(["fig3"]) == 0
    assert "reports and metrics identical" in capsys.readouterr().out


def test_footerless_runs_with_differing_reports_fail(monkeypatch):
    stub_runs(monkeypatch, [
        (REPORT.format(t="0.3"), "{}"),
        (REPORT.format(t="0.3").replace("5.97", "5.98"), "{}"),
        (REPORT.format(t="0.3"), "{}")])
    assert digest_smoke.main(["fig3"]) == 1
