"""Smoke tests: every example script must run cleanly end to end.

Examples rot silently otherwise.  Each runs as a subprocess with its
smallest sensible arguments.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=300):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stderr[-2000:]}")
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py", "1")
    assert "DiversiFi" in out
    assert "recovered" in out


def test_strategy_shootout():
    out = run_example("strategy_shootout.py", "4")
    assert "cross-link" in out
    assert "stronger" in out


def test_middlebox_deployment():
    out = run_example("middlebox_deployment.py")
    assert "middlebox" in out
    assert "scalability" in out.lower()


def test_coexistence_with_tcp():
    out = run_example("coexistence_with_tcp.py", "2")
    assert "TCP throughput" in out


def test_measurement_studies():
    out = run_example("measurement_studies.py")
    assert "Table 1" in out
    assert "Table 2" in out
    assert "Figure 1" in out


def test_inspect_session():
    out = run_example("inspect_session.py", "1")
    assert "timeline" in out.lower()
    assert "GilbertFit" in out


def test_calibrate_from_trace():
    out = run_example("calibrate_from_trace.py")
    assert "fitted model" in out
    assert "diversity gain" in out
