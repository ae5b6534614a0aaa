"""Determinism smoke for one experiment artifact.

Runs ``python -m repro ARTIFACT ARGS...`` three times with the runtime
sanitizer on (``REPRO_SANITIZE=1``):

1. serially, filling a fresh result cache;
2. with ``--no-cache --jobs 2``;
3. serially again from the warm cache.

All three must print the same ``digest=`` values and write
byte-identical ``--metrics-out`` files, and the warm rerun must report
``executed=0``.  A command that submits no runner batch (``fig3``'s
sequential search) prints no runner footer in any mode; its printed
report, less the ``[cmd: ...; N.Ns]`` timing line, must then be the
same in all three instead.  Exits 0 and prints one "... identical" line
on success, 1 on the first mismatch.

Usage, from the repo root::

    python tools/digest_smoke.py fig2a --runs 6
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import List, Optional

_DIGEST = re.compile(r"digest=[0-9a-f]*")
#: the per-command timing line, e.g. ``[fig3: two-weak-links example; 0.3s]``
_TIMING = re.compile(r"^\[[^\]\n]*; [0-9.]+s\]\n", re.M)
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src")


def _run(argv: List[str]) -> str:
    env = dict(os.environ, REPRO_SANITIZE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(_SRC), env.get("PYTHONPATH")) if p)
    print("+", " ".join(argv), flush=True)
    result = subprocess.run([sys.executable, "-m", "repro", *argv],
                            env=env, stdout=subprocess.PIPE, text=True)
    if result.returncode != 0:
        raise SystemExit(f"digest-smoke: exit {result.returncode}")
    return result.stdout


def _fail(message: str) -> int:
    print(f"digest-smoke: {message}", file=sys.stderr)
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    work = tempfile.mkdtemp(prefix="digest-smoke-")
    try:
        cache = ["--cache-dir", os.path.join(work, "cache")]
        modes = {"serial": cache, "jobs2": ["--no-cache", "--jobs", "2"],
                 "warm": cache}
        outputs, metrics = {}, {}
        for mode, extra in modes.items():
            path = os.path.join(work, f"{mode}.json")
            outputs[mode] = _run([opts.artifact, *opts.args, *extra,
                                  "--metrics-out", path])
            with open(path, "rb") as handle:
                metrics[mode] = handle.read()

        digests = {mode: _DIGEST.findall(out)
                   for mode, out in outputs.items()}
        footer = any(digests.values())
        if footer and not digests["serial"]:
            return _fail("no digest= line in the serial output")
        reports = {mode: _TIMING.sub("", out)
                   for mode, out in outputs.items()}
        for mode in ("jobs2", "warm"):
            if footer and digests[mode] != digests["serial"]:
                return _fail(f"{mode} digests {digests[mode]} differ from "
                             f"serial {digests['serial']}")
            if not footer and reports[mode] != reports["serial"]:
                return _fail(f"{mode} report differs from serial")
            if metrics[mode] != metrics["serial"]:
                return _fail(f"{mode} --metrics-out differs from serial")
        if footer and "executed=0" not in outputs["warm"]:
            return _fail("warm-cache rerun executed simulations")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    compared = "digests" if footer else "reports"
    print(f"digest-smoke {opts.artifact}: serial, --jobs 2 and warm-cache "
          f"{compared} and metrics identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
