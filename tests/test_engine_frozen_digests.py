"""Frozen determinism digests of short Section 6 office sessions.

Each case runs one short ``run_session(build_office_pair, ...)`` under
``REPRO_SANITIZE=1`` and compares the sanitizer's event digest, the
executed-event count and the heap's peak depth with values recorded
before the engine moved to a tuple-keyed heap.  Any later change to the
engine's internals must reproduce them exactly: the same events, in the
same ``(time, seq)`` order, with cancelled entries counted in the peak
depth as before.  A deliberate change of behaviour re-records them.
"""

import pytest

from repro.core.config import StreamProfile
from repro.core.controller import run_session
from repro.obs.runtime import collecting
from repro.scenarios import build_office_pair

PROFILE = StreamProfile(duration_s=20.0)

#: (mode, with_tcp, seed) -> (determinism digest, events executed,
#: peak queue depth)
FROZEN = {
    ("diversifi-ap", False, 3): (
        "c8cda1e331192089fe01501042b532810cc2d6629a1f7bb19cbf58da3a1b1a26"
        "#6140", 6140, 2002),
    ("diversifi-mbox", False, 3): (
        "37686b8f6050a66fd09ba047dd30c836386835509c57c02a4118ac078b6a81f9"
        "#8254", 8254, 2002),
    ("primary-only", False, 3): (
        "f1b29d9de204d5719743999e69da0f4c588fcaca04c13f985ebf44480fffb3ff"
        "#3985", 3985, 1000),
    ("secondary-only", False, 3): (
        "dead69baed230f0c754bedf5ec0373bb598e8fc391a923c765c7e116e34b53b7"
        "#4000", 4000, 1000),
    ("diversifi-ap", True, 5): (
        "d3c28e7c0e6308f78763daaa62f7e062edd8a21a53ea52f90006fdb487fa9c08"
        "#23665", 23665, 2065),
    ("primary-only", True, 5): (
        "d338f2ccd6fca7fec2d4374d0642ecb2fc22d62b735de1b6035105f59fd31dab"
        "#21663", 21663, 1073),
}


@pytest.mark.parametrize("mode,with_tcp,seed", sorted(FROZEN))
def test_office_session_matches_frozen_digest(monkeypatch, mode, with_tcp,
                                              seed):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with collecting() as metrics:
        result = run_session(build_office_pair, mode=mode, profile=PROFILE,
                             seed=seed, with_tcp=with_tcp)
    executed = metrics.counter("sim.events_executed", mode=mode).value
    peak = metrics.gauge("sim.peak_queue_depth", mode=mode).value
    assert (result.determinism_digest, executed, peak) == FROZEN[
        (mode, with_tcp, seed)]
