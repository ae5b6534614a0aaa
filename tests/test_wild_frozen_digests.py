"""Frozen digests of Section 4 wild calls rendered by the scalar loop.

Each case runs one ``section4.wild_run_metrics`` call under
``REPRO_SANITIZE=1`` inside a fresh metrics registry and hashes the
canonical JSON of the returned payload together with the ``mac.*``
instruments (attempts, retries, drops and the attempts-per-frame
histogram of both links).  The literals were recorded before the MAC
and fading streams were served from buffered blocks; any later change
to the per-packet channel/MAC loop must reproduce every packet outcome,
retry count and correlation value exactly.  A deliberate change of
behaviour re-records them.

The cases cover every wild scenario (``benign`` has Rician links on
both sides, ``weak_link`` drifts its shadowing, ``mobility`` walks),
MIMO selection diversity (Figure 2d, whose fading branches share one
stream), the high-rate profile (Figure 2e) and a standalone far Rician
link whose fades decide most attempts.
"""

import hashlib
import json

import pytest

from repro.channel.link import LinkConfig, WifiLink
from repro.channel.mobility import Position, StaticPosition
from repro.channel.pathloss import PathLossParams
from repro.core.config import StreamProfile
from repro.experiments import section4
from repro.obs.runtime import collecting
from repro.sim import RandomRouter

DELTAS = (0.0, 0.1)

#: case -> wild_run_metrics keyword arguments
CASES = {
    "benign": dict(index=0, scenario="benign"),
    "weak_link": dict(index=1, scenario="weak_link"),
    "mobility": dict(index=2, scenario="mobility"),
    "congestion": dict(index=3, scenario="congestion"),
    "microwave": dict(index=4, scenario="microwave"),
    "mimo2": dict(index=5, scenario="weak_link", mimo_branches=2),
    "highrate": dict(index=6, scenario="congestion", highrate=True,
                     duration_s=5.0),
}

#: case -> sha256 of the canonical payload + mac.* metrics JSON
FROZEN = {
    "benign": (
        "130474958eb5c32a63c13163dd5c6073"
        "3249d7db693b2cb49d6ea285301c0193"),
    "weak_link": (
        "95e68eea6499c899518af9247d5d68ac"
        "ace993fcd3601685d80f6be6774ed99f"),
    "mobility": (
        "3578280bee8a2b67cb68a9e812d1c0b8"
        "beb0461399f21a1657d99bca6bef19ef"),
    "congestion": (
        "5d0d20fba43e6ed81d203b9ab29c8eed"
        "4bad17696765657b0b1ff190a0bc33df"),
    "microwave": (
        "9fc48b8dea44e796e6fc80093b638c72"
        "1f2e38327c2389f08130942704db32f5"),
    "mimo2": (
        "747eb4ebbefb367034857b9db382f0bb"
        "408899d2c3d76d911148adb2930526d1"),
    "highrate": (
        "2f38d10cb692099da89a82499033dc69"
        "9121990b0610cb9779192aec0b5c4d74"),
    "rician": (
        "e6e89a79f231f1d27e2acff3fbd983d5"
        "e4f455c7a089a46aa295c2d39efde534"),
}


def _digest(payload, registry) -> str:
    mac = [entry for entry in registry.snapshot()["metrics"]
           if entry["name"].startswith("mac.")]
    assert mac, "the MAC recorded no instruments"
    blob = json.dumps({"payload": payload, "mac": mac}, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _wild_digest(kwargs) -> str:
    with collecting() as registry:
        payload = section4.wild_run_metrics(
            root_seed=7, deltas=DELTAS, **kwargs)
    return _digest(payload, registry)


def _rician_digest() -> str:
    config = LinkConfig(
        name="R", rician_k_db=3.0, coherence_time_s=0.02,
        pathloss=PathLossParams(exponent=3.6, shadowing_sigma_db=0.0))
    client = StaticPosition(Position(config.ap_position.x + 26.0,
                                     config.ap_position.y))
    with collecting() as registry:
        link = WifiLink(config, RandomRouter(13), mobility=client)
        trace = link.generate_trace(StreamProfile(duration_s=30.0))
    payload = {
        "delivered": trace.delivered.astype(int).tolist(),
        "delays": [None if d != d else d for d in trace.delays.tolist()],
    }
    return _digest(payload, registry)


@pytest.mark.parametrize("case", sorted(CASES))
def test_wild_call_matches_frozen_digest(monkeypatch, case):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert _wild_digest(CASES[case]) == FROZEN[case]


def test_rician_link_matches_frozen_digest(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert _rician_digest() == FROZEN["rician"]
