"""Tests for the 802.11 PHY error model and MAC retry engine."""

import numpy as np
import pytest

from repro.sim import RandomRouter
from repro.wifi import mac as mac_module
from repro.wifi.mac import CONTENTION_WINDOWS, RETRY_LIMIT, MacLayer
from repro.wifi.phy import (
    MCS_TABLE,
    TARGET_PER,
    airtime_s,
    effective_snr_db,
    frame_error_prob,
    select_mcs,
)


def rng(seed=0):
    return RandomRouter(seed).stream("mac")


# ------------------------------------------------------------------- PHY

def test_per_monotone_in_snr():
    mcs = MCS_TABLE[3]
    pers = [frame_error_prob(snr, mcs) for snr in range(-5, 40)]
    assert all(a >= b for a, b in zip(pers, pers[1:]))


def test_per_half_at_threshold():
    for mcs in MCS_TABLE:
        assert frame_error_prob(mcs.snr_mid_db, mcs) == pytest.approx(0.5)


def test_per_bounds():
    mcs = MCS_TABLE[7]
    assert 0.0 <= frame_error_prob(-50.0, mcs) <= 1.0
    assert frame_error_prob(80.0, mcs) < 1e-3


def test_select_mcs_increases_with_snr():
    low = select_mcs(5.0)
    high = select_mcs(35.0)
    assert high.index > low.index


def test_select_mcs_floor_is_mcs0():
    assert select_mcs(-20.0).index == 0


def test_select_mcs_respects_target_per():
    mcs = select_mcs(15.0)
    assert frame_error_prob(15.0, mcs) <= TARGET_PER


def test_effective_snr_combines_terms():
    assert effective_snr_db(20.0, -5.0, 3.0) == pytest.approx(12.0)


def test_airtime_decreases_with_rate():
    slow = airtime_s(1500, MCS_TABLE[0])
    fast = airtime_s(1500, MCS_TABLE[7])
    assert fast < slow
    assert fast > 0


# ------------------------------------------------------------------- MAC

def test_perfect_channel_delivers_first_attempt():
    mac = MacLayer(rng(1))
    result = mac.transmit(0.0, lambda t: 0.0)
    assert result.delivered
    assert result.attempts == 1


def test_dead_channel_exhausts_retries():
    mac = MacLayer(rng(2))
    result = mac.transmit(0.0, lambda t: 1.0)
    assert not result.delivered
    assert result.attempts == RETRY_LIMIT + 1


def test_retry_recovers_transient_loss():
    """Loss prob drops after 1 ms: retries within the burst recover it."""
    mac = MacLayer(rng(3))
    outcomes = [mac.transmit(0.0, lambda t: 1.0 if t < 0.001 else 0.0)
                for _ in range(50)]
    assert all(o.delivered for o in outcomes)
    assert any(o.attempts > 1 for o in outcomes)


def test_service_time_grows_with_attempts():
    mac = MacLayer(rng(4))
    one = mac.transmit(0.0, lambda t: 0.0)
    mac_fail = MacLayer(rng(5))
    eight = mac_fail.transmit(0.0, lambda t: 1.0)
    assert eight.service_time_s > one.service_time_s


def test_loss_rate_with_retries_matches_theory(monkeypatch):
    """iid per-attempt loss p, R retries -> residual loss p^(R+1)."""
    p = 0.5
    # three retries: the first four retry stages
    monkeypatch.setattr(mac_module, "CONTENTION_WINDOWS",
                        CONTENTION_WINDOWS[:4])
    mac = MacLayer(rng(6))
    n = 4000
    losses = sum(not mac.transmit(0.0, lambda t: p).delivered
                 for _ in range(n))
    expected = p ** 4
    assert losses / n == pytest.approx(expected, abs=0.015)


def test_airtime_override_used():
    mac = MacLayer(rng(7))
    result = mac.transmit(0.0, lambda t: 0.0, airtime_s=0.5)
    assert result.service_time_s >= 0.5


def test_attempt_times_passed_to_loss_model(monkeypatch):
    seen = []
    # two retries: the first three retry stages
    monkeypatch.setattr(mac_module, "CONTENTION_WINDOWS",
                        CONTENTION_WINDOWS[:3])
    mac = MacLayer(rng(8))

    def probe(t):
        seen.append(t)
        return 1.0

    mac.transmit(10.0, probe)
    assert len(seen) == 3
    assert all(t >= 10.0 for t in seen)
    assert seen == sorted(seen)
