"""Tests for the 802.11 PHY error model and MAC retry engine."""

import numpy as np
import pytest

from repro.channel.gilbert import GilbertParams
from repro.channel.link import LinkConfig, WifiLink
from repro.obs.registry import COUNT_BUCKETS, MetricsRegistry
from repro.obs.runtime import collecting
from repro.sim import RandomRouter
from repro.wifi import mac as mac_module
from repro.wifi.mac import CONTENTION_WINDOWS, RETRY_LIMIT, MacLayer
from repro.wifi.phy import (
    MCS_TABLE,
    TARGET_PER,
    airtime_s,
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
    """A link scores each attempt at slow SNR + fade - interference."""
    class Fade:
        def fade_db(self, time):
            return -5.0

    class Penalty:
        def snr_penalty_db(self, time):
            return 3.0

        def extra_delay_s(self, time, rng):
            return 0.0

    link = WifiLink(LinkConfig(gilbert=GilbertParams(loss_good=0.0,
                                                     loss_bad=0.0)),
                    RandomRouter(0), interference=Penalty())
    link._fading = Fade()
    snr = link.mean_snr_db(0.5) + -5.0 - 3.0
    assert link.attempt_loss_prob(0.5) == pytest.approx(
        frame_error_prob(snr, link.mcs), rel=1e-12)


def test_airtime_decreases_with_rate():
    slow = airtime_s(1500, MCS_TABLE[0])
    fast = airtime_s(1500, MCS_TABLE[7])
    assert fast < slow
    assert fast > 0


# ------------------------------------------------------------------- MAC

def test_perfect_channel_delivers_first_attempt():
    mac = MacLayer(rng(1))
    delivered, attempts, _ = mac.transmit(0.0, lambda t: 0.0)
    assert delivered
    assert attempts == 1


def test_dead_channel_exhausts_retries():
    mac = MacLayer(rng(2))
    delivered, attempts, _ = mac.transmit(0.0, lambda t: 1.0)
    assert not delivered
    assert attempts == RETRY_LIMIT + 1


def test_retry_recovers_transient_loss():
    """Loss prob drops after 1 ms: retries within the burst recover it."""
    mac = MacLayer(rng(3))
    outcomes = [mac.transmit(0.0, lambda t: 1.0 if t < 0.001 else 0.0)
                for _ in range(50)]
    assert all(delivered for delivered, _, _ in outcomes)
    assert any(attempts > 1 for _, attempts, _ in outcomes)


def test_service_time_grows_with_attempts():
    mac = MacLayer(rng(4))
    *_, one_s = mac.transmit(0.0, lambda t: 0.0)
    mac_fail = MacLayer(rng(5))
    *_, eight_s = mac_fail.transmit(0.0, lambda t: 1.0)
    assert eight_s > one_s


def test_loss_rate_with_retries_matches_theory(monkeypatch):
    """iid per-attempt loss p, R retries -> residual loss p^(R+1)."""
    p = 0.5
    # three retries: the first four retry stages
    monkeypatch.setattr(mac_module, "CONTENTION_WINDOWS",
                        CONTENTION_WINDOWS[:4])
    mac = MacLayer(rng(6))
    n = 4000
    losses = sum(not mac.transmit(0.0, lambda t: p)[0]
                 for _ in range(n))
    expected = p ** 4
    assert losses / n == pytest.approx(expected, abs=0.015)


def test_airtime_override_used():
    mac = MacLayer(rng(7))
    *_, service_time_s = mac.transmit(0.0, lambda t: 0.0, airtime_s=0.5)
    assert service_time_s >= 0.5


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


# ------------------------------------------------------- MAC instruments

def _send(mac, n_frames):
    """``n_frames`` frames over a channel that loses attempts in bursts,
    so frames end on every attempt count and some are dropped."""
    outcomes = []
    for frame in range(n_frames):
        lossy = frame % 5 == 0
        outcomes.append(mac.transmit(
            float(frame), lambda t: 0.97 if lossy else 0.3))
    return outcomes


def _per_frame_registry(outcomes):
    """The mac.* instruments updated frame by frame."""
    reference = MetricsRegistry()
    attempts = reference.counter("mac.attempts", link="x")
    retries = reference.counter("mac.retries", link="x")
    dropped = reference.counter("mac.frames_dropped", link="x")
    per_frame = reference.histogram("mac.attempts_per_frame",
                                    bounds=COUNT_BUCKETS, link="x")
    for delivered, n_attempts, _ in outcomes:
        attempts.inc(n_attempts)
        retries.inc(n_attempts - 1)
        if not delivered:
            dropped.inc()
        per_frame.observe(n_attempts)
    return reference


def test_mac_tally_reads_out_per_frame_totals():
    with collecting() as registry:
        mac = MacLayer(rng(9), metric_labels={"link": "x"})
    outcomes = _send(mac, 400)
    assert {1, 2, 3, RETRY_LIMIT + 1} <= {
        attempts for _, attempts, _ in outcomes}
    assert not all(delivered for delivered, _, _ in outcomes)
    assert registry.get("mac.attempts", link="x").value == sum(
        attempts for _, attempts, _ in outcomes)
    assert registry.snapshot() == _per_frame_registry(outcomes).snapshot()
    # A second read counts nothing twice.
    assert registry.snapshot() == _per_frame_registry(outcomes).snapshot()
    assert registry.get("mac.frames_dropped", link="x").value == sum(
        not delivered for delivered, _, _ in outcomes)


def test_mac_tally_frames_after_a_read_appear_in_the_next():
    with collecting() as registry:
        mac = MacLayer(rng(10), metric_labels={"link": "x"})
    first = _send(mac, 50)
    assert registry.snapshot() == _per_frame_registry(first).snapshot()
    second = _send(mac, 70)
    assert (registry.snapshot()
            == _per_frame_registry(first + second).snapshot())


def test_mac_tally_merge_carries_a_pending_tally():
    with collecting() as source:
        mac = MacLayer(rng(11), metric_labels={"link": "x"})
    outcomes = _send(mac, 120)
    merged = MetricsRegistry().merge(source)
    assert merged.snapshot() == _per_frame_registry(outcomes).snapshot()
    # The merge read the source, so the tally is now in its instruments.
    assert source.snapshot() == merged.snapshot()


def test_mac_without_registry_keeps_no_instruments():
    mac = MacLayer(rng(12))
    assert len(_send(mac, 10)) == 10
    with collecting() as registry:
        pass
    assert len(registry) == 0
