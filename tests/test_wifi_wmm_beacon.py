"""Tests for WMM priority queueing and beacon/TIM-driven PSM."""

import numpy as np
import pytest

from repro.core.config import APConfig
from repro.core.packet import Packet
from repro.sim import Simulator
from repro.wifi.ap import AccessPoint
from repro.wifi.beacon import (
    Beacon,
    BeaconScheduler,
    BEACON_INTERVAL_S,
    StandardPsmClient,
)
from repro.wifi.wmm import (
    AC_BEST_EFFORT,
    AC_VOICE,
    WmmAccessPoint,
)

from tests.test_wifi_ap import PerfectLink


def packet(seq, flow="rt0"):
    return Packet(seq=seq, send_time=0.0, flow_id=flow)


# --------------------------------------------------------------------- WMM

def test_wmm_classifies_flows():
    sim = Simulator()
    ap = WmmAccessPoint(sim, PerfectLink())
    ap.set_receiver(lambda p, t, n: None)
    sim.call_at(0.0, ap.wired_arrival, packet(0, "rt0"))
    sim.call_at(0.0, ap.wired_arrival, packet(1, "web"))
    sim.run()
    assert ap.stats.enqueued[AC_VOICE] == 1
    assert ap.stats.enqueued[AC_BEST_EFFORT] == 1


def test_wmm_voice_served_first():
    sim = Simulator()
    ap = WmmAccessPoint(sim, PerfectLink())
    got = []
    ap.set_receiver(lambda p, t, n: got.append(p.flow_id))
    # Enqueue bulk first, voice second: voice must still win the medium.
    for i in range(5):
        sim.call_at(0.0, ap.wired_arrival, packet(i, "web"))
    sim.call_at(0.0, ap.wired_arrival, packet(99, "rt0"))
    sim.run()
    # The first web packet may already be in service; voice goes next.
    assert got.index("rt0") <= 1


def test_wmm_disabled_is_fifo():
    sim = Simulator()
    ap = WmmAccessPoint(sim, PerfectLink(), enabled=False)
    got = []
    ap.set_receiver(lambda p, t, n: got.append(p.seq))
    for i in range(3):
        sim.call_at(0.0, ap.wired_arrival, packet(i, "web"))
    sim.call_at(0.0, ap.wired_arrival, packet(3, "rt0"))
    sim.run()
    assert got == [0, 1, 2, 3]


def test_wmm_voice_queueing_delay_lower_under_load():
    sim = Simulator()
    ap = WmmAccessPoint(sim, PerfectLink(), queue_limit=1000)
    ap.set_receiver(lambda p, t, n: None)
    # A standing backlog of best-effort plus periodic voice.
    for i in range(200):
        sim.call_at(0.001 * i, ap.wired_arrival, packet(i, "web"))
    for i in range(10):
        sim.call_at(0.02 * i, ap.wired_arrival, packet(1000 + i, "rt0"))
    sim.run()
    def mean_delay_s(ac):
        return ap.stats.queueing_delay_sum_s[ac] / ap.stats.transmitted[ac]

    assert mean_delay_s(AC_VOICE) < mean_delay_s(AC_BEST_EFFORT)


def test_wmm_protects_voice_on_overflow():
    sim = Simulator()
    ap = WmmAccessPoint(sim, PerfectLink(), queue_limit=5)
    ap.set_receiver(lambda p, t, n: None)
    # Fill with best effort at one instant, then voice arrives.
    for i in range(8):
        sim.call_at(0.0, ap.wired_arrival, packet(i, "web"))
    sim.call_at(0.0, ap.wired_arrival, packet(100, "rt0"))
    sim.run()
    assert ap.stats.dropped[AC_BEST_EFFORT] >= 1
    assert ap.stats.dropped[AC_VOICE] == 0
    assert ap.stats.transmitted[AC_VOICE] == 1


def test_wmm_cannot_fix_wireless_loss():
    """Section 2's claim: prioritization does nothing for air loss."""
    from tests.test_wifi_ap import DeadLink
    sim = Simulator()
    ap = WmmAccessPoint(sim, DeadLink())
    got = []
    ap.set_receiver(lambda p, t, n: got.append(p))
    sim.call_at(0.0, ap.wired_arrival, packet(0, "rt0"))
    sim.run()
    assert ap.stats.transmitted[AC_VOICE] == 1
    assert got == []          # priority granted, packet lost anyway


# ------------------------------------------------------------------ beacon

def make_psm_setup():
    sim = Simulator()
    ap = AccessPoint(sim, "ap", PerfectLink(), APConfig(
        drop_policy="head", max_queue_len=50))
    scheduler = BeaconScheduler(sim, ap)
    return sim, ap, scheduler


def test_beacons_emitted_at_interval():
    sim, ap, scheduler = make_psm_setup()
    seen = []
    scheduler.subscribe(lambda b: seen.append(b.timestamp))
    scheduler.start()
    sim.run(until=1.05)
    assert len(seen) == 11                         # t=0 .. t=1.024
    assert seen[1] - seen[0] == pytest.approx(BEACON_INTERVAL_S)


def test_tim_reflects_buffer_state():
    sim, ap, scheduler = make_psm_setup()
    ap.client_sleep()
    tims = []
    scheduler.subscribe(lambda b: tims.append(b.tim_set))
    scheduler.start()
    sim.call_at(0.15, ap.wired_arrival, packet(0))
    sim.run(until=0.35)
    assert tims[0] is False and tims[1] is False   # t=0, t=0.1024
    assert tims[2] is True                         # t=0.2048: buffered


def test_double_start_rejected():
    sim, ap, scheduler = make_psm_setup()
    scheduler.start()
    with pytest.raises(RuntimeError):
        scheduler.start()


def test_standard_psm_client_retrieves_at_beacon_granularity():
    sim, ap, scheduler = make_psm_setup()
    got = []
    ap.set_receiver(lambda p, t, n: got.append((p.seq, t)))
    client = StandardPsmClient(sim, ap, scheduler)
    scheduler.start()
    # A packet buffered just after a beacon waits for the next one.
    sim.call_at(0.11, ap.wired_arrival, packet(7))
    sim.run(until=0.5)
    assert len(got) == 1
    seq, arrival = got[0]
    assert seq == 7
    # Arrives only at/after the t=0.2048 beacon: > 90 ms late.
    assert arrival >= 0.2048
    assert client.polls == 1


def test_standard_psm_mean_latency_half_interval():
    """Retrieval latency ~ Uniform(0, interval): mean near interval/2 —
    which already blows a 100 ms one-way budget half of the time."""
    latencies = []
    for k in range(20):
        sim, ap, scheduler = make_psm_setup()
        got = []
        ap.set_receiver(lambda p, t, n: got.append(t))
        StandardPsmClient(sim, ap, scheduler)
        scheduler.start()
        arrival_time = 0.005 + k * 0.0049     # sweep the beacon phase
        sim.call_at(arrival_time, ap.wired_arrival, packet(0))
        sim.run(until=1.0)
        assert got
        latencies.append(got[0] - arrival_time)
    mean = np.mean(latencies)
    assert 0.03 < mean < 0.08
    assert max(latencies) > 0.09
