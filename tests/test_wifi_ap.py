"""Tests for the access-point model: PSM buffering, drop policies,
hardware-queue behaviour."""

import math

import pytest

from repro.core.config import APConfig
from repro.core.packet import Packet
from repro.sim import Simulator


class PerfectLink:
    """A link that always delivers instantly (isolates queue mechanics)."""

    name = "perfect"

    def __init__(self, delay=0.001):
        self.delay = delay

    def transmit(self, send_time, size_bytes):
        return True, send_time + self.delay


class DeadLink(PerfectLink):
    """A link that never delivers."""

    def transmit(self, send_time, size_bytes):
        return False, math.nan


def make_ap(sim, policy="head", qlen=5, batch=1, link=None):
    from repro.wifi.ap import AccessPoint
    config = APConfig(drop_policy=policy, max_queue_len=qlen,
                      hardware_queue_batch=batch)
    return AccessPoint(sim, "ap", link or PerfectLink(), config)


def packet(seq):
    return Packet(seq=seq, send_time=0.0, size_bytes=160)


def test_awake_client_receives_immediately():
    sim = Simulator()
    ap = make_ap(sim)
    got = []
    ap.set_receiver(lambda p, t, name: got.append((p.seq, t)))
    sim.call_at(0.0, ap.wired_arrival, packet(0))
    sim.run()
    assert [seq for seq, _ in got] == [0]


def test_sleeping_client_packets_buffered():
    sim = Simulator()
    ap = make_ap(sim)
    got = []
    ap.set_receiver(lambda p, t, name: got.append(p.seq))
    ap.client_sleep()
    for i in range(3):
        sim.call_at(0.01 * i, ap.wired_arrival, packet(i))
    sim.run()
    assert got == []
    assert ap.psm_queue_len == 3


def test_wake_drains_buffer_in_order():
    sim = Simulator()
    ap = make_ap(sim)
    got = []
    ap.set_receiver(lambda p, t, name: got.append(p.seq))
    ap.client_sleep()
    for i in range(3):
        sim.call_at(0.0, ap.wired_arrival, packet(i))
    sim.call_at(1.0, ap.client_wake)
    sim.run()
    assert got == [0, 1, 2]


def test_head_drop_keeps_most_recent():
    sim = Simulator()
    ap = make_ap(sim, policy="head", qlen=3)
    got = []
    ap.set_receiver(lambda p, t, name: got.append(p.seq))
    ap.client_sleep()
    for i in range(6):
        sim.call_at(0.01 * i, ap.wired_arrival, packet(i))
    sim.call_at(1.0, ap.client_wake)
    sim.run()
    assert got == [3, 4, 5]
    assert ap.stats.buffer_drops == 3


def test_tail_drop_keeps_oldest():
    sim = Simulator()
    ap = make_ap(sim, policy="tail", qlen=3)
    got = []
    ap.set_receiver(lambda p, t, name: got.append(p.seq))
    ap.client_sleep()
    for i in range(6):
        sim.call_at(0.01 * i, ap.wired_arrival, packet(i))
    sim.call_at(1.0, ap.client_wake)
    sim.run()
    assert got == [0, 1, 2]
    assert ap.stats.buffer_drops == 3


def test_unknown_drop_policy_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        make_ap(sim, policy="random")


def test_arrivals_while_awake_go_to_hardware_queue():
    """Packets arriving during a wake period bypass the PSM buffer."""
    sim = Simulator()
    ap = make_ap(sim)
    got = []
    ap.set_receiver(lambda p, t, name: got.append(p.seq))
    ap.client_sleep()
    sim.call_at(0.0, ap.wired_arrival, packet(0))
    sim.call_at(0.5, ap.client_wake)
    sim.call_at(0.6, ap.wired_arrival, packet(1))
    sim.run()
    assert got == [0, 1]
    assert ap.stats.buffered == 1


def test_absent_client_transmissions_counted_not_delivered():
    """A packet committed to hardware is transmitted even if the client
    has switched away — the paper's wasteful-duplication mechanism."""
    sim = Simulator()
    link = PerfectLink()
    ap = make_ap(sim, link=link)
    got = []
    ap.set_receiver(lambda p, t, name: got.append(p.seq))
    sim.call_at(0.0, ap.wired_arrival, packet(0))
    # Client leaves the channel immediately; the frame is already queued.
    sim.call_at(0.0, ap.client_sleep)
    sim.run()
    assert got == []
    assert ap.stats.air_transmissions == 1
    assert ap.stats.absent_transmissions == 1


def test_failed_transmission_not_delivered():
    sim = Simulator()
    ap = make_ap(sim, link=DeadLink())
    got = []
    ap.set_receiver(lambda p, t, name: got.append(p.seq))
    sim.call_at(0.0, ap.wired_arrival, packet(0))
    sim.run()
    assert got == []
    assert ap.stats.air_transmissions == 1
    assert ap.stats.delivered == 0


def test_per_seq_transmission_counter():
    sim = Simulator()
    ap = make_ap(sim)
    ap.set_receiver(lambda p, t, name: None)
    sim.call_at(0.0, ap.wired_arrival, packet(7))
    sim.call_at(0.1, ap.wired_arrival, packet(7))
    sim.run()
    assert ap.stats.per_seq_transmissions[7] == 2


def test_service_serializes_transmissions():
    """Two packets must be served back to back, not in parallel."""
    sim = Simulator()
    link = PerfectLink(delay=0.002)
    ap = make_ap(sim, link=link)
    times = []
    ap.set_receiver(lambda p, t, name: times.append(t))
    sim.call_at(0.0, ap.wired_arrival, packet(0))
    sim.call_at(0.0, ap.wired_arrival, packet(1))
    sim.run()
    assert len(times) == 2
    assert times[1] >= times[0] + 0.0015  # at least one service time apart


def test_hardware_batch_limits_initial_handdown():
    """With batch=2, waking with 5 buffered packets hands down 2 first;
    the remainder follow as the hardware queue drains (client awake)."""
    sim = Simulator()
    ap = make_ap(sim, batch=2)
    got = []
    ap.set_receiver(lambda p, t, name: got.append(p.seq))
    ap.client_sleep()
    for i in range(5):
        sim.call_at(0.0, ap.wired_arrival, packet(i))
    sim.call_at(1.0, ap.client_wake)
    sim.run()
    assert got == [0, 1, 2, 3, 4]  # all eventually delivered while awake
