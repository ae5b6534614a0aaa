"""Tests for traffic sources: the VoIP sender and TCP Reno."""

import numpy as np
import pytest

from repro.core.config import G711_PROFILE, StreamProfile
from repro.sim import RandomRouter, Simulator
from repro.traffic.tcp import TcpReno
from repro.traffic.voip import VoipSender


# ------------------------------------------------------------ VoIP sender

def test_voip_sender_emits_full_stream():
    sim = Simulator()
    profile = StreamProfile(duration_s=1.0)   # 50 packets
    got = []
    sender = VoipSender(sim, profile)
    sender.attach(lambda p: got.append((p.seq, sim.now)))
    sender.start()
    sim.run()
    assert len(got) == 50
    assert got[0] == (0, 0.0)
    assert got[-1][0] == 49
    assert got[-1][1] == pytest.approx(49 * 0.020)


def test_voip_sender_replicates_to_all_sinks():
    sim = Simulator()
    profile = StreamProfile(duration_s=0.1)
    a, b = [], []
    sender = VoipSender(sim, profile)
    sender.attach(a.append)
    sender.attach(b.append)
    sender.start()
    sim.run()
    assert len(a) == len(b) == profile.n_packets
    assert [p.seq for p in b] == list(range(profile.n_packets))
    assert a == b


def test_voip_sender_without_sinks_raises():
    sim = Simulator()
    with pytest.raises(RuntimeError):
        VoipSender(sim, G711_PROFILE).start()


# --------------------------------------------------------------- TCP Reno

def run_tcp(duration=20.0, radio=lambda: True, loss=0.002, seed=0):
    sim = Simulator()
    tcp = TcpReno(sim, RandomRouter(seed).stream("tcp"),
                  duration_s=duration, radio_present=radio,
                  wireless_loss_prob=loss)
    tcp.start()
    sim.run(until=duration + 1.0)
    return tcp


def test_tcp_approaches_capacity():
    tcp = run_tcp(duration=30.0, loss=0.0)
    assert tcp.stats.throughput_mbps > 3.5   # of 4.6 Mbps capacity


def test_tcp_cannot_exceed_capacity():
    tcp = run_tcp(duration=20.0, loss=0.0)
    assert tcp.stats.throughput_bps <= 4.6e6 * 1.02


def test_tcp_loss_reduces_throughput():
    clean = run_tcp(duration=20.0, loss=0.0, seed=1)
    lossy = run_tcp(duration=20.0, loss=0.02, seed=1)
    assert lossy.stats.throughput_bps < clean.stats.throughput_bps
    assert lossy.stats.retransmits > 0


def test_tcp_radio_absence_costs_throughput():
    """A radio absent 20% of the time must cost roughly that much."""
    sim_time = {"now": 0.0}

    clean = run_tcp(duration=30.0, loss=0.0, seed=2)

    sim = Simulator()
    # absent during [t, t+0.2) of every second
    tcp = TcpReno(sim, RandomRouter(2).stream("tcp"),
                  duration_s=30.0, wireless_loss_prob=0.0,
                  radio_present=lambda: (sim.now % 1.0) >= 0.2)
    tcp.start()
    sim.run(until=31.0)
    ratio = tcp.stats.throughput_bps / clean.stats.throughput_bps
    assert 0.6 < ratio < 0.95


def test_tcp_slow_start_grows_window():
    sim = Simulator()
    tcp = TcpReno(sim, RandomRouter(3).stream("tcp"), duration_s=2.0,
                  wireless_loss_prob=0.0)
    tcp.start()
    sim.run(until=3.0)
    assert tcp.cwnd_segments > 2.0


def test_tcp_double_start_rejected():
    sim = Simulator()
    tcp = TcpReno(sim, RandomRouter(4).stream("tcp"))
    tcp.start()
    with pytest.raises(RuntimeError):
        tcp.start()


def test_tcp_stats_throughput_zero_without_duration():
    from repro.traffic.tcp import TcpStats
    assert TcpStats(duration_s=0.0).throughput_bps == 0.0
