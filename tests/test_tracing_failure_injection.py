"""Event tracing tests plus failure injection: the system under hostile
conditions (PSM frame loss, dead secondaries, pathological configs)."""

import numpy as np
import pytest

from repro.channel.gilbert import GilbertParams
from repro.core.config import APConfig, ClientConfig, StreamProfile
from repro.core import client as client_module
from repro.core.controller import run_session
from repro.sim import Simulator
from repro.sim.tracing import EventLog, TraceEvent
from repro.wifi import psm as psm_module

from tests.test_client_controller import (
    clean_gilbert,
    link_factory,
    outage_gilbert,
)

SHORT = StreamProfile(duration_s=10.0)


# ----------------------------------------------------------------- tracing

def test_event_log_records_and_queries():
    log = EventLog()
    log.record(1.0, "client", "loss-declared", "seq=5")
    log.record(2.0, "client", "recovered", "seq=5")
    assert len(log) == 2
    assert log.of_kind("recovered")[0].time == 2.0
    assert log.between(1.5, 2.5)[0].kind == "recovered"
    assert log.counts() == {"loss-declared": 1, "recovered": 1}


def test_event_log_between_is_half_open():
    """Regression: ``between`` was inclusive on both ends, so an event
    landing exactly on a window boundary appeared in two adjacent
    windows.  With half-open ``[start, end)`` adjacent slices tile."""
    log = EventLog()
    for t in (0.0, 2.5, 5.0, 7.5, 10.0):
        log.record(t, "x", "tick")
    first = log.between(0.0, 5.0)
    second = log.between(5.0, 10.0)
    assert [e.time for e in first] == [0.0, 2.5]
    assert [e.time for e in second] == [5.0, 7.5]
    # No event is double-counted across the tiling...
    assert len(first) + len(second) + len(log.between(10.0, 15.0)) \
        == len(log)
    # ...and the start boundary is inclusive, the end exclusive.
    assert [e.time for e in log.between(2.5, 2.5)] == []


def test_event_log_timeline_renders():
    log = EventLog()
    for i in range(60):
        log.record(float(i), "src", "tick", f"n={i}")
    text = log.render_timeline(limit=10)
    assert "elided" in text
    assert "n=59" in text


def test_session_emits_events():
    log = EventLog()
    result = run_session(
        link_factory(outage_gilbert(), clean_gilbert()),
        mode="diversifi-ap", profile=SHORT, seed=3, event_log=log)
    counts = log.counts()
    assert counts.get("loss-declared", 0) > 0
    assert counts.get("switch-to-secondary", 0) > 0
    assert counts.get("recovered", 0) > 0
    assert (counts["recovered"]
            == result.client_stats.recovered)


def test_session_clean_channel_quiet_log():
    log = EventLog()
    run_session(link_factory(clean_gilbert(), clean_gilbert()),
                mode="diversifi-ap", profile=SHORT, seed=4,
                event_log=log)
    assert log.counts().get("loss-declared", 0) == 0


# -------------------------------------------------------- failure injection

def run_with_psm_loss(monkeypatch, frame_loss_prob, seed=5):
    """A session whose PSM null frames are frequently lost."""
    from repro.core.client import DiversiFiClient
    from repro.core.config import G711_PROFILE
    from repro.sim.random import RandomRouter
    from repro.traffic.voip import VoipSender
    from repro.wifi.ap import AccessPoint
    from repro.wifi.association import WifiManager
    from repro.net.lan import LanSegment

    monkeypatch.setattr(psm_module, "FRAME_LOSS_PROB", frame_loss_prob)
    sim = Simulator()
    router = RandomRouter(seed)
    factory = link_factory(outage_gilbert(), clean_gilbert())
    link_p, link_s = factory(router)
    config = ClientConfig().for_profile(SHORT)
    ap_config = APConfig(max_queue_len=config.ap_queue_len)
    primary = AccessPoint(sim, "primary", link_p, ap_config)
    secondary = AccessPoint(sim, "secondary", link_s, ap_config)
    manager = WifiManager(sim, router.stream("psm"))
    manager.create_adapter("primary")
    manager.create_adapter("secondary")
    manager.associate("primary", primary, channel=1)
    manager.associate("secondary", secondary, channel=11)
    client = DiversiFiClient(sim, manager, SHORT, config)
    primary.set_receiver(client.on_receive)
    secondary.set_receiver(client.on_receive)
    sender = VoipSender(sim, SHORT)
    lan_p = LanSegment(sim, primary.wired_arrival, router.stream("l1"))
    lan_s = LanSegment(sim, secondary.wired_arrival, router.stream("l2"))
    sender.attach(lan_p.send)
    sender.attach(lan_s.send)
    client.start()
    sender.start()
    sim.run(until=SHORT.duration_s + 1.0)
    return client


def test_heavy_psm_frame_loss_still_functions(monkeypatch):
    """With 40% null-frame loss the retry logic (the paper's driver fix)
    keeps the system working, just with slower switches."""
    client = run_with_psm_loss(monkeypatch, 0.4)
    assert client.stats.recovered > 0
    eff = client.trace.effective_trace(deadline=0.100)
    assert eff.loss_rate < 0.05


def test_psm_loss_degrades_gracefully(monkeypatch):
    clean = run_with_psm_loss(monkeypatch, 0.0, seed=6)
    noisy = run_with_psm_loss(monkeypatch, 0.6, seed=6)
    clean_loss = clean.trace.effective_trace(0.100).loss_rate
    noisy_loss = noisy.trace.effective_trace(0.100).loss_rate
    # More PSM retries -> slower switches -> at worst a modest penalty.
    assert noisy_loss <= clean_loss + 0.05


def test_dead_secondary_no_worse_than_baseline():
    """DiversiFi with a dead secondary must match primary-only (minus the
    tiny off-channel cost of futile visits)."""
    dead = GilbertParams(mean_good_s=1e-3, mean_bad_s=1e9,
                         loss_good=1.0, loss_bad=1.0)
    baseline = run_session(
        link_factory(outage_gilbert(), dead),
        mode="primary-only", profile=SHORT, seed=7)
    hedged = run_session(
        link_factory(outage_gilbert(), dead),
        mode="diversifi-ap", profile=SHORT, seed=7)
    base_loss = baseline.effective_trace().loss_rate
    hedged_loss = hedged.effective_trace().loss_rate
    assert hedged_loss <= base_loss + 0.03
    assert hedged.client_stats.recovered == 0


def test_both_links_dead_total_loss():
    dead = GilbertParams(mean_good_s=1e-3, mean_bad_s=1e9,
                         loss_good=1.0, loss_bad=1.0)
    result = run_session(link_factory(dead, dead),
                         mode="diversifi-ap", profile=SHORT, seed=8)
    assert result.effective_trace().loss_rate == 1.0


def test_zero_length_ap_queue_disables_recovery():
    result = run_session(
        link_factory(outage_gilbert(), clean_gilbert()),
        mode="diversifi-ap", profile=SHORT, seed=9,
        ap_config=APConfig(drop_policy="head", max_queue_len=1,
                           hardware_queue_batch=1))
    # A 1-deep queue purges the lost packet long before the
    # just-in-time switch arrives.
    assert result.client_stats.recovered <= 2


def test_pathological_switch_latency(monkeypatch):
    """A 90 ms switch latency makes just-in-time recovery impossible;
    the client must not crash and losses simply stand."""
    monkeypatch.setattr(client_module, "LINK_SWITCH_LATENCY_S", 0.090)
    result = run_session(
        link_factory(outage_gilbert(), clean_gilbert()),
        mode="diversifi-ap", profile=SHORT, seed=10)
    assert result.stream.n_packets == SHORT.n_packets  # ran to completion


def test_high_rate_profile_session():
    """The full client/AP stack also runs the 5 Mbps profile (scaled
    client constants via for_profile)."""
    profile = StreamProfile(name="hr", packet_size_bytes=1000,
                            inter_packet_spacing_s=0.0016,
                            duration_s=2.0)
    result = run_session(
        link_factory(outage_gilbert(), clean_gilbert()),
        mode="diversifi-ap", profile=profile, seed=11)
    assert result.stream.n_packets == profile.n_packets
    assert result.effective_trace().loss_rate < 0.2
