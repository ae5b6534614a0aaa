"""Tests for the QoE control plane: topology, link metrics, controller.

The topology/controller tests drive the event engine with *stub* links
(deterministic loss and delay, no channel randomness) so every assertion
is exact; the end-to-end determinism test uses the real runner task.
"""

import math

import pytest

from repro.core.config import StreamProfile
from repro.core.packet import Packet
from repro.experiments.controlplane import controller_run_metrics
from repro.net.controller import (
    CONTROLLER_MODES,
    ControllerConfig,
    QoeController,
)
from repro.net.middlebox import Middlebox
from repro.net.netmetrics import (
    PortSample,
    PortStats,
    PortStatsReader,
    RollingLinkMetrics,
)
from repro.net.topology import (
    ClientCapture,
    StreamSource,
    build_npath_topology,
)
from repro.sim import Simulator


class _StubLink:
    """A WifiLink stand-in with scripted loss and fixed delay."""

    def __init__(self, name, rssi=-50.0, loss=0.0, delay_s=0.004):
        self.name = name
        self.rssi = rssi
        self.loss = loss          # tests mutate this mid-run
        self.delay_s = delay_s
        self._count = 0

    def rssi_dbm(self, time):
        return self.rssi

    def transmit(self, send_time, size_bytes):
        # Deterministic thinning: every k-th transmission is lost when
        # loss = 1/k (exact, no RNG).
        self._count += 1
        lost = self.loss > 0 and (self._count * self.loss) % 1.0 < self.loss
        if lost:
            return False, math.nan
        return True, send_time + self.delay_s


def build_stub_topology(sim, n=3, losses=(), rssis=()):
    links = [
        _StubLink(f"ap{i}",
                  rssi=rssis[i] if i < len(rssis) else -50.0 - i,
                  loss=losses[i] if i < len(losses) else 0.0)
        for i in range(n)]
    client = ClientCapture(sim)
    topo = build_npath_topology(sim, links, client)
    return topo, client, links


# ---------------------------------------------------------- topology

def test_candidate_paths_enumerates_every_chain():
    sim = Simulator()
    topo, _, _ = build_stub_topology(sim, n=3)
    found = topo.paths
    assert [p.name for p in found] == ["ap0", "ap1", "ap2"]
    assert found[1].nodes == ("server", "core", "edge1", "ap1", "client")
    assert found[1].switches == ("core", "edge1")
    assert [p.radio for p in found] == ["ap0", "ap1", "ap2"]


def test_install_flow_single_path_forwards_end_to_end():
    sim = Simulator()
    topo, client, _ = build_stub_topology(sim, n=3)
    topo.install_flow("rt0", [topo.paths[0]])
    profile = StreamProfile(duration_s=1.0)
    StreamSource(sim, topo.ingress, profile, flow_id="rt0").start()
    sim.run()
    trace = client.trace(profile)
    assert int(trace.delivered.sum()) == profile.n_packets
    assert client.duplicates == 0


def test_install_flow_two_paths_replicates_and_dedups():
    sim = Simulator()
    topo, client, _ = build_stub_topology(sim, n=3)
    topo.install_flow("rt0", list(topo.paths[:2]))
    profile = StreamProfile(duration_s=1.0)
    StreamSource(sim, topo.ingress, profile, flow_id="rt0").start()
    sim.run()
    trace = client.trace(profile)
    assert int(trace.delivered.sum()) == profile.n_packets
    assert client.duplicates == profile.n_packets


def test_reinstall_replaces_rules_not_accumulates():
    sim = Simulator()
    topo, client, _ = build_stub_topology(sim, n=3)
    topo.install_flow("rt0", list(topo.paths))
    topo.install_flow("rt0", [topo.paths[0]])     # shrink back to one
    sim.call_at(0.0, topo.ingress,
                Packet(seq=0, send_time=0.0, flow_id="rt0"))
    sim.run()
    assert client.duplicates == 0


# -------------------------------------------------------- netmetrics

def test_port_sample_rates():
    sample = PortSample(sent=10, delivered=8, delay_sum_s=0.08,
                        queue_depth=2)
    assert sample.loss_rate == pytest.approx(0.2)
    assert sample.mean_delay_s == pytest.approx(0.01)
    empty = PortSample(sent=0, delivered=0, delay_sum_s=0.0,
                       queue_depth=0)
    assert empty.loss_rate == 0.0
    assert empty.mean_delay_s == 0.0


def test_port_stats_reader_returns_deltas():
    stats = PortStats()
    reader = PortStatsReader(stats)
    stats.record(True, 0.01)
    stats.record(False, 0.0)
    first = reader.poll()
    assert (first.sent, first.delivered) == (2, 1)
    stats.record(True, 0.02)
    second = reader.poll()
    assert (second.sent, second.delivered) == (1, 1)
    assert second.delay_sum_s == pytest.approx(0.02)


def test_rolling_metrics_ewma_and_empty_window():
    rolling = RollingLinkMetrics(alpha=0.5)
    rolling.update(PortSample(sent=10, delivered=5, delay_sum_s=0.05,
                              queue_depth=0))
    assert rolling.loss_rate == pytest.approx(0.5)   # first sample seeds
    rolling.update(PortSample(sent=10, delivered=10, delay_sum_s=0.1,
                              queue_depth=1))
    assert rolling.loss_rate == pytest.approx(0.25)  # EWMA toward 0
    before = rolling.loss_rate
    rolling.update(PortSample(sent=0, delivered=0, delay_sum_s=0.0,
                              queue_depth=0))
    assert rolling.loss_rate == before   # silence is not evidence


def test_rolling_mos_monotone_in_loss_and_delay():
    clean = RollingLinkMetrics().mos()
    assert isinstance(clean, float)
    assert clean > 4.0
    assert RollingLinkMetrics(loss_rate=0.05).mos() < clean
    assert RollingLinkMetrics(mean_delay_s=0.35).mos() < clean
    assert RollingLinkMetrics().mos(extra_one_way_delay_s=0.40) < clean


# -------------------------------------------------------- controller

def run_controller(sim, topo, mode, middlebox=None, duration=6.0,
                   config=None):
    config = config or ControllerConfig(probes_per_poll=10)
    ctl = QoeController(sim, topo, "rt0", mode, config=config,
                        middlebox=middlebox)
    if mode == "hedge":
        ctl.register_hedge_flow()
    ctl.start()
    profile = StreamProfile(duration_s=duration)
    StreamSource(sim, topo.ingress, profile, flow_id="rt0").start()
    sim.run(until=duration + 1.0)
    return ctl, profile


def test_controller_rejects_unknown_mode_and_missing_middlebox():
    sim = Simulator()
    topo, _, _ = build_stub_topology(sim, n=2)
    with pytest.raises(ValueError):
        QoeController(sim, topo, "rt0", "flood")
    with pytest.raises(ValueError):
        QoeController(sim, topo, "rt0", "hedge")    # no middlebox


def test_controller_initial_preference_orders_by_rssi():
    sim = Simulator()
    topo, _, _ = build_stub_topology(sim, n=3,
                                     rssis=(-70.0, -50.0, -60.0))
    ctl = QoeController(sim, topo, "rt0", "qoe-route")
    assert ctl.initial_preference() == ("ap1", "ap2", "ap0")


def test_qoe_route_reroutes_away_from_lossy_primary():
    sim = Simulator()
    # Strongest RSSI starts as primary but loses 30% of transmissions;
    # ap1 is clean.
    topo, client, _ = build_stub_topology(
        sim, n=3, losses=(1 / 3, 0.0, 0.0),
        rssis=(-40.0, -55.0, -60.0))
    ctl, profile = run_controller(sim, topo, "qoe-route")
    assert ctl.active_paths == ("ap1",)
    assert ctl.stats.reroutes >= 1
    assert ctl.stats.polls >= 5
    # After settling on the clean path, deliveries flow again.
    assert client.trace(profile).delivered[-50:].all()


def test_qoe_route_stays_put_without_margin():
    sim = Simulator()
    topo, _, _ = build_stub_topology(sim, n=3)   # all clean and equal
    ctl, _ = run_controller(sim, topo, "qoe-route")
    assert ctl.stats.reroutes == 0
    assert ctl.active_paths == ("ap0",)


def test_hedge_valve_opens_and_closes_with_primary_loss():
    sim = Simulator()
    topo, client, links = build_stub_topology(
        sim, n=3, losses=(0.0, 0.0, 0.0), rssis=(-40.0, -50.0, -60.0))
    mbox = Middlebox(sim)

    def lossy():
        links[0].loss = 0.5

    def clean():
        links[0].loss = 0.0

    sim.call_at(1.2, lossy)
    sim.call_at(3.2, clean)
    # A wider valve hysteresis band so the EWMA decays below the stop
    # threshold within the test's horizon.
    ctl, _ = run_controller(
        sim, topo, "hedge", middlebox=mbox, duration=8.0,
        config=ControllerConfig(probes_per_poll=10,
                                hedge_start_loss=0.1,
                                hedge_stop_loss=0.05))
    assert ctl.stats.mbox_starts >= 1
    assert ctl.stats.mbox_stops >= 1
    assert mbox.stats.forwarded > 0
    # The hedge pair stays fixed; no reroutes in hedge mode.
    assert ctl.stats.reroutes == 0
    assert ctl.active_paths == ("ap0", "ap1")


def test_replicate_activates_every_path_and_client_dedups():
    sim = Simulator()
    topo, client, _ = build_stub_topology(sim, n=3)
    ctl, profile = run_controller(sim, topo, "replicate")
    assert ctl.active_paths == ("ap0", "ap1", "ap2")
    trace = client.trace(profile)
    assert int(trace.delivered.sum()) == profile.n_packets
    # Two extra copies per packet arrive and are all deduplicated.
    assert client.duplicates == 2 * profile.n_packets


def test_probes_keep_inactive_path_metrics_fresh():
    sim = Simulator()
    topo, _, _ = build_stub_topology(sim, n=3, losses=(0.0, 0.0, 0.5))
    ctl, _ = run_controller(sim, topo, "qoe-route")
    # ap2 never carried flow traffic, yet its rolling loss reflects the
    # scripted 50% thinning because probes sample it every poll.
    assert ctl.path_metrics("ap2").loss_rate == pytest.approx(0.5,
                                                              abs=0.1)
    assert ctl.stats.probe_packets == ctl.stats.polls * 3 * 10


# ------------------------------------------------------ runner task

def test_controller_task_is_deterministic():
    kwargs = {
        "root_seed": 3, "scenario": "mp_office", "n_paths": 3,
        "profile": {"duration_s": 5.0},
        "controller": {"poll_interval_s": 0.5},
    }
    first = controller_run_metrics(0, **kwargs)
    second = controller_run_metrics(0, **kwargs)
    assert first == second
    assert set(first) == set(CONTROLLER_MODES)
    for mode in CONTROLLER_MODES:
        assert first[mode]["scenario"] == "mp_office"
        assert first[mode]["polls"] > 0


def test_controller_task_modes_share_channel_parameters():
    payload = controller_run_metrics(
        1, root_seed=9, scenario="mix", n_paths=3,
        profile={"duration_s": 5.0}, controller={})
    # The mix draw must agree across modes (same fork salt).
    names = {payload[mode]["scenario"] for mode in CONTROLLER_MODES}
    assert len(names) == 1
    # Replication sends every packet down every path.
    assert payload["replicate"]["copies_per_packet"] == pytest.approx(
        3.0, abs=0.05)
    assert payload["qoe-route"]["copies_per_packet"] == pytest.approx(
        1.0, abs=0.05)
