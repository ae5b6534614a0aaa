"""Tests for PSM signalling, virtual adapters and link switching."""

import pytest

from repro.core.config import APConfig
from repro.sim import RandomRouter, Simulator
from repro.wifi.ap import AccessPoint
from repro.wifi.association import WifiManager
from repro.wifi import psm as psm_module
from repro.wifi.psm import PowerSaveClient
from repro.wifi.scan import BssEntry, ScanResult

from tests.test_wifi_ap import PerfectLink


def make_ap(sim, name="ap"):
    return AccessPoint(sim, name, PerfectLink(), APConfig())


def rng(seed=0):
    return RandomRouter(seed).stream("psm")


# --------------------------------------------------------------------- PSM

def test_psm_sleep_sets_ap_state(monkeypatch):
    monkeypatch.setattr(psm_module, "FRAME_LOSS_PROB", 0.0)
    sim = Simulator()
    ap = make_ap(sim)
    done = []
    psm = PowerSaveClient(sim, ap, rng())
    sim.call_at(0.0, psm.send_sleep, lambda: done.append(sim.now))
    sim.run()
    assert not ap.client_awake
    assert done and done[0] == pytest.approx(0.0003)


def test_psm_wake_sets_ap_state(monkeypatch):
    monkeypatch.setattr(psm_module, "FRAME_LOSS_PROB", 0.0)
    sim = Simulator()
    ap = make_ap(sim)
    ap.client_sleep()
    psm = PowerSaveClient(sim, ap, rng())
    sim.call_at(0.0, psm.send_wake, lambda: None)
    sim.run()
    assert ap.client_awake


def test_psm_retries_on_frame_loss(monkeypatch):
    # Force heavy loss: retries must accumulate.
    monkeypatch.setattr(psm_module, "FRAME_LOSS_PROB", 0.9)
    sim = Simulator()
    ap = make_ap(sim)
    psm = PowerSaveClient(sim, ap, rng(seed=3))
    sim.call_at(0.0, psm.send_sleep, lambda: None)
    sim.run()
    assert psm.retries > 0
    assert psm.exchanges == psm.retries + 1 or psm.exchanges == 6


# ----------------------------------------------------------- WifiManager

def build_manager(sim, monkeypatch, seed=0):
    """Two associated adapters whose PSM null frames are never lost."""
    monkeypatch.setattr(psm_module, "FRAME_LOSS_PROB", 0.0)
    manager = WifiManager(sim, rng(seed))
    ap_a = make_ap(sim, "apA")
    ap_b = make_ap(sim, "apB")
    manager.create_adapter("primary")
    manager.create_adapter("secondary")
    manager.associate("primary", ap_a, channel=1)
    manager.associate("secondary", ap_b, channel=11)
    return manager, ap_a, ap_b


def test_adapters_have_unique_macs():
    sim = Simulator()
    manager = WifiManager(sim, rng())
    a = manager.create_adapter("x")
    b = manager.create_adapter("y")
    assert a.mac_address != b.mac_address


def test_duplicate_adapter_name_rejected():
    sim = Simulator()
    manager = WifiManager(sim, rng())
    manager.create_adapter("x")
    with pytest.raises(ValueError):
        manager.create_adapter("x")


def test_new_associations_start_asleep(monkeypatch):
    sim = Simulator()
    manager, ap_a, ap_b = build_manager(sim, monkeypatch)
    assert not ap_a.client_awake
    assert not ap_b.client_awake


def test_activate_wakes_primary(monkeypatch):
    sim = Simulator()
    manager, ap_a, ap_b = build_manager(sim, monkeypatch)
    manager.activate("primary")
    assert ap_a.client_awake
    assert manager.active_adapter == "primary"


def test_switch_sequence_and_latency(monkeypatch):
    sim = Simulator()
    manager, ap_a, ap_b = build_manager(sim, monkeypatch)
    manager.activate("primary")
    done_at = []
    sim.call_at(1.0, manager.switch_to, "secondary",
                lambda: done_at.append(sim.now))
    sim.run()
    assert not ap_a.client_awake
    assert ap_b.client_awake
    assert manager.active_adapter == "secondary"
    # sleep exchange (0.3 ms) + retune (2.3 ms) + wake exchange (0.3 ms)
    assert done_at[0] == pytest.approx(1.0029, abs=1e-6)
    assert manager.off_channel_time_s == pytest.approx(0.0029, abs=1e-6)


def test_switch_to_active_adapter_is_noop(monkeypatch):
    sim = Simulator()
    manager, *_ = build_manager(sim, monkeypatch)
    manager.activate("primary")
    assert manager.switch_to("primary") is False
    assert manager.switch_count == 0


def test_concurrent_switch_rejected(monkeypatch):
    sim = Simulator()
    manager, *_ = build_manager(sim, monkeypatch)
    manager.activate("primary")
    results = []
    sim.call_at(1.0, lambda: results.append(
        manager.switch_to("secondary")))
    sim.call_at(1.0005, lambda: results.append(
        manager.switch_to("primary")))   # mid-switch
    sim.run()
    assert results == [True, False]


def test_switch_to_unassociated_raises():
    sim = Simulator()
    manager = WifiManager(sim, rng())
    manager.create_adapter("primary")
    with pytest.raises(ValueError):
        manager.switch_to("primary")


def test_switch_counts_accumulate(monkeypatch):
    sim = Simulator()
    manager, *_ = build_manager(sim, monkeypatch)
    manager.activate("primary")
    sim.call_at(1.0, manager.switch_to, "secondary", None)
    sim.call_at(2.0, manager.switch_to, "primary", None)
    sim.run()
    assert manager.switch_count == 2
    assert manager.off_channel_time_s == pytest.approx(0.0058, abs=1e-5)


# -------------------------------------------------------------------- scan

def entries():
    return [
        BssEntry("aa:1", "corp", 1, "2.4GHz", -50.0),
        BssEntry("aa:2", "corp", 1, "2.4GHz", -61.0),   # virtual AP, same ch
        BssEntry("aa:3", "corp", 11, "2.4GHz", -70.0),
    ]


def test_scan_counts_connectable_bssids():
    scan = ScanResult("office", entries())
    assert scan.n_bssids == 3


def test_scan_counts_distinct_channels():
    scan = ScanResult("office", entries())
    assert scan.n_channels == 2   # channels 1 and 11
