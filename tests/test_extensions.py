"""Tests for the future-work extensions: FEC baseline and cellular
hedging."""

import math

import numpy as np
import pytest

from repro.analysis.windows import worst_window_loss
from repro.channel import cellular
from repro.channel.cellular import CellularLink
from repro.channel.gilbert import GilbertParams
from repro.channel.link import LinkConfig, WifiLink
from repro.channel.mobility import Position, StaticPosition
from repro.core.config import StreamProfile
from repro.core.fec import FecConfig, apply_fec, render_fec_run
from repro.core.packet import LinkTrace, merge_traces
from repro.scenarios import build_scenario
from repro.sim.random import RandomRouter

SHORT = StreamProfile(duration_s=10.0)


def trace_of(losses, name="t", delay=0.005, spacing=0.02):
    delivered = [not bool(x) for x in losses]
    delays = [delay if d else math.nan for d in delivered]
    return LinkTrace(name, np.arange(len(losses)) * spacing,
                     delivered, delays)


def parity_of(delivered_flags, spacing=0.1):
    delays = [0.005 if d else math.nan for d in delivered_flags]
    return LinkTrace("parity", np.arange(len(delivered_flags)) * spacing,
                     delivered_flags, delays)


# --------------------------------------------------------------------- FEC

def test_fec_recovers_isolated_loss():
    data = trace_of([0, 1, 0, 0, 0])          # one loss in the block
    parity = parity_of([True])
    decoded = apply_fec(data, parity, FecConfig(block_size=5))
    assert decoded.delivered.all()


def test_fec_cannot_recover_burst():
    data = trace_of([0, 1, 1, 0, 0])          # two losses in one block
    parity = parity_of([True])
    decoded = apply_fec(data, parity, FecConfig(block_size=5))
    assert not decoded.delivered[1]
    assert not decoded.delivered[2]


def test_fec_needs_parity():
    data = trace_of([0, 1, 0, 0, 0])
    parity = parity_of([False])               # parity lost too
    decoded = apply_fec(data, parity, FecConfig(block_size=5))
    assert not decoded.delivered[1]


def test_fec_decode_deadline_enforced():
    data = trace_of([1, 0, 0, 0, 0], spacing=0.03)
    # Block completes only at the last packet (t=120 ms) + delay; with
    # the 100 ms deadline the first packet cannot be recovered in time.
    parity = parity_of([True], spacing=0.1)
    decoded = apply_fec(data, parity, FecConfig(block_size=5))
    assert not decoded.delivered[0]


def test_fec_overhead_constant():
    with pytest.raises(ValueError):
        FecConfig(block_size=0)


def test_fec_render_and_decode_on_real_link():
    config = LinkConfig(
        name="w", ap_position=Position(0, 0),
        gilbert=GilbertParams(mean_good_s=2.0, mean_bad_s=0.3,
                              loss_good=0.0, loss_bad=0.98))
    link = WifiLink(config, RandomRouter(3),
                    mobility=StaticPosition(Position(8, 0)))
    data, parity = render_fec_run(link, SHORT)
    decoded = apply_fec(data, parity)
    assert decoded.loss_rate <= data.loss_rate


def test_fec_loses_to_cross_link_on_bursty_channel():
    """The headline contrast: burst losses defeat single-link coding but
    not cross-link replication."""
    def wifi(seed, name):
        config = LinkConfig(
            name=name, ap_position=Position(0, 0),
            gilbert=GilbertParams(mean_good_s=1.5, mean_bad_s=0.4,
                                  loss_good=0.0, loss_bad=0.99))
        return WifiLink(config, RandomRouter(seed),
                        mobility=StaticPosition(Position(10, 0)))

    data, parity = render_fec_run(wifi(10, "A"), SHORT)
    fec_trace = apply_fec(data, parity)

    link_a, link_b = wifi(10, "A"), wifi(11, "B")
    merged = merge_traces([link_a.generate_trace(SHORT),
                           link_b.generate_trace(SHORT)])
    assert merged.loss_rate < fec_trace.loss_rate


# ---------------------------------------------------------------- cellular

def test_cellular_low_steady_loss(monkeypatch):
    monkeypatch.setattr(cellular, "OUTAGE", GilbertParams(
        mean_good_s=1e9, mean_bad_s=0.01, loss_good=0.0, loss_bad=0.0))
    link = CellularLink(RandomRouter(1))
    trace = link.generate_trace(SHORT)
    assert trace.loss_rate < 0.01


def test_cellular_delay_higher_than_wifi():
    link = CellularLink(RandomRouter(2))
    trace = link.generate_trace(SHORT)
    delays = trace.delays[trace.delivered]
    assert np.median(delays) > 0.030


def test_cellular_outages_are_long(monkeypatch):
    monkeypatch.setattr(cellular, "OUTAGE", GilbertParams(
        mean_good_s=5.0, mean_bad_s=2.0, loss_good=0.0, loss_bad=1.0))
    link = CellularLink(RandomRouter(3))
    trace = link.generate_trace(StreamProfile(duration_s=60.0))
    from repro.analysis.bursts import burst_lengths
    bursts = burst_lengths(trace)
    assert bursts and max(bursts) > 20      # multi-second outage


def test_cross_technology_hedging_beats_either():
    """Under the microwave scenario both 2.4 GHz WiFi links share the
    oven's fate, so WiFi+WiFi replication gains little; an LTE secondary
    escapes the impairment (the ``test_ablation_cross_technology``
    setup, shortened).  Measured: worst-5 s loss 15.9% for WiFi+WiFi
    and 0.3% for WiFi+LTE."""
    profile = StreamProfile(duration_s=60.0)
    root = RandomRouter(22)
    wifi_only, with_lte = [], []
    for i in range(4):
        router = root.fork(f"xtech-{i}")
        link_a, link_b = build_scenario("microwave", router)
        lte = CellularLink(router)
        trace_a = link_a.generate_trace(profile)
        wifi_only.append(100 * worst_window_loss(
            merge_traces([trace_a, link_b.generate_trace(profile)])))
        with_lte.append(100 * worst_window_loss(
            merge_traces([trace_a, lte.generate_trace(profile)])))
    assert np.mean(wifi_only) > 10.0
    assert np.mean(with_lte) < np.mean(wifi_only) / 4
