"""Tests for the composed WifiLink and paired-link construction."""

import numpy as np
import pytest

from repro.channel.gilbert import GilbertParams
from repro.channel.interference import MicrowaveOven
from repro.channel.link import LinkConfig, WifiLink, paired_links
from repro.channel.mobility import Position, StaticPosition
from repro.channel.pathloss import PathLossParams
from repro.core.config import StreamProfile
from repro.scenarios import build_office_pair, build_scenario
from repro.sim import RandomRouter


SHORT = StreamProfile(duration_s=10.0)  # 500 packets


def make_link(seed=0, distance=8.0, **config_kwargs):
    config = LinkConfig(**config_kwargs)
    mobility = StaticPosition(Position(
        config.ap_position.x + distance, config.ap_position.y))
    return WifiLink(config, RandomRouter(seed), mobility=mobility)


def test_close_clean_link_lossless():
    link = make_link(distance=3.0, gilbert=GilbertParams(
        mean_good_s=1e9, mean_bad_s=0.01, loss_good=0.0, loss_bad=0.0))
    trace = link.generate_trace(SHORT)
    assert trace.loss_rate == 0.0
    assert np.all(trace.delays[trace.delivered] > 0)


def test_far_link_lossier_than_near():
    near = make_link(seed=1, distance=3.0)
    far = make_link(seed=1, distance=60.0,
                    pathloss=PathLossParams(exponent=3.8))
    near_trace = near.generate_trace(SHORT)
    far_trace = far.generate_trace(SHORT)
    assert far_trace.loss_rate >= near_trace.loss_rate


def test_rssi_reflects_distance():
    near = make_link(distance=2.0)
    far = make_link(distance=25.0)
    assert near.rssi_dbm(0.0) > far.rssi_dbm(0.0)


def test_outage_state_produces_burst_loss():
    # A chain pinned to BAD with certain loss: everything lost.
    link = make_link(gilbert=GilbertParams(
        mean_good_s=1e-3, mean_bad_s=1e9, loss_good=1.0, loss_bad=1.0))
    trace = link.generate_trace(SHORT)
    assert trace.loss_rate == 1.0


def test_trace_delay_includes_base_delay():
    link = make_link(distance=3.0, base_delay_s=0.004,
                     gilbert=GilbertParams(loss_good=0.0, loss_bad=0.0,
                                           mean_good_s=1e9, mean_bad_s=0.01))
    trace = link.generate_trace(SHORT)
    assert np.nanmin(trace.delays) >= 0.004


def test_determinism_same_seed():
    a = make_link(seed=7).generate_trace(SHORT)
    b = make_link(seed=7).generate_trace(SHORT)
    assert np.array_equal(a.delivered, b.delivered)


def test_different_seed_differs():
    # Use a moderately lossy link so outcomes can differ.
    params = dict(gilbert=GilbertParams(mean_good_s=1.0, mean_bad_s=0.5,
                                        loss_good=0.05, loss_bad=0.95))
    a = make_link(seed=8, **params).generate_trace(SHORT)
    b = make_link(seed=9, **params).generate_trace(SHORT)
    assert not np.array_equal(a.delivered, b.delivered)


def test_mcs_adapts_to_snr():
    near = make_link(distance=2.0)
    far = make_link(distance=40.0, pathloss=PathLossParams(exponent=3.8))
    assert near.mcs.index >= far.mcs.index


def test_out_of_order_queries_tolerated():
    """MAC retry bursts overrun the next packet's send time; the link's
    query clock must absorb that without raising."""
    link = make_link()
    link.attempt_loss_prob(1.0)
    # a query slightly in the past must not raise
    assert 0.0 <= link.attempt_loss_prob(0.995) <= 1.0


def test_paired_links_shared_interference():
    oven = MicrowaveOven(RandomRouter(3).stream("oven"),
                         episode_rate_hz=1000.0, episode_duration_s=1e9,
                         penalty_db=60.0)
    config_a = LinkConfig(name="A", ap_position=Position(0, 0))
    config_b = LinkConfig(name="B", ap_position=Position(30, 15))
    link_a, link_b = paired_links(config_a, config_b, RandomRouter(4),
                                  shared_interference=oven)
    # Both links see the oven's penalty at a radiating instant.
    t = 100.0  # well inside the always-on episode
    while not oven.is_radiating(t):
        t += 0.001
    assert link_a.attempt_loss_prob(t) > 0.9
    assert link_b.attempt_loss_prob(t) > 0.9


def test_paired_links_independent_by_default():
    config_a = LinkConfig(name="A")
    config_b = LinkConfig(name="B")
    link_a, link_b = paired_links(config_a, config_b, RandomRouter(5))
    trace_a = link_a.generate_trace(SHORT)
    trace_b = link_b.generate_trace(SHORT)
    # Different RNG streams: delay patterns must differ.
    assert not np.array_equal(trace_a.delays, trace_b.delays)


def test_mimo_link_fades_less():
    """4 spatial branches remove deep fades -> fewer PHY losses on a
    marginal link."""
    from repro.wifi.phy import PhyConfig
    common = dict(
        distance=30.0,
        pathloss=PathLossParams(exponent=3.6, shadowing_sigma_db=0.0),
        gilbert=GilbertParams(mean_good_s=1e9, mean_bad_s=0.01,
                              loss_good=0.0, loss_bad=0.0))
    siso = make_link(seed=10, phy=PhyConfig(n_spatial_branches=1), **common)
    mimo = make_link(seed=10, phy=PhyConfig(n_spatial_branches=4), **common)
    siso_trace = siso.generate_trace(SHORT)
    mimo_trace = mimo.generate_trace(SHORT)
    assert mimo_trace.loss_rate <= siso_trace.loss_rate


# ------------------------------------------------------ static-client SNR cache

def _uncached_twin(seed, **config_kwargs):
    """The same link as ``make_link(seed, ...)``, forced to recompute
    the slow SNR through ``mean_snr_db`` on every attempt."""
    twin = make_link(seed=seed, **config_kwargs)
    twin._static_snr_db = None
    return twin


def test_static_snr_cache_only_for_static_non_drifting_links():
    assert make_link()._static_snr_db is not None
    assert make_link(environment_drift=True)._static_snr_db is None
    for name, cached in (("benign", True), ("congestion", True),
                         ("microwave", True), ("weak_link", False),
                         ("mobility", False)):
        for link in build_scenario(name, RandomRouter(0)):
            assert (link._static_snr_db is not None) is cached, name
    for link in build_office_pair(RandomRouter(0)):
        assert link._static_snr_db is not None


def _recorded_attempts(link, profile):
    probs = []
    compute = link.attempt_loss_prob

    def record(time):
        probs.append(compute(time))
        return probs[-1]

    link.attempt_loss_prob = record   # the MAC looks it up per packet
    trace = link.generate_trace(profile)
    return probs, trace


def test_static_snr_cache_is_bit_identical_over_a_call():
    params = dict(distance=24.0,
                  gilbert=GilbertParams(mean_good_s=2.0, mean_bad_s=0.3,
                                        loss_good=0.01, loss_bad=0.9))
    link = make_link(seed=11, **params)
    twin = _uncached_twin(11, **params)
    assert link._static_snr_db is not None
    probs, trace = _recorded_attempts(link, StreamProfile(duration_s=60.0))
    twin_probs, twin_trace = _recorded_attempts(
        twin, StreamProfile(duration_s=60.0))
    assert len(probs) > trace.send_times.size   # MAC retries happened
    assert probs == twin_probs
    assert np.array_equal(trace.delivered, twin_trace.delivered)
    assert np.array_equal(trace.delays, twin_trace.delays, equal_nan=True)


def test_external_snr_queries_advance_query_clock_as_before():
    link = make_link(seed=4)
    twin = _uncached_twin(4)
    for each in (link, twin):
        each.attempt_loss_prob(1.0)
        each.mean_snr_db(2.5)
        each.rssi_dbm(3.0)
    assert link._query_clock == twin._query_clock == 3.0
    # An attempt "in the past" is answered at the advanced query clock.
    assert link.attempt_loss_prob(2.0) == twin.attempt_loss_prob(2.0)
    assert link._query_clock == 3.0
    assert link.mean_snr_db(5.0) == twin.mean_snr_db(5.0)
    assert link._query_clock == twin._query_clock == 5.0
