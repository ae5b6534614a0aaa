"""Tests for configuration: Algorithm 1 constants and stream profiles."""

import pytest

from repro.core.config import (
    APConfig,
    ClientConfig,
    G711_PROFILE,
    HIGH_RATE_PROFILE,
    SECONDARY_RESIDENCY_TIME_S,
    StreamProfile,
)
from repro.net.middlebox import PER_STREAM_DELAY_S


def test_g711_profile_matches_paper():
    assert G711_PROFILE.packet_size_bytes == 160
    assert G711_PROFILE.inter_packet_spacing_s == pytest.approx(0.020)
    assert G711_PROFILE.n_packets == 6000          # 2-minute call


def test_highrate_profile_matches_paper():
    assert HIGH_RATE_PROFILE.packet_size_bytes == 1000
    assert HIGH_RATE_PROFILE.inter_packet_spacing_s == pytest.approx(0.0016)


def test_algorithm1_constants():
    cfg = ClientConfig()
    assert cfg.packet_loss_timeout_s == pytest.approx(0.040)   # PLT = 2*IPS
    assert cfg.ap_queue_len == 5                               # MTD/IPS
    assert SECONDARY_RESIDENCY_TIME_S == pytest.approx(0.040)
    assert cfg.association_keepalive_timeout_s == pytest.approx(30.0)


def test_client_config_for_profile_rescales():
    cfg = ClientConfig().for_profile(HIGH_RATE_PROFILE)
    assert cfg.inter_packet_spacing_s == pytest.approx(0.0016)
    assert cfg.ap_queue_len == int(round(0.100 / 0.0016))
    assert cfg.packet_loss_timeout_s == pytest.approx(0.0032)


def test_custom_profile_packet_count():
    p = StreamProfile(duration_s=10.0, inter_packet_spacing_s=0.010)
    assert p.n_packets == 1000


def test_ap_config_defaults():
    ap = APConfig()
    assert ap.drop_policy == "head"
    assert ap.max_queue_len == 5


def test_middlebox_load_constants():
    # Section 6.4: ~+1.1 ms at 1000 streams
    assert PER_STREAM_DELAY_S * 1000 == pytest.approx(0.0011)
