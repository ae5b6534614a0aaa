"""Integration tests: the DiversiFi client + controller end to end.

These use short calls (10 s) over controlled channels so assertions are
about *mechanisms* (recovery, keepalive, waste accounting), not statistics.
"""

import numpy as np
import pytest

from repro.channel.gilbert import GilbertParams
from repro.channel.link import LinkConfig, WifiLink
from repro.channel.mobility import Position, StaticPosition
from repro.core.config import APConfig, ClientConfig, StreamProfile
from repro.core.controller import run_session
from repro.sim.random import RandomRouter

SHORT = StreamProfile(duration_s=10.0)   # 500 packets


def clean_gilbert():
    return GilbertParams(mean_good_s=1e9, mean_bad_s=0.01,
                         loss_good=0.0, loss_bad=0.0)


def outage_gilbert(mean_good=3.0, mean_bad=0.3):
    return GilbertParams(mean_good_s=mean_good, mean_bad_s=mean_bad,
                         loss_good=0.0, loss_bad=0.999)


def link_factory(gilbert_primary, gilbert_secondary,
                 distance_primary=5.0, distance_secondary=12.0):
    def build(router):
        client = StaticPosition(Position(0.0, 0.0))
        primary = WifiLink(
            LinkConfig(name="p", ap_position=Position(distance_primary, 0),
                       gilbert=gilbert_primary, base_delay_s=0.0),
            router, mobility=client)
        secondary = WifiLink(
            LinkConfig(name="s", ap_position=Position(distance_secondary, 0),
                       gilbert=gilbert_secondary, base_delay_s=0.0),
            router, mobility=client)
        return primary, secondary
    return build


def run(mode="diversifi-ap", primary=None, secondary=None, seed=0, **kwargs):
    factory = link_factory(primary or clean_gilbert(),
                           secondary or clean_gilbert())
    return run_session(factory, mode=mode, profile=SHORT, seed=seed,
                       **kwargs)


# ------------------------------------------------------------ basic modes

def test_clean_channel_delivers_everything():
    result = run()
    assert result.stream.loss_rate == 0.0
    eff = result.effective_trace()
    assert eff.loss_rate == 0.0


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        run(mode="nonsense")


def test_primary_only_never_switches():
    result = run(mode="primary-only", primary=outage_gilbert())
    assert result.switch_count == 0
    assert result.client_stats.recovered == 0


def test_secondary_only_swaps_links():
    # Secondary link in permanent outage; primary clean.  In
    # secondary-only mode the client is pinned to the (bad) secondary.
    dead = GilbertParams(mean_good_s=1e-3, mean_bad_s=1e9,
                         loss_good=1.0, loss_bad=1.0)
    result = run(mode="secondary-only", primary=clean_gilbert(),
                 secondary=dead)
    assert result.effective_trace().loss_rate == 1.0


# --------------------------------------------------------------- recovery

def test_diversifi_recovers_primary_outage_losses():
    result = run(mode="diversifi-ap", primary=outage_gilbert(),
                 secondary=clean_gilbert(), seed=3)
    primary_losses = result.client_stats.losses_declared
    assert primary_losses > 0
    assert result.client_stats.recovered > 0
    # Residual loss far below the primary's raw loss.
    eff = result.effective_trace()
    assert eff.loss_rate < 0.25 * (primary_losses / SHORT.n_packets)


def test_diversifi_beats_primary_only_on_same_channel():
    primary_g = outage_gilbert(mean_good=2.0, mean_bad=0.4)
    base = run(mode="primary-only", primary=primary_g, seed=5)
    div = run(mode="diversifi-ap", primary=primary_g, seed=5)
    assert (div.effective_trace().loss_rate
            < base.effective_trace().loss_rate)


def test_recovered_packets_meet_deadline():
    result = run(mode="diversifi-ap", primary=outage_gilbert(), seed=7)
    eff = result.effective_trace(deadline=0.100)
    delays = eff.delays[eff.delivered]
    assert np.nanmax(delays) <= 0.100 + 1e-9


def test_recovery_switches_counted():
    result = run(mode="diversifi-ap", primary=outage_gilbert(), seed=9)
    assert result.client_stats.recovery_switches > 0
    assert result.switch_count >= result.client_stats.recovery_switches


# ---------------------------------------------------------------- keepalive

def test_keepalive_fires_on_long_clean_call():
    profile = StreamProfile(duration_s=70.0)
    factory = link_factory(clean_gilbert(), clean_gilbert())
    result = run_session(factory, mode="diversifi-ap", profile=profile,
                         seed=11)
    # 70 s call, AKT=30 s -> at least two keepalive visits.
    assert result.client_stats.keepalive_switches >= 2


def test_disabled_client_never_visits_secondary():
    result = run(mode="primary-only", primary=outage_gilbert(), seed=13)
    assert result.client_stats.keepalive_switches == 0
    assert result.off_channel_time_s == 0.0


# ------------------------------------------------------------- duplication

def test_waste_accounting_small_on_clean_channel():
    result = run(seed=15)
    # Only keepalive visits can waste packets on a clean channel.
    assert result.wasteful_duplicates <= 10
    assert result.wasteful_duplication_rate() < 0.03


def test_naive_duplication_would_be_100x_worse():
    """The whole point: DiversiFi's duplication is a tiny fraction of the
    stream, versus 100% for naive replication."""
    result = run(mode="diversifi-ap", primary=outage_gilbert(), seed=17)
    assert result.secondary_air_transmissions < 0.2 * SHORT.n_packets


# -------------------------------------------------------------- middlebox

def test_middlebox_mode_recovers_losses():
    result = run(mode="diversifi-mbox", primary=outage_gilbert(),
                 secondary=clean_gilbert(), seed=19)
    assert result.middlebox is not None
    assert result.middlebox.stats.start_messages > 0
    assert result.client_stats.recovered > 0
    eff = result.effective_trace()
    assert eff.loss_rate < 0.02


def test_middlebox_mode_clean_channel_quiet():
    result = run(mode="diversifi-mbox", seed=21)
    assert result.effective_trace().loss_rate == 0.0
    # start/stop only from keepalives
    assert result.middlebox.stats.start_messages <= 3


# ------------------------------------------------------------ determinism

def test_sessions_reproducible_by_seed():
    a = run(mode="diversifi-ap", primary=outage_gilbert(), seed=31)
    b = run(mode="diversifi-ap", primary=outage_gilbert(), seed=31)
    assert a.stream.arrivals == b.stream.arrivals
    assert a.wasteful_duplicates == b.wasteful_duplicates


def test_digest_absent_without_sanitizer(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    result = run(mode="diversifi-ap", seed=31)
    assert result.determinism_digest is None


def test_sanitized_sessions_same_seed_same_digest(monkeypatch):
    """The sanitizer acceptance criterion: a full DiversiFi session's
    event sequence is bit-for-bit reproducible from (scenario, seed)."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    a = run(mode="diversifi-ap", primary=outage_gilbert(), seed=31)
    b = run(mode="diversifi-ap", primary=outage_gilbert(), seed=31)
    assert a.determinism_digest is not None
    assert a.determinism_digest == b.determinism_digest


def test_sanitized_sessions_cross_seed_differ(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    a = run(mode="diversifi-ap", primary=outage_gilbert(), seed=31)
    b = run(mode="diversifi-ap", primary=outage_gilbert(), seed=32)
    assert a.determinism_digest != b.determinism_digest


def test_sanitized_session_matches_unsanitized_behaviour(monkeypatch):
    """The sanitizer must observe, never perturb."""
    plain = run(mode="diversifi-ap", primary=outage_gilbert(), seed=31)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run(mode="diversifi-ap", primary=outage_gilbert(), seed=31)
    assert plain.stream.arrivals == sanitized.stream.arrivals
    assert plain.switch_count == sanitized.switch_count
