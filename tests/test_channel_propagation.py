"""Tests for path loss, fading, interference and mobility models."""

import numpy as np
import pytest

from repro.channel.fading import (
    RayleighFading,
    RicianFading,
    SelectionDiversityFading,
)
from repro.channel.interference import (
    CompositeInterference,
    CongestionProcess,
    MicrowaveOven,
    NullInterference,
)
from repro.channel.mobility import (
    Position,
    RandomWaypointMobility,
    StaticPosition,
)
from repro.channel.pathloss import (
    LogDistancePathLoss,
    PathLossParams,
    rssi_to_snr_db,
)
from repro.sim import RandomRouter


def rng(name="x", seed=0):
    return RandomRouter(seed).stream(name)


# ---------------------------------------------------------------- pathloss

def test_rssi_decreases_with_distance():
    model = LogDistancePathLoss(PathLossParams(shadowing_sigma_db=0.0),
                                rng())
    assert model.rssi_dbm(5.0) > model.rssi_dbm(20.0)


def test_pathloss_follows_exponent():
    params = PathLossParams(exponent=3.0, shadowing_sigma_db=0.0)
    model = LogDistancePathLoss(params, rng())
    # 10x the distance -> 30 dB more loss at n=3.
    delta = model.path_loss_db(100.0) - model.path_loss_db(10.0)
    assert delta == pytest.approx(30.0, abs=1e-6)


def test_distance_clamped_to_reference():
    model = LogDistancePathLoss(PathLossParams(shadowing_sigma_db=0.0),
                                rng())
    assert model.rssi_dbm(0.1) == model.rssi_dbm(1.0)


def test_shadowing_redraw_changes_value_but_correlates():
    params = PathLossParams(shadowing_sigma_db=6.0)
    values = []
    model = LogDistancePathLoss(params, rng(seed=7))
    for _ in range(500):
        values.append(model.shadowing_db)
        model.redraw_shadowing()
    values = np.array(values)
    # AR(1) with rho=0.8 keeps the marginal variance near sigma^2.
    assert 3.0 < values.std() < 9.0
    x = values - values.mean()
    lag1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert lag1 > 0.7


def test_rssi_to_snr():
    assert rssi_to_snr_db(-60.0) == pytest.approx(34.0)


# ----------------------------------------------------------------- fading

def test_rayleigh_mean_power_near_unity():
    fading = RayleighFading(rng(seed=1), coherence_time_s=0.01)
    times = np.arange(0, 200.0, 0.05)  # well beyond coherence: ~iid
    powers = [10 ** (fading.fade_db(t) / 10) for t in times]
    assert np.mean(powers) == pytest.approx(1.0, abs=0.15)


def test_rayleigh_has_deep_fades():
    fading = RayleighFading(rng(seed=2), coherence_time_s=0.01)
    fades = [fading.fade_db(t) for t in np.arange(0, 100.0, 0.05)]
    assert min(fades) < -10.0  # Rayleigh regularly dips 10+ dB


def test_rician_fades_shallower_than_rayleigh():
    ray = RayleighFading(rng("a", seed=3), coherence_time_s=0.01)
    ric = RicianFading(rng("b", seed=3), coherence_time_s=0.01,
                       k_factor_db=10.0)
    times = np.arange(0, 100.0, 0.05)
    ray_p10 = np.percentile([ray.fade_db(t) for t in times], 10)
    ric_p10 = np.percentile([ric.fade_db(t) for t in times], 10)
    assert ric_p10 > ray_p10


def test_fading_temporal_correlation_within_coherence():
    fading = RayleighFading(rng(seed=4), coherence_time_s=1.0)
    # samples 10 ms apart inside a 1 s coherence time barely move
    fading.fade_db(0.0)
    g0 = fading._gain
    fading.fade_db(0.010)
    g1 = fading._gain
    assert g1 != g0 and abs(g1 - g0) < 0.5


def test_fading_backwards_query_raises():
    fading = RayleighFading(rng(seed=5))
    fading.fade_db(10.0)
    with pytest.raises(ValueError):
        fading.fade_db(1.0)


def test_selection_diversity_beats_single_branch():
    """Best-of-4 branches must fade far less at the 5th percentile."""
    single = RayleighFading(rng("s", seed=6), coherence_time_s=0.01)
    diverse = SelectionDiversityFading(rng("d", seed=6), n_branches=4,
                                       coherence_time_s=0.01)
    times = np.arange(0, 200.0, 0.05)
    p5_single = np.percentile([single.fade_db(t) for t in times], 5)
    p5_diverse = np.percentile([diverse.fade_db(t) for t in times], 5)
    assert p5_diverse > p5_single + 5.0


def test_selection_diversity_validates_branches():
    with pytest.raises(ValueError):
        SelectionDiversityFading(rng(), n_branches=0)


# ------------------------------------------------------------ interference

def test_null_interference_is_silent():
    quiet = NullInterference()
    assert quiet.snr_penalty_db(1.0) == 0.0
    assert quiet.extra_delay_s(1.0, rng()) == 0.0


def test_microwave_duty_cycle():
    oven = MicrowaveOven(rng(seed=8), episode_rate_hz=1000.0,
                         episode_duration_s=1e9, duty_cycle=0.5,
                         penalty_db=25.0)
    # Force an always-on episode; radiating half the mains cycle.
    times = np.arange(100.0, 140.0, 0.0007)
    radiating = np.array([oven.is_radiating(float(t)) for t in times])
    assert 0.35 < radiating.mean() < 0.65
    # During an episode: full penalty in the radiating phase, floor
    # penalty in the quiet phase.
    penalty = oven.snr_penalty_db(times[-1] + 1.0)
    assert penalty in (oven.floor_penalty_db, 25.0)


def test_microwave_unaffected_band_immune():
    oven = MicrowaveOven(rng(seed=9), affected=False)
    assert not oven.is_radiating(50.0)
    assert oven.snr_penalty_db(50.0) == 0.0


def test_microwave_episodes_are_intermittent():
    oven = MicrowaveOven(rng(seed=10), episode_rate_hz=1.0 / 30.0,
                         episode_duration_s=10.0)
    # Sample at a step that is NOT a multiple of the 20 ms mains period,
    # otherwise every sample lands on the same duty-cycle phase.
    times = np.arange(0, 2000.0, 0.513)
    radiating = np.array([oven.is_radiating(float(t)) for t in times])
    frac = radiating.mean()
    # On ~10/(10+30) of the time, radiating ~50% of that.
    assert 0.02 < frac < 0.35


def test_congestion_busy_fraction():
    congestion = CongestionProcess(rng(seed=11), mean_busy_s=1.0,
                                   mean_idle_s=3.0)
    times = np.arange(0, 4000.0, 0.1)
    busy = np.array([congestion.is_busy(float(t)) for t in times])
    assert busy.mean() == pytest.approx(0.25, abs=0.05)


def test_congestion_adds_delay_when_busy():
    congestion = CongestionProcess(rng(seed=12), mean_busy_s=1e9,
                                   mean_idle_s=1e-9, busy_delay_s=0.015)
    congestion._busy = True
    delay_rng = rng("d", seed=12)
    delays = [congestion.extra_delay_s(1.0, delay_rng)
              for _ in range(200)]
    assert np.mean(delays) == pytest.approx(0.015, rel=0.3)


def test_composite_interference_sums():
    class Fixed:
        def __init__(self, pen, dly):
            self.pen, self.dly = pen, dly

        def snr_penalty_db(self, time):
            return self.pen

        def extra_delay_s(self, time, rng):
            return self.dly

    combo = CompositeInterference(Fixed(10.0, 0.001), Fixed(5.0, 0.002))
    assert combo.snr_penalty_db(0.0) == 15.0
    assert combo.extra_delay_s(0.0, rng()) == pytest.approx(0.003)


# --------------------------------------------------------------- mobility

def test_static_position():
    pos = StaticPosition(Position(3.0, 4.0))
    assert pos.position_at(100.0) == Position(3.0, 4.0)
    assert not pos.is_moving


def test_position_distance():
    assert Position(0.0, 0.0).distance_to(Position(3.0, 4.0)) == 5.0


def test_waypoint_stays_in_floor():
    walk = RandomWaypointMobility(rng(seed=13), floor=(30.0, 15.0))
    for t in np.arange(0, 500.0, 1.0):
        p = walk.position_at(float(t))
        assert 0.0 <= p.x <= 30.0
        assert 0.0 <= p.y <= 15.0


def test_waypoint_actually_moves():
    walk = RandomWaypointMobility(rng(seed=14), speed_range=(1.0, 1.0),
                                  pause_s=0.0)
    p0 = walk.position_at(0.0)
    p1 = walk.position_at(30.0)
    assert p0.distance_to(p1) > 0.5


def test_waypoint_speed_bounded():
    walk = RandomWaypointMobility(rng(seed=15), speed_range=(1.0, 1.0),
                                  pause_s=0.0)
    prev = walk.position_at(0.0)
    for t in np.arange(0.5, 60.0, 0.5):
        cur = walk.position_at(float(t))
        assert prev.distance_to(cur) <= 1.0 * 0.5 + 1e-6
        prev = cur


def test_waypoint_backwards_query_clamped():
    """Two links sharing a walk query at interleaved times; a slightly
    stale query returns the current position instead of raising."""
    walk = RandomWaypointMobility(rng(seed=16))
    now = walk.position_at(10.0)
    stale = walk.position_at(1.0)
    assert stale == now
