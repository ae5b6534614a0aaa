"""Tests for the voice-quality pipeline: playout, concealment, E-model,
and PCR."""

import math

import numpy as np
import pytest

from repro.core.packet import LinkTrace, StreamTrace
from repro.voice.concealment import account_concealment
from repro.voice.pcr import POOR_MOS_THRESHOLD, score_call
from repro.voice.playout import PlayoutBuffer
from repro.voice.quality import (
    burst_ratio,
    delay_impairment,
    emodel_r_factor,
    loss_impairment,
    r_to_mos,
)


def trace_from_losses(losses, spacing=0.02, delay=0.01):
    delivered = [not bool(x) for x in losses]
    delays = [delay if d else math.nan for d in delivered]
    return LinkTrace("t", np.arange(len(losses)) * spacing,
                     delivered, delays)


# ------------------------------------------------------------------ playout

def test_playout_on_time_frames_played():
    trace = trace_from_losses([0, 0, 0], delay=0.01)
    result = PlayoutBuffer(0.100).replay(trace)
    assert result.played.all()
    assert result.effective_loss_rate == 0.0


def test_playout_late_frame_counts_lost():
    trace = trace_from_losses([0, 0], delay=0.150)
    result = PlayoutBuffer(0.100).replay(trace)
    assert not result.played.any()
    assert result.late_losses == 2
    assert result.network_losses == 0


def test_playout_network_losses_counted():
    trace = trace_from_losses([1, 0, 1])
    result = PlayoutBuffer(0.100).replay(trace)
    assert result.network_losses == 2
    assert result.effective_loss_rate == pytest.approx(2 / 3)


def test_playout_delay_must_be_positive():
    with pytest.raises(ValueError):
        PlayoutBuffer(0.0)


# -------------------------------------------------------------- concealment

def concealment_of(losses):
    trace = trace_from_losses(losses)
    return account_concealment(PlayoutBuffer(0.1).replay(trace))


def test_isolated_loss_is_interpolated():
    acc = concealment_of([0, 1, 0, 0])
    assert acc.interpolated_frames == 1
    assert acc.extrapolated_frames == 0


def test_burst_losses_extrapolated():
    acc = concealment_of([0, 1, 1, 1, 0])
    assert acc.interpolated_frames == 0
    assert acc.extrapolated_frames == 3


def test_leading_loss_extrapolated():
    acc = concealment_of([1, 0, 0])
    assert acc.extrapolated_frames == 1


def test_trailing_loss_extrapolated():
    acc = concealment_of([0, 0, 1])
    assert acc.extrapolated_frames == 1


def test_concealment_fractions():
    acc = concealment_of([0, 1, 0, 1, 1, 0, 0, 0, 0, 0])
    assert acc.interpolated_frames == 1
    assert acc.extrapolated_frames == 2
    assert acc.played_frames == 7


# ------------------------------------------------------------------ E-model

def test_r_decreases_with_loss():
    r_clean = emodel_r_factor(0.0, 0.05)
    r_lossy = emodel_r_factor(0.05, 0.05)
    assert r_lossy < r_clean


def test_r_decreases_with_delay():
    assert emodel_r_factor(0.0, 0.400) < emodel_r_factor(0.0, 0.050)


def test_bursty_loss_hurts_more():
    random_loss = emodel_r_factor(0.02, 0.05, mean_burst_len=1.0)
    bursty_loss = emodel_r_factor(0.02, 0.05, mean_burst_len=4.0)
    assert bursty_loss < random_loss


def test_burst_ratio_floor_is_one():
    assert burst_ratio(0.02, 0.5) == 1.0
    assert burst_ratio(0.02, 4.0) > 1.0


def test_loss_impairment_zero_at_no_loss():
    assert loss_impairment(0.0) == 0.0


def test_delay_impairment_grows():
    assert delay_impairment(0.050) < delay_impairment(0.300)


def test_mos_range_and_monotone():
    values = [r_to_mos(r) for r in (0, 20, 50, 70, 90, 100)]
    assert values[0] == 1.0 and values[-1] == 4.5
    assert all(a <= b for a, b in zip(values, values[1:]))


def _edge_columns():
    """Every combination of the E-model's edge inputs: loss below 0 and
    at/above the 0.99 clamp, burst at/below 0, delay at the 100 ms and
    177.3 ms knees, R outside [0, 100]."""
    loss, delay, burst = (axis.ravel() for axis in np.meshgrid(
        [-0.1, 0.0, 0.02, 0.5, 0.99, 1.0, 1.5],
        [-0.05, 0.0, 0.05, 0.1, 0.1773, 0.3],
        [-1.0, 0.0, 0.5, 1.0, 4.0], indexing="ij"))
    r = np.resize([-5.0, 0.0, 1e-3, 50.0, 99.99, 100.0, 120.0], loss.size)
    return loss, delay, burst, r


@pytest.mark.parametrize("fn,columns", [
    (delay_impairment, (1,)),
    (loss_impairment, (0, 2)),
    (burst_ratio, (0, 2)),
    (emodel_r_factor, (0, 1, 2)),
    (r_to_mos, (3,)),
])
def test_emodel_array_bit_exact_vs_scalar(fn, columns):
    """One code path: an array input gives, element for element, the
    exact bits of the scalar call, and a scalar input a built-in float."""
    args = [_edge_columns()[c] for c in columns]
    vector = fn(*args)
    scalars = [fn(*(float(a[i]) for a in args)) for i in range(len(args[0]))]
    assert all(type(s) is float for s in scalars)
    assert np.array_equal(np.asarray(vector).view(np.int64),
                          np.asarray(scalars).view(np.int64))


# --------------------------------------------------------------------- PCR

def test_clean_call_not_poor():
    trace = trace_from_losses([0] * 6000)
    score = score_call(trace)
    assert score.mos > 4.0
    assert score.mos >= POOR_MOS_THRESHOLD


def test_heavily_lossy_call_poor():
    rng = np.random.default_rng(1)
    losses = (rng.random(6000) < 0.15).astype(int)
    score = score_call(trace_from_losses(losses))
    assert score.mos < POOR_MOS_THRESHOLD


def test_pcr_mixed_population():
    clean = trace_from_losses([0] * 6000)
    rng = np.random.default_rng(2)
    bad = trace_from_losses((rng.random(6000) < 0.2).astype(int))
    poor = [score_call(t).mos < POOR_MOS_THRESHOLD
            for t in (clean, clean, clean, bad)]
    assert np.mean(poor) == pytest.approx(0.25)


def test_score_accepts_stream_trace():
    n = 1000
    st = StreamTrace(n_packets=n, send_times=np.arange(n) * 0.02)
    for seq in range(n):
        st.record_arrival(seq, seq * 0.02 + 0.01)
    score = score_call(st)
    assert score.loss_fraction == 0.0


def test_worst_window_pulls_score_down():
    clean = trace_from_losses([0] * 6000)
    one_bad_window = [0] * 6000
    for i in range(3000, 3250):   # one solid 5-s outage
        one_bad_window[i] = 1
    bad = trace_from_losses(one_bad_window)
    assert score_call(bad).mos < score_call(clean).mos
