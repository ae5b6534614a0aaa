"""Tests for the Section 4 strategy zoo over synthetic paired runs."""

import math

import numpy as np
import pytest

from repro.core.config import StreamProfile
from repro.core.packet import LinkTrace
from repro.core.replication import PairedRun
from repro.core.strategies import (
    baseline,
    better,
    cross_link,
    divert,
    stronger,
    temporal,
)


def make_trace(name, losses, spacing=0.02, delay=0.005):
    delivered = [not bool(x) for x in losses]
    delays = [delay if d else math.nan for d in delivered]
    return LinkTrace(name, np.arange(len(losses)) * spacing,
                     delivered, delays)


def make_run(losses_a, losses_b, rssi_a=-50.0, rssi_b=-60.0,
             offsets=None, spacing=0.02):
    n = len(losses_a)
    profile = StreamProfile(duration_s=n * spacing,
                            inter_packet_spacing_s=spacing)
    return PairedRun(
        profile=profile,
        trace_a=make_trace("A", losses_a, spacing),
        trace_b=make_trace("B", losses_b, spacing),
        offset_traces={k: make_trace(f"A+{k}", v, spacing)
                       for k, v in (offsets or {}).items()},
        rssi_a_dbm=rssi_a, rssi_b_dbm=rssi_b)


def test_stronger_picks_higher_rssi():
    run = make_run([1, 1], [0, 0], rssi_a=-40.0, rssi_b=-70.0)
    assert stronger(run) is run.trace_a
    run2 = make_run([1, 1], [0, 0], rssi_a=-80.0, rssi_b=-70.0)
    assert stronger(run2) is run2.trace_b


def test_baseline_is_stronger():
    run = make_run([0], [1], rssi_a=-40.0)
    assert baseline(run) is stronger(run)


def test_better_settles_on_trial_winner():
    # Link A clean in trial (first 5 s = 250 pkts) then dies;
    # link B lossy in trial then clean: better picks A, suffers later.
    n = 500
    losses_a = [0] * 250 + [1] * 250
    losses_b = [1] * 250 + [0] * 250
    run = make_run(losses_a, losses_b)
    trace = better(run)
    # after the trial, it is stuck with A's failures
    assert np.all(~trace.delivered[250:])


def test_better_trial_period_gets_merged_coverage():
    losses_a = [1] * 250 + [0] * 250
    losses_b = [0] * 500
    run = make_run(losses_a, losses_b)
    trace = better(run)
    # during the trial both NICs receive: B covers A's losses
    assert np.all(trace.delivered[:250])


def test_divert_switches_after_loss():
    # A loses packet 0; divert switches to B for packet 1 onwards.
    losses_a = [1, 1, 1, 1]
    losses_b = [0, 0, 0, 0]
    run = make_run(losses_a, losses_b)
    trace = divert(run)
    assert not trace.delivered[0]      # the triggering loss is NOT recovered
    assert np.all(trace.delivered[1:])


def test_divert_ping_pongs_between_bad_links():
    losses_a = [1] * 6
    losses_b = [1] * 6
    run = make_run(losses_a, losses_b)
    trace = divert(run)
    assert np.all(~trace.delivered)


def test_cross_link_unions_deliveries():
    losses_a = [1, 0, 1, 0]
    losses_b = [0, 1, 1, 0]
    run = make_run(losses_a, losses_b)
    trace = cross_link(run)
    assert trace.delivered.tolist() == [True, True, False, True]


def test_cross_link_dominates_either_link():
    rng = np.random.default_rng(0)
    losses_a = (rng.random(500) < 0.2).astype(int)
    losses_b = (rng.random(500) < 0.2).astype(int)
    run = make_run(losses_a, losses_b)
    x = cross_link(run)
    assert x.loss_rate <= run.trace_a.loss_rate
    assert x.loss_rate <= run.trace_b.loss_rate


def test_temporal_uses_offset_copy():
    losses_a = [1, 1, 0]
    offset = {0.1: [0, 1, 0]}
    run = make_run(losses_a, [1, 1, 1], offsets=offset)
    trace = temporal(run, 0.1)
    assert trace.delivered.tolist() == [True, False, True]


def test_temporal_missing_delta_raises():
    run = make_run([0], [0])
    with pytest.raises(KeyError):
        temporal(run, 0.05)


def test_temporal_offset_delay_accounted():
    losses_a = [1]
    offsets = {0.1: [0]}
    run = make_run(losses_a, [1], offsets=offsets)
    run.offset_traces[0.1] = LinkTrace(
        "A+100ms", np.array([0.0]), np.array([True]), np.array([0.105]))
    trace = temporal(run, 0.1)
    assert trace.delays[0] == pytest.approx(0.105)

