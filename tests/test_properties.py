"""Property-based tests (hypothesis) on core data structures and
invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bursts import burst_lengths
from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.windows import window_loss_rates, worst_window_loss
from repro.batch import strategies as batch_strategies
from repro.batch.render import TraceBlock
from repro.core.packet import LinkTrace, StreamTrace, merge_traces
from repro.core.replication import PairedRun
from repro.core.config import StreamProfile
from repro.core.strategies import cross_link, divert
from repro.sim import Simulator
from repro.voice.concealment import account_concealment
from repro.voice.playout import PlayoutBuffer
from repro.voice.quality import emodel_r_factor, r_to_mos


# ------------------------------------------------------------- strategies

loss_patterns = st.lists(st.booleans(), min_size=1, max_size=300)


def trace_of(losses, name="t", spacing=0.02):
    delivered = [not x for x in losses]
    delays = [0.005 if d else math.nan for d in delivered]
    return LinkTrace(name, np.arange(len(losses)) * spacing,
                     delivered, delays)


def paired(losses_a, losses_b):
    n = len(losses_a)
    profile = StreamProfile(duration_s=n * 0.02)
    return PairedRun(profile=profile, trace_a=trace_of(losses_a, "A"),
                     trace_b=trace_of(losses_b, "B"))


@given(loss_patterns, loss_patterns)
def test_cross_link_is_union(losses_a, losses_b):
    n = min(len(losses_a), len(losses_b))
    losses_a, losses_b = losses_a[:n], losses_b[:n]
    run = paired(losses_a, losses_b)
    merged = cross_link(run)
    for i in range(n):
        expected = (not losses_a[i]) or (not losses_b[i])
        assert bool(merged.delivered[i]) == expected


@given(loss_patterns, loss_patterns)
def test_cross_link_never_worse_than_either(losses_a, losses_b):
    n = min(len(losses_a), len(losses_b))
    run = paired(losses_a[:n], losses_b[:n])
    merged = cross_link(run)
    assert merged.loss_rate <= run.trace_a.loss_rate + 1e-12
    assert merged.loss_rate <= run.trace_b.loss_rate + 1e-12


@given(loss_patterns, loss_patterns)
def test_divert_outcome_always_one_of_the_links(losses_a, losses_b):
    n = min(len(losses_a), len(losses_b))
    run = paired(losses_a[:n], losses_b[:n])
    trace = divert(run)
    for i in range(n):
        assert bool(trace.delivered[i]) in (
            not losses_a[i], not losses_b[i])


def random_block(b, n, p_a, p_b, seed):
    """A block of ``b`` sessions whose links lose each slot independently
    with probability ``p_a`` / ``p_b``; delays are distinct per slot."""
    rng = np.random.default_rng(seed)
    p = np.asarray([p_a, p_b])[None, :, None]
    delivered = rng.random((b, 2, n)) >= p
    delays = np.where(delivered, rng.uniform(0.001, 0.2, (b, 2, n)),
                      np.nan)
    return TraceBlock(
        profile=StreamProfile(duration_s=n * 0.02), indices=tuple(range(b)),
        scenarios=("benign",) * b, deltas=(),
        send_times=np.arange(n) * 0.02, delivered=delivered, delays=delays,
        rssi_dbm=np.zeros((b, 2)),
        offset_delivered=np.zeros((b, 0, n), dtype=bool),
        offset_delays=np.zeros((b, 0, n)))


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=300),
       st.floats(min_value=0.0, max_value=0.9),
       st.floats(min_value=0.0, max_value=0.9),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_batch_divert_matches_event_divert(b, n, p_a, p_b, seed):
    """The loop-free batch divert selects exactly the slots the event
    reference (H=1, T=1) selects, session by session."""
    block = random_block(b, n, p_a, p_b, seed)
    delivered, delays = batch_strategies.divert(block)
    assert delivered.shape == delays.shape == (b, n)
    for pos in range(b):
        trace = divert(block.paired_run(pos))
        assert np.array_equal(delivered[pos], trace.delivered)
        assert delays[pos].tobytes() == trace.delays.tobytes()


@given(loss_patterns)
def test_merge_idempotent(losses):
    a = trace_of(losses)
    merged = merge_traces([a, a])
    assert np.array_equal(merged.delivered, a.delivered)


# ---------------------------------------------------------------- windows

@given(loss_patterns)
def test_worst_window_bounds(losses):
    arr = np.array(losses, dtype=float)
    worst = worst_window_loss(arr)
    assert 0.0 <= worst <= 1.0
    assert worst >= arr.mean() - 1e-12   # worst window >= overall average


@given(loss_patterns, st.floats(min_value=0.1, max_value=10.0))
def test_window_rates_average_back(losses, window_s):
    arr = np.array(losses, dtype=float)
    rates = window_loss_rates(arr, window_s=window_s)
    per_window = max(int(round(window_s / 0.02)), 1)
    # Weighted mean of window rates equals the overall loss rate.
    weights = [min(per_window, len(arr) - i * per_window)
               for i in range(len(rates))]
    weighted = sum(r * w for r, w in zip(rates, weights)) / sum(weights)
    assert abs(weighted - arr.mean()) < 1e-9


# ----------------------------------------------------------------- bursts

@given(loss_patterns)
def test_burst_lengths_partition_losses(losses):
    arr = np.array(losses, dtype=float)
    lengths = burst_lengths(arr)
    assert sum(lengths) == int(arr.sum())
    assert all(length >= 1 for length in lengths)


@given(loss_patterns)
def test_burst_count_bounded_by_alternations(losses):
    lengths = burst_lengths(np.array(losses, dtype=float))
    assert len(lengths) <= (len(losses) + 1) // 2 + 1


# ------------------------------------------------------------ concealment

@given(loss_patterns)
def test_concealment_accounts_every_missing_frame(losses):
    trace = trace_of(losses)
    playout = PlayoutBuffer(0.1).replay(trace)
    acc = account_concealment(playout)
    missing = int(np.sum(~playout.played))
    assert acc.interpolated_frames + acc.extrapolated_frames == missing
    assert acc.played_frames + missing == acc.n_frames


# ------------------------------------------------------------------- CDF

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200))
def test_cdf_monotone_and_bounded(samples):
    series = EmpiricalCdf(samples).series()
    xs = [x for x, _ in series]
    values = [v for _, v in series]
    assert xs == sorted(xs)
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                min_size=2, max_size=100),
       st.floats(min_value=0.0, max_value=1.0))
def test_cdf_quantile_within_range(samples, q):
    cdf = EmpiricalCdf(samples)
    value = cdf.quantile(q)
    assert min(samples) - 1e-9 <= value <= max(samples) + 1e-9


# ----------------------------------------------------------------- E-model

@given(st.floats(min_value=0.0, max_value=0.5),
       st.floats(min_value=0.0, max_value=0.5),
       st.floats(min_value=0.0, max_value=0.5))
def test_emodel_monotone_in_loss(loss1, loss2, delay):
    lo, hi = sorted((loss1, loss2))
    assert (emodel_r_factor(hi, delay) <= emodel_r_factor(lo, delay) + 1e-9)


@given(st.floats(min_value=0.0, max_value=120.0))
def test_mos_bounds(r):
    mos = r_to_mos(r)
    assert 1.0 <= mos <= 4.5


@given(st.floats(min_value=0.0, max_value=0.3),
       st.floats(min_value=1.0, max_value=10.0))
def test_burstier_loss_never_scores_better(loss, burst_len):
    bursty = emodel_r_factor(loss, 0.05, mean_burst_len=burst_len)
    random = emodel_r_factor(loss, 0.05, mean_burst_len=1.0)
    assert bursty <= random + 1e-9


# ------------------------------------------------------------- StreamTrace

@given(st.lists(st.tuples(st.integers(min_value=0, max_value=49),
                          st.floats(min_value=0.0, max_value=2.0)),
                max_size=200))
def test_stream_trace_invariants(arrival_events):
    trace = StreamTrace(n_packets=50, send_times=np.arange(50) * 0.02)
    firsts = 0
    for seq, time in arrival_events:
        if trace.record_arrival(seq, time):
            firsts += 1
    assert firsts == len(trace.arrivals)
    assert trace.duplicates == len(arrival_events) - firsts
    assert 0.0 <= trace.loss_rate <= 1.0
    # Recorded arrival per seq is the earliest seen.
    for seq, time in arrival_events:
        assert trace.arrivals[seq] <= time + 1e-12


# ------------------------------------------------------------------ engine

@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), max_size=50))
def test_engine_fires_in_order(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.call_at(t, lambda t=t: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)
