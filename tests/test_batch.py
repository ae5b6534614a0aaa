"""Unit tests for the vectorized batch backend (repro.batch).

Covers the properties equivalence sampling alone cannot: bit-exact
render determinism, block-slice invariance (any subset of the
population renders identically to the same sessions inside a larger
block), and exact per-session parity of the vectorized strategy /
summary reductions against their event-path counterparts on shared
traces.  Statistical batch-vs-event equivalence lives in
``tests/test_batch_equivalence.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro.batch.population import PopulationSpec, SessionSetup
from repro.batch.render import (
    TraceBlock,
    _BACKOFF_MEANS_S,
    ar1_complex,
    render_block,
    render_session,
)
from repro.batch.strategies import divert as batch_divert
from repro.batch.strategies import strategy_suite
from repro.batch.summary import (
    correlation_rows,
    mos_rows,
    session_payloads,
    worst_window_rows,
)
from repro.channel.gilbert import GilbertParams
from repro.channel.link import LinkConfig, WifiLink
from repro.channel.mobility import Position, StaticPosition
from repro.core import strategies as event_strategies
from repro.core.config import StreamProfile
from repro.core.packet import LinkTrace
from repro.experiments.section4 import wild_run_metrics
from repro.obs import MetricsRegistry, record_trace_metrics
from repro.scenarios import ScenarioSetup
from repro.sim import RandomRouter
from repro.voice.pcr import POOR_MOS_THRESHOLD, score_call
from repro.wifi.mac import (
    CONTENTION_WINDOWS,
    CW_MAX,
    CW_MIN,
    DIFS_S,
    RETRY_LIMIT,
    SLOT_TIME_S,
    MacLayer,
)

SPEC = PopulationSpec(n_sessions=6, root_seed=0, deltas=(0.0, 0.1),
                      duration_s=10.0)


@pytest.fixture(scope="module")
def block():
    return render_block(SPEC)


# ------------------------------------------------------------- rendering

def test_ar1_matches_direct_recursion():
    """The convolution form (direct and FFT) equals the AR(1) recursion
    x[i] = rho*x[i-1] + sqrt(1-rho^2)*e[i] on the same draws."""
    for n, rho in ((1, 0.9), (500, 0.0), (2_000, 0.74), (3_000, 0.999)):
        ours = ar1_complex(n, rho, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        e = (rng.normal(0.0, 1.0, size=n)
             + 1j * rng.normal(0.0, 1.0, size=n)) * np.sqrt(0.5)
        reference = np.empty(n, dtype=complex)
        reference[0] = e[0]
        for i in range(1, n):
            reference[i] = (rho * reference[i - 1]
                            + np.sqrt(1.0 - rho ** 2) * e[i])
        np.testing.assert_allclose(ours, reference, rtol=1e-9, atol=1e-12)


def test_ar1_unit_power():
    x = ar1_complex(50_000, rho=0.9, rng=np.random.default_rng(0))
    assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.1)


def test_ar1_correlation():
    rho = 0.8
    x = ar1_complex(100_000, rho=rho, rng=np.random.default_rng(1))
    measured = np.real(np.mean(x[1:] * np.conj(x[:-1])))
    assert measured == pytest.approx(rho, abs=0.05)


def test_ar1_rho_zero_is_iid():
    x = ar1_complex(50_000, rho=0.0, rng=np.random.default_rng(2))
    measured = np.real(np.mean(x[1:] * np.conj(x[:-1])))
    assert abs(measured) < 0.02


def test_batch_backoff_means_mirror_the_mac_windows():
    """The batch attempt schedule backs off the mean of the scalar MAC's
    uniform slot draw over each retry stage's contention window, and
    the MAC really draws its slots from those windows."""
    layer = MacLayer(np.random.default_rng(0))
    windows = CONTENTION_WINDOWS
    assert windows == tuple(min((CW_MIN + 1) * 2 ** k - 1, CW_MAX)
                            for k in range(RETRY_LIMIT + 1))
    assert windows == (15, 31, 63, 127, 255, 511, 1023, 1023)
    expected = [DIFS_S + cw / 2.0 * SLOT_TIME_S for cw in windows]
    assert _BACKOFF_MEANS_S.tolist() == expected

    # Every attempt is lost, so each frame walks all stages; the gap
    # between consecutive attempt times is DIFS + slots * slot_time
    # (+ the previous attempt's zero airtime).
    slots = [[] for _ in windows]
    for frame in range(400):
        times = []
        layer.transmit(float(frame), lambda t: times.append(t) or 1.0,
                       airtime_s=0.0)
        previous = float(frame)
        for stage, t in enumerate(times):
            slots[stage].append(round((t - previous - DIFS_S)
                                      / SLOT_TIME_S))
            previous = t
    for stage, cw in enumerate(windows):
        assert min(slots[stage]) >= 0 and max(slots[stage]) <= cw
    assert set(slots[0]) == set(range(windows[0] + 1))


def test_batch_and_exact_emit_identical_instrument_schema():
    """A batch-rendered trace and a WifiLink trace feed the *same*
    observability surface: identical metric names, labels, kinds and
    histogram bounds, so dashboards and digests never care which
    backend produced a trace."""
    config = LinkConfig(name="check", ap_position=Position(0.0, 0.0),
                        gilbert=GilbertParams(mean_good_s=3.0,
                                              mean_bad_s=0.4,
                                              loss_good=0.0,
                                              loss_bad=0.97))
    client = StaticPosition(Position(10.0, 0.0))
    profile = StreamProfile(duration_s=20.0)
    exact = WifiLink(config, RandomRouter(0),
                     mobility=client).generate_trace(profile)
    setup = ScenarioSetup(name="static", config_a=config,
                          config_b=dataclasses.replace(config, name="b"),
                          mobility=client)
    links, _ = render_session(
        SessionSetup(index=0, scenario="static", setup=setup,
                     router=RandomRouter(0)), profile)
    batch = LinkTrace("check", exact.send_times, links[0].delivered,
                      links[0].delays)

    def schema(trace):
        registry = MetricsRegistry()
        record_trace_metrics(registry, trace, link="check")
        return [(name, labels, metric.kind, getattr(metric, "bounds", None))
                for name, labels, metric in registry.items()]

    assert schema(batch) == schema(exact)
    assert {name for name, _, _, _ in schema(batch)} \
        == {"trace.packets", "trace.lost", "trace.burst_len",
            "trace.window_loss_rate"}


def test_render_block_deterministic(block):
    again = render_block(SPEC)
    assert again.scenarios == block.scenarios
    assert np.array_equal(again.delivered, block.delivered)
    assert np.allclose(again.delays, block.delays, equal_nan=True)
    assert np.array_equal(again.offset_delivered, block.offset_delivered)
    assert np.array_equal(again.rssi_dbm, block.rssi_dbm)


def test_render_block_slice_invariance(block):
    """Sessions are derived from (root_seed, index) alone, so rendering
    a subset block reproduces the exact same rows — the property block
    sharding and cache addressing rely on."""
    subset = render_block(SPEC, indices=[1, 4])
    for row, index in enumerate(subset.indices):
        pos = block.indices.index(index)
        assert subset.scenarios[row] == block.scenarios[pos]
        assert np.array_equal(subset.delivered[row],
                              block.delivered[pos])
        assert np.allclose(subset.delays[row], block.delays[pos],
                           equal_nan=True)
        assert np.array_equal(subset.offset_delivered[row],
                              block.offset_delivered[pos])


def test_block_shapes(block):
    n = SPEC.profile.n_packets
    assert block.delivered.shape == (6, 2, n)
    assert block.delays.shape == (6, 2, n)
    assert block.offset_delivered.shape == (6, 2, n)
    assert block.rssi_dbm.shape == (6, 2)
    assert np.isnan(block.delays[~block.delivered]).all()
    assert not np.isnan(block.delays[block.delivered]).any()


def test_block_scenarios_from_wild_mix(block):
    known = {"benign", "weak_link", "mobility", "congestion", "microwave"}
    assert set(block.scenarios) <= known


# ----------------------------------------------- strategy/summary parity

#: strategies that pick one link's slot as is, so delays match exactly.
#: The merge strategies (cross-link, better, temporal:*) are compared
#: with a tolerance: the event ``merge_traces`` goes through absolute
#: arrival times, so its delays differ from the batch ones by float
#: rounding (under 1e-15 s on this fixture).
SELECTIONS = ("divert", "stronger", "baseline")


def test_strategy_suite_matches_event_strategies(block):
    """On identical traces every vectorized strategy must reproduce the
    scalar strategy's outcome exactly, session by session."""
    suite = dict((name, (delivered, delays))
                 for name, delivered, delays in strategy_suite(block))
    event_suite = {
        "cross-link": event_strategies.cross_link,
        "stronger": event_strategies.stronger,
        "better": event_strategies.better,
        "divert": event_strategies.divert,
        "baseline": event_strategies.baseline,
        "temporal:0.0": lambda r: event_strategies.temporal(r, 0.0),
        "temporal:0.1": lambda r: event_strategies.temporal(r, 0.1),
    }
    assert set(suite) == set(event_suite)
    for pos in range(block.n_sessions):
        run = block.paired_run(pos)
        for name, fn in event_suite.items():
            trace = fn(run)
            delivered, delays = suite[name]
            assert np.array_equal(delivered[pos], trace.delivered), \
                f"{name} delivered mismatch at session {pos}"
            if name in SELECTIONS:
                assert np.array_equal(delays[pos], trace.delays,
                                      equal_nan=True), \
                    f"{name} delays mismatch at session {pos}"
            else:
                np.testing.assert_allclose(
                    delays[pos], trace.delays, equal_nan=True,
                    err_msg=f"{name} delays mismatch at session {pos}")


def test_worst_window_rows_matches_scalar(block):
    from repro.analysis.windows import worst_window_loss
    spacing = block.spacing_s
    losses = (~block.delivered[:, 0]).astype(float)
    rows = worst_window_rows(losses, spacing)
    for pos in range(block.n_sessions):
        scalar = worst_window_loss(losses[pos],
                                   inter_packet_spacing_s=spacing)
        assert rows[pos] == pytest.approx(scalar, abs=1e-12)


def test_mos_rows_matches_score_call(block):
    for pos in range(block.n_sessions):
        run = block.paired_run(pos)
        trace = event_strategies.cross_link(run)
        scalar = score_call(trace).mos
        merged_del, merged_delay = (
            np.asarray([trace.delivered]), np.asarray([trace.delays]))
        vec = mos_rows(merged_del, merged_delay, block.spacing_s)[0]
        assert vec == pytest.approx(scalar, abs=1e-9)


def test_correlation_rows_matches_scalar(block):
    from repro.analysis.correlation import loss_autocorrelation
    x = (~block.delivered[:, 0]).astype(float)
    rows = correlation_rows(x, x, max_lag=8)
    for pos in range(block.n_sessions):
        run = block.paired_run(pos)
        scalar = loss_autocorrelation(run.trace_a, max_lag=8)
        np.testing.assert_allclose(rows[pos], scalar, atol=1e-12)


def test_correlation_rows_degenerate_zero():
    flat = np.zeros((2, 50))
    assert not correlation_rows(flat, flat, max_lag=5).any()
    short = np.ones((1, 2))
    assert not correlation_rows(short, short, max_lag=5).any()


def test_session_payloads_shape_matches_event_payload(block):
    payloads = session_payloads(block)
    assert len(payloads) == block.n_sessions
    reference = wild_run_metrics(
        0, root_seed=SPEC.root_seed, deltas=SPEC.deltas,
        duration_s=10.0)
    assert set(payloads[0]) == set(reference)
    assert set(payloads[0]["worst_window"]) \
        == set(reference["worst_window"])
    assert set(payloads[0]["poor"]) == set(reference["poor"])
    assert set(payloads[0]["bursts"]) == set(reference["bursts"])
    assert len(payloads[0]["autocorr"]) == len(reference["autocorr"])
    for name, contribution in payloads[0]["bursts"].items():
        assert set(contribution) == {"buckets", "lost", "bursty"}
        assert set(contribution["buckets"]) \
            == set(reference["bursts"][name]["buckets"])


def test_summary_poor_flag_uses_mos_threshold(block):
    payloads = session_payloads(block)
    suite = dict((name, (delivered, delays))
                 for name, delivered, delays in strategy_suite(block))
    delivered, delays = suite["stronger"]
    mos = mos_rows(delivered, delays, block.spacing_s)
    for pos, payload in enumerate(payloads):
        assert payload["poor"]["stronger"] \
            == bool(mos[pos] < POOR_MOS_THRESHOLD)


# ----------------------------------------------------- synthetic blocks

def synthetic_block(delivered_a, delays_a, delivered_b, delays_b):
    delivered_a = np.asarray(delivered_a, dtype=bool)
    n = delivered_a.shape[-1]
    profile = StreamProfile(duration_s=n * 0.02)
    delivered = np.stack([delivered_a, np.asarray(delivered_b,
                                                  dtype=bool)], axis=1)
    delays = np.stack([np.asarray(delays_a, dtype=float),
                       np.asarray(delays_b, dtype=float)], axis=1)
    b = delivered.shape[0]
    return TraceBlock(
        profile=profile, indices=tuple(range(b)),
        scenarios=("benign",) * b, deltas=(),
        send_times=np.arange(n) * 0.02,
        delivered=delivered, delays=delays,
        rssi_dbm=np.asarray([[-50.0, -60.0]] * b),
        offset_delivered=np.zeros((b, 0, n), dtype=bool),
        offset_delays=np.zeros((b, 0, n)))


def test_divert_switches_after_loss():
    """H=1, T=1: one loss on the current link flips to the other."""
    block = synthetic_block(
        [[True, False, True, True]], [[0.01, np.nan, 0.01, 0.01]],
        [[True, True, False, True]], [[0.02, 0.02, np.nan, 0.02]])
    suite = dict((name, (delivered, delays))
                 for name, delivered, delays in strategy_suite(block))
    delivered, delays = suite["divert"]
    # packet 0 on A (ok), 1 on A (lost -> switch), 2 on B (lost ->
    # switch back), 3 on A (ok)
    assert delivered[0].tolist() == [True, False, False, True]
    run = block.paired_run(0)
    trace = event_strategies.divert(run)
    assert np.array_equal(delivered[0], trace.delivered)


@pytest.mark.parametrize("lost_a,lost_b", [
    ([], []),
    ([False], [False]), ([True], [False]),
    ([False], [True]), ([True], [True]),
], ids=["n0", "n1-none", "n1-a", "n1-b", "n1-both"])
def test_divert_degenerate_lengths(lost_a, lost_b):
    """n=0 and n=1: the only slot (if any) is always taken from link A."""
    delivered_a = [[not x for x in lost_a]]
    delivered_b = [[not x for x in lost_b]]
    delays_a = [[np.nan if x else 0.01 for x in lost_a]]
    delays_b = [[np.nan if x else 0.02 for x in lost_b]]
    block = synthetic_block(delivered_a, delays_a, delivered_b, delays_b)
    delivered, delays = batch_divert(block)
    assert delivered.shape == delays.shape == (1, len(lost_a))
    assert delivered.tolist() == delivered_a
    assert np.array_equal(delays, np.asarray(delays_a, dtype=float),
                          equal_nan=True)
    trace = event_strategies.divert(block.paired_run(0))
    assert np.array_equal(delivered[0], trace.delivered)
    assert delays[0].tobytes() == trace.delays.tobytes()


def test_worst_window_rows_trailing_partial():
    losses = np.asarray([[0.0] * 10 + [1.0]])
    # window of 5 packets (5 s window / 1 s spacing): the trailing
    # partial window is a single fully-lost packet
    assert worst_window_rows(losses, 1.0)[0] == 1.0
    assert worst_window_rows(losses[:, :0], 0.02)[0] == 0.0
