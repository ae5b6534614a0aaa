"""Tests for packet/trace types and trace merging."""

import math

import numpy as np
import pytest

from repro.core.packet import (
    LinkTrace,
    Packet,
    StreamTrace,
    merge_traces,
)


def make_trace(name, delivered, delays=None, spacing=0.02):
    n = len(delivered)
    send_times = np.arange(n) * spacing
    if delays is None:
        delays = [0.005 if d else math.nan for d in delivered]
    return LinkTrace(name, send_times, delivered, delays)


# --------------------------------------------------------------- LinkTrace

def test_trace_loss_rate():
    trace = make_trace("t", [True, False, True, False])
    assert trace.loss_rate == pytest.approx(0.5)


def test_trace_loss_indicator():
    trace = make_trace("t", [True, False])
    assert trace.loss_indicator.tolist() == [0.0, 1.0]


def test_trace_arrivals_nan_for_losses():
    trace = make_trace("t", [True, False])
    arrivals = trace.arrival_times
    assert arrivals[0] == pytest.approx(0.005)
    assert math.isnan(arrivals[1])


def test_trace_column_length_mismatch_raises():
    with pytest.raises(ValueError):
        LinkTrace("bad", [0.0, 0.02], [True], [0.005])


def test_empty_trace_loss_rate_zero():
    trace = LinkTrace("empty", [], [], [])
    assert trace.loss_rate == 0.0


# ------------------------------------------------------------- StreamTrace

def stream(n=5, spacing=0.02):
    return StreamTrace(n_packets=n, send_times=np.arange(n) * spacing)


def test_stream_first_arrival_wins():
    s = stream()
    assert s.record_arrival(0, 0.01, "primary") is True
    assert s.record_arrival(0, 0.02, "secondary") is False
    assert s.duplicates == 1
    assert s.arrivals[0] == 0.01


def test_stream_earlier_duplicate_updates_time():
    s = stream()
    s.record_arrival(0, 0.05)
    s.record_arrival(0, 0.01)
    assert s.arrivals[0] == 0.01


def test_stream_out_of_range_seq_raises():
    s = stream(n=3)
    with pytest.raises(ValueError):
        s.record_arrival(3, 0.1)
    with pytest.raises(ValueError):
        s.record_arrival(-1, 0.1)


def test_stream_per_link_counters():
    s = stream()
    s.record_arrival(0, 0.01, "primary")
    s.record_arrival(1, 0.03, "primary")
    s.record_arrival(1, 0.04, "secondary")
    assert s.received_on == {"primary": 2, "secondary": 1}


def test_stream_loss_rate():
    s = stream(n=4)
    s.record_arrival(0, 0.01)
    s.record_arrival(2, 0.05)
    assert s.loss_rate == pytest.approx(0.5)


def test_effective_trace_applies_deadline():
    s = stream(n=3)
    s.record_arrival(0, 0.01)            # on time
    s.record_arrival(1, 0.02 + 0.200)    # 200 ms late
    eff = s.effective_trace(deadline=0.100)
    assert eff.delivered.tolist() == [True, False, False]


def test_effective_trace_no_deadline_counts_all():
    s = stream(n=2)
    s.record_arrival(0, 5.0)
    eff = s.effective_trace(deadline=None)
    assert eff.delivered.tolist() == [True, False]


# ------------------------------------------------------------ merge_traces

def test_merge_is_union_of_deliveries():
    a = make_trace("a", [True, False, False, True])
    b = make_trace("b", [False, True, False, True])
    merged = merge_traces([a, b])
    assert merged.delivered.tolist() == [True, True, False, True]


def test_merge_takes_earliest_arrival():
    a = make_trace("a", [True], delays=[0.010])
    b = make_trace("b", [True], delays=[0.003])
    merged = merge_traces([a, b])
    assert merged.delays[0] == pytest.approx(0.003)


def test_merge_requires_equal_lengths():
    a = make_trace("a", [True, True])
    b = make_trace("b", [True])
    with pytest.raises(ValueError):
        merge_traces([a, b])


def test_merge_empty_list_raises():
    with pytest.raises(ValueError):
        merge_traces([])


def test_merge_single_trace_identity():
    a = make_trace("a", [True, False, True])
    merged = merge_traces([a])
    assert merged.delivered.tolist() == a.delivered.tolist()


# ------------------------------------------------- lifecycle invariants

def test_packet_is_frozen():
    """Replication points hand one Packet to every link, so no holder
    may change it under another."""
    import dataclasses

    p = Packet(seq=0, send_time=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.seq = 99
    assert p.seq == 0


def test_nan_delay_does_not_poison_window_aggregates():
    """A lost packet's NaN delay must never leak into the windowed loss
    metrics: they are defined over the boolean delivery column."""
    from repro.analysis.windows import window_loss_rates, worst_window_loss

    delivered = [True, False, True, False]
    delays = [0.005, math.nan, 0.005, math.nan]
    trace = make_trace("lossy", delivered, delays=delays)

    rates = window_loss_rates(trace, window_s=0.04,
                              inter_packet_spacing_s=0.02)
    assert np.isfinite(rates).all()
    assert rates.tolist() == [0.5, 0.5]
    worst = worst_window_loss(trace, window_s=0.04,
                              inter_packet_spacing_s=0.02)
    assert worst == pytest.approx(0.5)


def test_nan_delay_stream_trace_effective_conversion():
    """StreamTrace -> LinkTrace -> windows: packets that never arrived
    stay NaN in the delay column but count cleanly as losses."""
    from repro.analysis.windows import worst_window_loss

    stream = StreamTrace(n_packets=4, send_times=np.arange(4) * 0.02)
    stream.record_arrival(0, 0.005, link="primary")
    stream.record_arrival(2, 0.047, link="secondary")
    trace = stream.effective_trace()
    assert math.isnan(trace.delays[1]) and math.isnan(trace.delays[3])
    assert worst_window_loss(trace, window_s=0.08,
                             inter_packet_spacing_s=0.02) \
        == pytest.approx(0.5)
