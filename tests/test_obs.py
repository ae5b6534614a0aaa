"""Tests for the deterministic observability layer (``repro.obs``):
registry instruments, merge semantics, span tracking, canonical JSON
export, and the process-local collection scope the runner installs."""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    COUNT_BUCKETS,
    DURATION_BUCKETS_S,
    EMPTY_METRICS_JSON,
    MetricError,
    MetricsRegistry,
    SpanTracker,
    active_registry,
    collecting,
    from_canonical_json,
    merge_metrics_json,
    record_trace_metrics,
    to_canonical_json,
)
from repro.core.packet import LinkTrace
from repro.sim.tracing import EventLog


# ---------------------------------------------------------------- counters

def test_counter_inc_and_snapshot():
    registry = MetricsRegistry()
    counter = registry.counter("x.count")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    assert registry.counter("x.count") is counter   # same instrument
    assert counter.snapshot() == {"value": 3.5}


def test_counter_rejects_negative():
    with pytest.raises(MetricError):
        MetricsRegistry().counter("c").inc(-1.0)


def test_counter_integral_value_exports_as_int():
    registry = MetricsRegistry()
    registry.counter("c").inc(2.0)
    snapshot = registry.snapshot()["metrics"][0]
    assert snapshot["value"] == 2
    assert isinstance(snapshot["value"], int)


# ------------------------------------------------------------------ gauges

def test_gauge_last_write_wins():
    registry = MetricsRegistry()
    gauge = registry.gauge("g")
    gauge.set(1.0)
    gauge.set(7.0)
    assert gauge.value == 7.0
    assert gauge.writes == 2


def test_gauge_merge_respects_write_order():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.gauge("g").set(1.0)
    b.gauge("g").set(2.0)
    merged = MetricsRegistry().merge(a).merge(b)
    assert merged.gauge("g").value == 2.0
    # An unwritten gauge never clobbers a written one.
    c = MetricsRegistry()
    c.gauge("g")
    merged.merge(c)
    assert merged.gauge("g").value == 2.0


# ------------------------------------------------------- time-weighted

def test_time_gauge_integrates_simulated_time():
    registry = MetricsRegistry()
    awake = registry.time_gauge("awake")
    awake.set(0.0, 1.0)
    awake.set(6.0, 0.0)      # awake for [0, 6)
    awake.close(10.0)        # asleep for [6, 10)
    assert awake.integral == pytest.approx(6.0)
    assert awake.duration == pytest.approx(10.0)
    assert awake.mean == pytest.approx(0.6)


def test_time_gauge_rejects_time_regression():
    gauge = MetricsRegistry().time_gauge("t")
    gauge.set(5.0, 1.0)
    with pytest.raises(MetricError):
        gauge.set(4.0, 0.0)


def test_time_gauge_merge_pools_intervals():
    # Two sessions, each with its own clock starting at 0, fold into one
    # duty-cycle figure — the WifiManager pattern.
    a, b = MetricsRegistry(), MetricsRegistry()
    ga = a.time_gauge("awake")
    ga.set(0.0, 1.0)
    ga.close(4.0)            # 4 s awake of 4 s
    gb = b.time_gauge("awake")
    gb.set(0.0, 0.0)
    gb.close(4.0)            # 4 s asleep of 4 s
    merged = MetricsRegistry().merge(a).merge(b)
    assert merged.time_gauge("awake").mean == pytest.approx(0.5)


# -------------------------------------------------------------- histograms

def test_histogram_buckets_are_half_open():
    registry = MetricsRegistry()
    hist = registry.histogram("h", bounds=(1.0, 2.0))
    for v in (0.5, 1.0, 1.5, 2.0):
        hist.observe(v)
    # [.., 1): {0.5}; [1, 2): {1.0, 1.5}; [2, ..): {2.0} — each boundary
    # value lands in exactly one (the higher) bucket.
    assert hist.counts == [1, 2, 1]
    assert hist.count == 4
    assert hist.minimum == 0.5 and hist.maximum == 2.0


def test_histogram_redeclare_same_bounds_ok_different_raises():
    registry = MetricsRegistry()
    first = registry.histogram("h", bounds=(1.0, 2.0))
    assert registry.histogram("h", bounds=(1.0, 2.0)) is first
    with pytest.raises(MetricError):
        registry.histogram("h", bounds=(1.0, 3.0))


def test_histogram_bounds_must_increase():
    with pytest.raises(MetricError):
        MetricsRegistry().histogram("h", bounds=(2.0, 1.0))
    with pytest.raises(MetricError):
        MetricsRegistry().histogram("h", bounds=())


def test_histogram_merge_adds_counts_and_extrema():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("h", bounds=(1.0,)).observe(0.5)
    b.histogram("h", bounds=(1.0,)).observe(3.0)
    merged = MetricsRegistry().merge(a).merge(b)
    hist = merged.histogram("h", bounds=(1.0,))
    assert hist.counts == [1, 1]
    assert hist.minimum == 0.5 and hist.maximum == 3.0
    c = MetricsRegistry()
    c.histogram("h", bounds=(2.0,))
    with pytest.raises(MetricError):
        merged.merge(c)


# -------------------------------------------------------------- registry

def test_registry_kind_clash_raises():
    registry = MetricsRegistry()
    registry.counter("m")
    with pytest.raises(MetricError):
        registry.gauge("m")
    with pytest.raises(MetricError):
        registry.histogram("m")


def test_registry_rejects_empty_name_and_bad_label():
    registry = MetricsRegistry()
    with pytest.raises(MetricError):
        registry.counter("")
    with pytest.raises(MetricError):
        registry.counter("c", bad=1.5)


def test_registry_readout_is_sorted_not_insertion_ordered():
    registry = MetricsRegistry()
    registry.counter("zz")
    registry.counter("aa", link="s")
    registry.counter("aa", link="p")
    keys = [(name, labels) for name, labels, _ in registry.items()]
    assert keys == [("aa", (("link", "p"),)),
                    ("aa", (("link", "s"),)),
                    ("zz", ())]


def test_registry_labels_distinguish_instruments():
    registry = MetricsRegistry()
    registry.counter("c", link="primary").inc()
    registry.counter("c", link="secondary").inc(5)
    assert registry.counter("c", link="primary").value == 1.0
    assert registry.get("c", link="secondary").value == 5.0
    assert registry.get("c", link="nope") is None


def test_registry_bool_is_identity_not_content():
    assert bool(MetricsRegistry()) is True


def test_merge_does_not_alias_source_instruments():
    source = MetricsRegistry()
    source.counter("c").inc(1.0)
    merged = MetricsRegistry().merge(source)
    merged.counter("c").inc(10.0)
    assert source.counter("c").value == 1.0


def test_snapshot_roundtrip_all_kinds():
    registry = MetricsRegistry()
    registry.counter("c", link="p").inc(3)
    registry.gauge("g").set(1.5)
    tg = registry.time_gauge("t")
    tg.set(0.0, 1.0)
    tg.close(2.0)
    registry.histogram("h", bounds=(1.0, 2.0)).observe(1.2)
    rebuilt = MetricsRegistry.from_snapshot(registry.snapshot())
    assert to_canonical_json(rebuilt) == to_canonical_json(registry)


# ------------------------------------------------------------------ spans

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_records_events_and_duration_histogram():
    clock = FakeClock()
    registry = MetricsRegistry()
    log = EventLog()
    spans = SpanTracker(clock, registry=registry, event_log=log,
                        source="client")
    span = spans.span("visit", reason="recovery")
    clock.now = 0.25
    assert span.end() == pytest.approx(0.25)
    assert [e.kind for e in log] == ["visit.begin", "visit.end"]
    assert log.of_kind("visit.end")[0].time == 0.25
    hist = registry.get("visit.duration_s", reason="recovery")
    assert hist.count == 1
    assert hist.total == pytest.approx(0.25)


def test_span_end_is_idempotent():
    clock = FakeClock()
    registry = MetricsRegistry()
    spans = SpanTracker(clock, registry=registry)
    span = spans.span("s")
    clock.now = 1.0
    span.end()
    clock.now = 2.0
    assert span.end() == pytest.approx(1.0)   # recorded duration, no re-obs
    assert registry.get("s.duration_s").count == 1


def test_span_context_manager_and_clock_regression():
    clock = FakeClock()
    spans = SpanTracker(clock, registry=MetricsRegistry())
    with spans.span("s") as span:
        clock.now = 0.5
    assert span.end_time is not None
    clock.now = 1.0
    late = spans.span("late")
    clock.now = 0.0
    with pytest.raises(ValueError):
        late.end()


def test_span_without_registry_or_log_still_times():
    clock = FakeClock()
    spans = SpanTracker(clock)
    span = spans.span("bare")
    clock.now = 0.125
    assert span.end() == pytest.approx(0.125)


# -------------------------------------------------------------- exporters

def build_sample_registry():
    registry = MetricsRegistry()
    registry.counter("mac.attempts", link="primary").inc(12)
    registry.gauge("sim.final_time_s").set(10.0)
    tg = registry.time_gauge("wifi.awake", adapter="secondary")
    tg.set(0.0, 1.0)
    tg.close(4.0)
    registry.histogram("visit.duration_s", bounds=(0.01, 0.1)).observe(0.02)
    return registry


def test_canonical_json_roundtrip_and_stability():
    registry = build_sample_registry()
    blob = to_canonical_json(registry)
    assert blob == to_canonical_json(from_canonical_json(blob))
    # Canonical: compact separators, sorted keys.
    assert ": " not in blob
    parsed = json.loads(blob)
    names = [entry["name"] for entry in parsed["metrics"]]
    assert names == sorted(names)


def test_empty_metrics_json_constant():
    assert json.loads(EMPTY_METRICS_JSON) == {"metrics": []}
    assert to_canonical_json(MetricsRegistry()) == EMPTY_METRICS_JSON


def test_merge_metrics_json_order_and_identity():
    a = MetricsRegistry()
    a.counter("c").inc(1)
    b = MetricsRegistry()
    b.counter("c").inc(2)
    merged = merge_metrics_json(
        [to_canonical_json(a), EMPTY_METRICS_JSON, to_canonical_json(b)])
    assert merged.counter("c").value == 3.0


# ------------------------------------------------------------- runtime

def test_collecting_installs_and_restores():
    assert active_registry() is None
    with collecting() as registry:
        assert active_registry() is registry
        inner = MetricsRegistry()
        with collecting(inner) as got:
            assert got is inner
            assert active_registry() is inner
        assert active_registry() is registry
    assert active_registry() is None


def test_collecting_restores_on_exception():
    with pytest.raises(RuntimeError):
        with collecting():
            raise RuntimeError("boom")
    assert active_registry() is None


def test_instrumented_component_defaults_to_active_registry():
    from repro.core.controller import run_session
    from repro.core.config import StreamProfile
    from tests.test_client_controller import (
        clean_gilbert, link_factory, outage_gilbert)
    profile = StreamProfile(duration_s=5.0)
    factory = link_factory(outage_gilbert(), clean_gilbert())
    with collecting() as registry:
        result = run_session(factory, mode="diversifi-ap",
                             profile=profile, seed=21)
    counter = registry.get("client.recovered", mode="diversifi-ap")
    assert counter is not None
    assert counter.value == result.client_stats.recovered
    assert registry.get("session.runs", mode="diversifi-ap").value == 1
    # MAC layers built inside the factory picked up the ambient scope
    # (the test factory names its links "p" and "s").
    assert registry.get("mac.attempts", link="p") is not None
    assert registry.get("wifi.awake", adapter="primary").duration > 0


def test_session_metrics_reproducible():
    from repro.core.controller import run_session
    from repro.core.config import StreamProfile
    from tests.test_client_controller import (
        clean_gilbert, link_factory, outage_gilbert)
    profile = StreamProfile(duration_s=5.0)

    def capture():
        factory = link_factory(outage_gilbert(), clean_gilbert())
        with collecting() as registry:
            run_session(factory, mode="diversifi-ap",
                        profile=profile, seed=22)
        return to_canonical_json(registry)

    assert capture() == capture()


# ------------------------------------------------------ trace metrics

def test_record_trace_metrics_counts_losses_and_bursts():
    losses = np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=float)
    delivered = [not bool(x) for x in losses]
    delays = [0.005 if d else float("nan") for d in delivered]
    trace = LinkTrace("t", np.arange(losses.size) * 0.02, delivered, delays)
    registry = MetricsRegistry()
    record_trace_metrics(registry, trace, link="primary")
    assert registry.get("trace.packets", link="primary").value == 8
    assert registry.get("trace.lost", link="primary").value == 3
    bursts = registry.get("trace.burst_len", link="primary")
    assert bursts.count == 2             # one 2-burst, one 1-burst
    assert bursts.total == pytest.approx(3.0)


def test_public_api_exports_exist():
    for name in obs.__all__:
        assert hasattr(obs, name), name
    assert obs.__all__ == sorted(obs.__all__)
    assert COUNT_BUCKETS and DURATION_BUCKETS_S
