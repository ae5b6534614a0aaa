"""Deterministic observability: metrics, spans, canonical JSON export.

The paper's evaluation is built on per-window, per-link evidence —
worst 5-second windows, burst-length distributions, PSM wake/sleep duty
cycles — so the reproduction carries a first-class observability layer
instead of ad-hoc counters:

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges,
  time-weighted gauges and fixed-bucket histograms whose read-out order
  is sorted, never insertion- or hash-ordered;
* :class:`~repro.obs.spans.SpanTracker` — timed regions layered on
  :class:`~repro.sim.tracing.EventLog`, feeding duration histograms;
* :mod:`~repro.obs.export` — canonical JSON, the byte-stable,
  cacheable interchange blob;
* :func:`~repro.obs.runtime.collecting` — the scope the parallel runner
  installs per task so every instrumented component reports into the
  run's own registry.

Determinism contract: metrics are a pure function of the simulated
event sequence.  Serial, ``--jobs N`` and warm-cache executions of the
same batch export byte-identical metrics (asserted under
``REPRO_SANITIZE=1`` and diffed in CI).
"""

from repro.obs.export import (
    EMPTY_METRICS_JSON,
    from_canonical_json,
    merge_metrics_json,
    record_trace_metrics,
    to_canonical_json,
)
from repro.obs.registry import (
    COUNT_BUCKETS,
    DURATION_BUCKETS_S,
    RATIO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    TimeWeightedGauge,
)
from repro.obs.runtime import active_registry, collecting
from repro.obs.spans import SimulatedClock, Span, SpanTracker

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "DURATION_BUCKETS_S",
    "EMPTY_METRICS_JSON",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "RATIO_BUCKETS",
    "SimulatedClock",
    "Span",
    "SpanTracker",
    "TimeWeightedGauge",
    "active_registry",
    "collecting",
    "from_canonical_json",
    "merge_metrics_json",
    "record_trace_metrics",
    "to_canonical_json",
]
