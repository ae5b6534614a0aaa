"""Exporters: canonical JSON, CSV, and Prometheus text format.

All three are pure functions of a registry snapshot and iterate it in
the registry's sorted order, so each format is byte-stable: the same
simulated runs — serial, parallel or replayed from the result cache —
export the same bytes.  Canonical JSON (sorted keys, compact
separators) is the interchange format the runner caches and the CLI's
``--metrics-out`` writes; CSV and Prometheus are for spreadsheets and
scrape endpoints respectively.
"""

from __future__ import annotations

import io
import json
import re
from typing import List, Mapping, Optional, Tuple, Union

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    LabelItems,
    MetricsRegistry,
    TimeWeightedGauge,
    _number,
)

#: characters legal in a Prometheus metric name
_PROM_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LABEL_BAD = re.compile(r"[^a-zA-Z0-9_]")


def to_canonical_json(registry: MetricsRegistry) -> str:
    """Byte-stable canonical JSON for ``registry``."""
    return json.dumps(registry.snapshot(), sort_keys=True,
                      separators=(",", ":"))


def from_canonical_json(text: str) -> MetricsRegistry:
    """Inverse of :func:`to_canonical_json`."""
    return MetricsRegistry.from_snapshot(json.loads(text))


def merge_metrics_json(blobs: List[str]) -> MetricsRegistry:
    """Merge canonical-JSON metric blobs in sequence order."""
    merged = MetricsRegistry()
    for blob in blobs:
        merged.merge(from_canonical_json(blob))
    return merged


#: the canonical export of a registry with no instruments
EMPTY_METRICS_JSON = to_canonical_json(MetricsRegistry())


def _labels_cell(labels: LabelItems) -> str:
    return ";".join(f"{key}={value}" for key, value in labels)


def to_csv(registry: MetricsRegistry) -> str:
    """``name,kind,labels,field,value`` rows (header included)."""
    out = io.StringIO()
    out.write("name,kind,labels,field,value\r\n")
    for name, labels, metric in registry.items():
        prefix = f"{name},{metric.kind},{_labels_cell(labels)}"
        for field, value in sorted(metric.snapshot().items()):
            if isinstance(value, list):
                rendered = ";".join(str(v) for v in value)
            elif value is None:
                rendered = ""
            else:
                rendered = str(value)
            out.write(f"{prefix},{field},{rendered}\r\n")
    return out.getvalue()


def _prom_name(name: str) -> str:
    return _PROM_NAME_BAD.sub("_", name)


def _prom_labels(labels: LabelItems,
                 extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(key, value) for key, value in labels]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    rendered = ",".join(
        f'{_PROM_LABEL_BAD.sub("_", key)}="{value}"'
        for key, value in pairs)
    return "{" + rendered + "}"


def _fmt(value: Union[int, float]) -> str:
    value = _number(value)
    return repr(value) if isinstance(value, float) else str(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format (0.0.4)."""
    lines: List[str] = []
    for name, labels, metric in registry.items():
        prom = _prom_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom}{_prom_labels(labels)} "
                         f"{_fmt(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom}{_prom_labels(labels)} "
                         f"{_fmt(metric.value)}")
        elif isinstance(metric, TimeWeightedGauge):
            lines.append(f"# TYPE {prom}_mean gauge")
            lines.append(f"{prom}_mean{_prom_labels(labels)} "
                         f"{_fmt(metric.mean)}")
            lines.append(f"{prom}_seconds_total{_prom_labels(labels)} "
                         f"{_fmt(metric.duration)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.counts):
                cumulative += count
                le = ("le", _fmt(bound))
                lines.append(f"{prom}_bucket{_prom_labels(labels, le)} "
                             f"{cumulative}")
            lines.append(
                f'{prom}_bucket{_prom_labels(labels, ("le", "+Inf"))} '
                f"{metric.count}")
            lines.append(f"{prom}_sum{_prom_labels(labels)} "
                         f"{_fmt(metric.total)}")
            lines.append(f"{prom}_count{_prom_labels(labels)} "
                         f"{metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def record_trace_metrics(registry: MetricsRegistry, trace: object,
                         window_s: float = 5.0,
                         **labels: Union[str, int, bool]) -> None:
    """Record the standard per-trace metrics for one ``LinkTrace``.

    Populates loss counters, the burst-length histogram and the
    per-window loss-rate histogram — the per-link telemetry the paper's
    worst-window and burst-distribution evidence is built from.  The
    same instruments are produced whether the trace came from the exact
    :class:`~repro.channel.link.WifiLink` path or the vectorized
    :func:`repro.batch.render.render_session`, which is what the
    renderer-parity test compares.
    """
    # Local imports: analysis is a consumer of obs elsewhere; keep the
    # module import graph acyclic at import time.
    from repro.analysis.bursts import burst_lengths
    from repro.analysis.windows import window_loss_rates
    from repro.obs.registry import COUNT_BUCKETS, RATIO_BUCKETS

    loss = trace.loss_indicator  # type: ignore[attr-defined]
    n = int(loss.size)
    lost = int(loss.sum())
    registry.counter("trace.packets", **labels).inc(n)
    registry.counter("trace.lost", **labels).inc(lost)
    bursts = registry.histogram("trace.burst_len",
                                bounds=COUNT_BUCKETS, **labels)
    for length in burst_lengths(loss):
        bursts.observe(float(length))
    windows = registry.histogram("trace.window_loss_rate",
                                 bounds=RATIO_BUCKETS, **labels)
    send_times = trace.send_times  # type: ignore[attr-defined]
    if len(send_times) >= 2:
        spacing = float(send_times[1] - send_times[0])
    else:
        spacing = 0.020
    for rate in window_loss_rates(loss, window_s=window_s,
                                  inter_packet_spacing_s=spacing):
        windows.observe(float(rate))
