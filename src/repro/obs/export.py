"""Canonical JSON export of a metrics registry.

The export is a pure function of a registry snapshot, which iterates in
the registry's sorted order, so it is byte-stable: the same simulated
runs — serial, parallel or replayed from the result cache — export the
same bytes.  Canonical JSON (sorted keys, compact separators) is the
interchange format the runner caches and the CLI's ``--metrics-out``
writes.
"""

from __future__ import annotations

import json
from typing import List, Union

from repro.obs.registry import MetricsRegistry


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


# reference of the batch instrument-schema parity test
def record_trace_metrics(  # reproflow: disable=RCH602
        registry: MetricsRegistry, trace: object,
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
    for rate in window_loss_rates(loss, inter_packet_spacing_s=spacing):
        windows.observe(float(rate))
