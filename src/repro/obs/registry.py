"""The deterministic metrics registry.

A :class:`MetricsRegistry` holds named, labelled metric instruments:

* :class:`Counter` — a monotonically non-decreasing sum;
* :class:`Gauge` — a last-written value;
* :class:`TimeWeightedGauge` — a value integrated over *simulated* time,
  for duty-cycle style metrics (PSM wake ratio, replication on/off);
* :class:`Histogram` — fixed, half-open buckets ``[lo, hi)`` declared up
  front, plus count/sum/min/max.

Determinism contract: a registry is a pure function of the sequence of
instrument operations applied to it, and every read-out (:meth:`~
MetricsRegistry.snapshot`, the exporters in :mod:`repro.obs.export`)
iterates instruments in sorted ``(name, labels)`` order — never in
insertion or hash order.  Two runs of the same seeded simulation
therefore produce byte-identical exported metrics, and merging per-run
registries in spec order (:meth:`MetricsRegistry.merge`) is
order-deterministic too.  No instrument ever reads a wall clock; time
enters only through explicitly passed simulated timestamps.

A component on a per-packet hot path may keep its own plain tally and
register a *read hook* (:meth:`MetricsRegistry.on_read`) that folds the
tally into its instruments.  Every read-out path (``items``, ``get``,
``snapshot``, ``merge``) runs the hooks first, so a reader always sees
the same instruments the per-event updates would have produced.
"""

from __future__ import annotations

import bisect
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union)

#: canonical label encoding: sorted (key, value) pairs
LabelItems = Tuple[Tuple[str, str], ...]

#: label values accepted by the instrument factories
LabelValue = Union[str, int, bool]

#: default span/duration buckets (seconds), log-spaced around the
#: paper's millisecond-scale switch latencies
DURATION_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 10.0)

#: default buckets for small non-negative counts (retries, queue depths)
COUNT_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 3.0, 5.0, 8.0, 16.0, 64.0)

#: default buckets for rates/fractions in [0, 1]
RATIO_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5)


class MetricError(ValueError):
    """Inconsistent instrument use (kind clash, bucket mismatch...)."""


def _label_items(labels: Mapping[str, LabelValue]) -> LabelItems:
    items: List[Tuple[str, str]] = []
    for key in sorted(labels):
        value = labels[key]
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, (str, int)):
            rendered = str(value)
        else:
            raise MetricError(
                f"label {key}={value!r} is not str/int/bool; labels must "
                "be canonically renderable")
        items.append((key, rendered))
    return tuple(items)


def _number(value: float) -> Union[int, float]:
    """Canonical JSON number: integral floats export as ints."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class Counter:
    """A non-decreasing sum."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter increment {amount!r} is negative")
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        return {"value": _number(self.value)}

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    @classmethod
    def from_snapshot(cls, data: Mapping[str, object]) -> "Counter":
        counter = cls()
        counter.value = float(data["value"])  # type: ignore[arg-type]
        return counter


class Gauge:
    """A last-written value (merge keeps the later write, in merge order)."""

    kind = "gauge"
    __slots__ = ("value", "writes")

    def __init__(self) -> None:
        self.value = 0.0
        self.writes = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.writes += 1

    def snapshot(self) -> Dict[str, object]:
        return {"value": _number(self.value), "writes": self.writes}

    def merge(self, other: "Gauge") -> None:
        if other.writes:
            self.value = other.value
        self.writes += other.writes

    @classmethod
    def from_snapshot(cls, data: Mapping[str, object]) -> "Gauge":
        gauge = cls()
        gauge.value = float(data["value"])  # type: ignore[arg-type]
        gauge.writes = int(data["writes"])  # type: ignore[arg-type]
        return gauge


class TimeWeightedGauge:
    """A value integrated over simulated time.

    ``set(t, v)`` charges the previous value for the interval since the
    previous ``set`` (half-open ``[prev_t, t)``); :meth:`close` charges
    the final value up to the end of the observation period.  The
    time-weighted mean is ``integral / duration`` — e.g. the PSM wake
    ratio when the value is a 0/1 awake indicator.
    """

    kind = "time_gauge"
    __slots__ = ("integral", "duration", "last_time", "last_value")

    def __init__(self) -> None:
        self.integral = 0.0
        self.duration = 0.0
        self.last_time: Optional[float] = None
        self.last_value = 0.0

    def set(self, time: float, value: float) -> None:
        self._advance(time)
        self.last_time = time
        self.last_value = float(value)

    def close(self, time: float) -> None:
        """Finalize the observation period at simulated ``time``."""
        self._advance(time)
        self.last_time = time

    def _advance(self, time: float) -> None:
        if self.last_time is not None:
            span = time - self.last_time
            if span < 0:
                raise MetricError(
                    f"time-weighted gauge observed t={time!r} before "
                    f"t={self.last_time!r}; simulated time is monotone")
            self.integral += self.last_value * span
            self.duration += span

    @property
    def mean(self) -> float:
        return self.integral / self.duration if self.duration > 0 else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {"integral": _number(self.integral),
                "duration": _number(self.duration),
                "mean": _number(self.mean)}

    def merge(self, other: "TimeWeightedGauge") -> None:
        self.integral += other.integral
        self.duration += other.duration

    @classmethod
    def from_snapshot(cls, data: Mapping[str, object]
                      ) -> "TimeWeightedGauge":
        gauge = cls()
        gauge.integral = float(data["integral"])  # type: ignore[arg-type]
        gauge.duration = float(data["duration"])  # type: ignore[arg-type]
        return gauge


class Histogram:
    """Fixed-bucket histogram with half-open buckets.

    ``bounds`` are the strictly increasing upper bucket edges; bucket
    ``i`` counts observations in ``[bounds[i-1], bounds[i])`` and a final
    overflow bucket counts ``v >= bounds[-1]``.  A value equal to an edge
    lands in the *higher* bucket — the same ``[start, end)`` convention
    the interval bugfix established for windows and event slices, so a
    boundary observation is never counted twice.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: Sequence[float]) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise MetricError("histogram needs at least one bucket bound")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise MetricError(
                f"histogram bounds {edges!r} must be strictly increasing")
        self.bounds: Tuple[float, ...] = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float, times: int = 1) -> None:
        """Record ``value``, ``times`` times over."""
        value = float(value)
        self.counts[bisect.bisect_right(self.bounds, value)] += times
        self.count += times
        self.total += value * times
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def snapshot(self) -> Dict[str, object]:
        return {
            "bounds": [_number(b) for b in self.bounds],
            "counts": list(self.counts),
            "count": self.count,
            "sum": _number(self.total),
            "min": None if self.minimum is None else _number(self.minimum),
            "max": None if self.maximum is None else _number(self.maximum),
        }

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise MetricError(
                f"cannot merge histograms with bounds {self.bounds!r} "
                f"and {other.bounds!r}")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        for extremum in (other.minimum,):
            if extremum is not None and (self.minimum is None
                                         or extremum < self.minimum):
                self.minimum = extremum
        for extremum in (other.maximum,):
            if extremum is not None and (self.maximum is None
                                         or extremum > self.maximum):
                self.maximum = extremum

    @classmethod
    def from_snapshot(cls, data: Mapping[str, object]) -> "Histogram":
        histogram = cls(data["bounds"])  # type: ignore[arg-type]
        counts = [int(c) for c in data["counts"]]  # type: ignore[union-attr]
        if len(counts) != len(histogram.counts):
            raise MetricError("histogram snapshot counts/bounds mismatch")
        histogram.counts = counts
        histogram.count = int(data["count"])  # type: ignore[arg-type]
        histogram.total = float(data["sum"])  # type: ignore[arg-type]
        minimum = data.get("min")
        maximum = data.get("max")
        histogram.minimum = None if minimum is None else float(minimum)  # type: ignore[arg-type]
        histogram.maximum = None if maximum is None else float(maximum)  # type: ignore[arg-type]
        return histogram


Metric = Union[Counter, Gauge, TimeWeightedGauge, Histogram]

_KINDS: Dict[str, Type[Metric]] = {
    Counter.kind: Counter,
    Gauge.kind: Gauge,
    TimeWeightedGauge.kind: TimeWeightedGauge,
    Histogram.kind: Histogram,
}


class MetricsRegistry:
    """Named, labelled instruments with deterministic read-out order."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], Metric] = {}
        self._read_hooks: List[Callable[[], None]] = []

    def __len__(self) -> int:
        return len(self._metrics)

    def __bool__(self) -> bool:
        # An empty registry is still a registry; truthiness follows
        # identity, not content, so ``metrics or fallback`` never
        # silently replaces a registry that happens to be empty yet.
        return True

    # ------------------------------------------------------- factories

    def counter(self, name: str, **labels: LabelValue) -> Counter:
        metric = self._get_or_create(name, _label_items(labels), Counter)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, **labels: LabelValue) -> Gauge:
        metric = self._get_or_create(name, _label_items(labels), Gauge)
        assert isinstance(metric, Gauge)
        return metric

    def time_gauge(self, name: str,
                   **labels: LabelValue) -> TimeWeightedGauge:
        metric = self._get_or_create(name, _label_items(labels),
                                     TimeWeightedGauge)
        assert isinstance(metric, TimeWeightedGauge)
        return metric

    def histogram(self, name: str,
                  bounds: Sequence[float] = DURATION_BUCKETS_S,
                  **labels: LabelValue) -> Histogram:
        key = (name, _label_items(labels))
        existing = self._metrics.get(key)
        if existing is None:
            histogram = Histogram(bounds)
            self._metrics[key] = histogram
            return histogram
        if not isinstance(existing, Histogram):
            raise MetricError(
                f"metric {name!r}{dict(key[1])!r} is a "
                f"{existing.kind}, not a histogram")
        if existing.bounds != tuple(float(b) for b in bounds):
            raise MetricError(
                f"histogram {name!r} re-declared with different bounds")
        return existing

    def _get_or_create(self, name: str, labels: LabelItems,
                       cls: Type[Metric]) -> Metric:
        if not name:
            raise MetricError("metric name must be non-empty")
        key = (name, labels)
        existing = self._metrics.get(key)
        if existing is None:
            metric: Metric = cls()
            self._metrics[key] = metric
            return metric
        if not isinstance(existing, cls):
            raise MetricError(
                f"metric {name!r}{dict(labels)!r} is a "
                f"{existing.kind}, not a {cls.kind}")
        return existing

    # --------------------------------------------------------- read-out

    def on_read(self, fold: Callable[[], None]) -> None:
        """Run ``fold`` before every read-out.  ``fold`` moves a
        component's pending tally into its instruments and clears the
        tally, so running it twice counts nothing twice."""
        self._read_hooks.append(fold)

    def _fold_pending(self) -> None:
        for fold in self._read_hooks:
            fold()

    def items(self) -> List[Tuple[str, LabelItems, Metric]]:
        """Instruments in sorted ``(name, labels)`` order."""
        self._fold_pending()
        return [(name, labels, self._metrics[(name, labels)])
                for name, labels in sorted(self._metrics)]

    def get(self, name: str,
            **labels: LabelValue) -> Optional[Metric]:
        self._fold_pending()
        return self._metrics.get((name, _label_items(labels)))

    def snapshot(self) -> Dict[str, object]:
        """The canonical plain-data form (sorted, JSON-able)."""
        entries: List[Dict[str, object]] = []
        for name, labels, metric in self.items():
            entry: Dict[str, object] = {
                "name": name,
                "kind": metric.kind,
                "labels": {key: value for key, value in labels},
            }
            entry.update(metric.snapshot())
            entries.append(entry)
        return {"metrics": entries}

    # ----------------------------------------------------------- merge

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (deterministic in call
        order: counters/histograms/time-gauges add, gauges last-write-
        wins).  Returns ``self`` for chaining."""
        self._fold_pending()
        for name, labels, metric in other.items():
            key = (name, labels)
            existing = self._metrics.get(key)
            if existing is None:
                # Deep-copy through the snapshot codec so later merges
                # never mutate the source registry's instruments.
                self._metrics[key] = _KINDS[metric.kind].from_snapshot(
                    metric.snapshot())
            elif type(existing) is not type(metric):
                raise MetricError(
                    f"merge kind clash for {name!r}: "
                    f"{existing.kind} vs {metric.kind}")
            else:
                existing.merge(metric)  # type: ignore[arg-type]
        return self

    @classmethod
    def from_snapshot(cls, data: Mapping[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        registry = cls()
        entries = data.get("metrics", [])
        if not isinstance(entries, list):
            raise MetricError("snapshot 'metrics' must be a list")
        for entry in entries:
            if not isinstance(entry, Mapping):
                raise MetricError(f"snapshot entry {entry!r} is not a map")
            kind = entry.get("kind")
            metric_cls = _KINDS.get(kind)  # type: ignore[arg-type]
            if metric_cls is None:
                raise MetricError(f"unknown metric kind {kind!r}")
            name = entry["name"]
            labels = entry.get("labels", {})
            if not isinstance(name, str) or not isinstance(labels, Mapping):
                raise MetricError(f"malformed snapshot entry {entry!r}")
            key = (name, _label_items(labels))
            if key in registry._metrics:
                raise MetricError(
                    f"duplicate snapshot entry for {name!r}{dict(key[1])!r}")
            registry._metrics[key] = metric_cls.from_snapshot(entry)
        return registry
