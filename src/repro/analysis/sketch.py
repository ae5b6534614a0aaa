"""Mergeable streaming aggregators for whole-population studies.

The paper's Table 1 rests on a *year* of provider ratings and Table 2 on
a 274-user deployment; reproducing them at 10^6-10^7 calls means the
per-block runner tasks can never ship (or hold) the raw call lists.
Each task instead reduces its block to a handful of *mergeable* sketches
and the driver folds the per-block payloads together **in spec order**
— the same order for serial, ``--jobs N`` and warm-cache executions, so
the merged statistics (and therefore the batch digest and any rendered
table) stay byte-identical across scheduling and caching modes.

The aggregators:

* :class:`LabeledCounts` — *exact* labeled counters: per ``(subset,
  category)`` call totals and poor-call totals.  PCR, the Table 1
  deltas and the Wilson confidence bounds are all pure functions of
  these integers, so at any population size the table values stay equal
  to the frozen pins in ``tests/test_population.py``, to the last bit.
* :class:`GridCdf` — a fixed-grid CDF/quantile sketch: integer bin
  counts over ``[lo, hi)`` plus min/max and out-of-range tallies.
  Quantiles interpolate inside one bin, so the error is bounded by the
  bin width; merging is integer addition (exact, order-free).
* :class:`MomentSketch` — streaming mean/variance via Welford's
  recurrence, merged with the Chan parallel-axis formula.  Floating
  point makes the merge order-*sensitive*, which is exactly why the
  driver merges in spec order.
* :func:`wilson_interval` — the score-interval bounds reported next to
  every population PCR ("confidence intervals that actually tighten at
  scale", ROADMAP item 1).

Every sketch serializes to a plain-JSON payload (``to_payload`` /
``from_payload``) with sorted, canonical key order, so the payloads can
travel through the content-addressed runner cache unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "GridCdf",
    "LabeledCounts",
    "MomentSketch",
    "SketchError",
    "wilson_interval",
]


class SketchError(ValueError):
    """Incompatible sketches were merged or a payload failed to parse."""


# ---------------------------------------------------------------------------
# exact labeled counters

@dataclass
class LabeledCounts:
    """Exact ``label -> (n, poor)`` counters.

    Labels are tuples of strings (e.g. ``("PC", "EE")`` for the Table 1
    PC row's EE column).  Merging adds counts; it is exact and
    order-free, but the repo-wide contract is to merge in spec order
    anyway so every aggregator obeys one rule.
    """

    counts: Dict[Tuple[str, ...], Tuple[int, int]] = field(
        default_factory=dict)

    def observe(self, label: Tuple[str, ...], n: int, poor: int) -> None:
        if n < 0 or poor < 0 or poor > n:
            raise SketchError(
                f"invalid counts for {label!r}: n={n} poor={poor}")
        old_n, old_poor = self.counts.get(label, (0, 0))
        self.counts[label] = (old_n + int(n), old_poor + int(poor))

    def merge(self, other: "LabeledCounts") -> "LabeledCounts":
        for label, (n, poor) in sorted(other.counts.items()):
            self.observe(label, n, poor)
        return self

    def n(self, label: Tuple[str, ...]) -> int:
        return self.counts.get(label, (0, 0))[0]

    def poor(self, label: Tuple[str, ...]) -> int:
        return self.counts.get(label, (0, 0))[1]

    def pcr(self, label: Tuple[str, ...]) -> float:
        """Poor-call rate for ``label`` — ``poor / n`` on exact integer
        counts (exact in float64 up to 2**53), so merged tables stay
        equal to the frozen pins in ``tests/test_population.py``."""
        n, poor = self.counts.get(label, (0, 0))
        if n == 0:
            return float("nan")
        return poor / n

    def wilson(self, label: Tuple[str, ...]) -> Tuple[float, float]:
        n, poor = self.counts.get(label, (0, 0))
        return wilson_interval(poor, n)

    def to_payload(self) -> List[List[Any]]:
        """``[[label..., n, poor], ...]`` sorted by label (byte-stable)."""
        return [[*label, n, poor]
                for label, (n, poor) in sorted(self.counts.items())]

    @classmethod
    def from_payload(cls, payload: Iterable[Iterable[Any]]
                     ) -> "LabeledCounts":
        out = cls()
        for row in payload:
            entries = list(row)
            if len(entries) < 3:
                raise SketchError(f"malformed counter row: {entries!r}")
            label = tuple(str(part) for part in entries[:-2])
            out.observe(label, int(entries[-2]), int(entries[-1]))
        return out


# ---------------------------------------------------------------------------
# fixed-grid CDF / quantile sketch

@dataclass
class GridCdf:
    """Histogram sketch on a fixed grid ``[lo, hi)`` with ``bins`` cells.

    Values below ``lo`` / at-or-above ``hi`` land in dedicated under-
    and overflow tallies; min/max are tracked exactly.  Quantiles are
    linearly interpolated within the containing cell, so the absolute
    error of :meth:`quantile` is at most one bin width for any value
    inside the grid (pinned by ``tests/test_sketch.py``).
    """

    lo: float
    hi: float
    bins: int
    bucket_counts: List[int] = field(default_factory=list)
    below: int = 0
    above: int = 0
    count: int = 0
    min_value: Optional[float] = None
    max_value: Optional[float] = None

    def __post_init__(self) -> None:
        if not (self.hi > self.lo) or self.bins < 1:
            raise SketchError(
                f"invalid grid [{self.lo}, {self.hi}) x {self.bins}")
        if not self.bucket_counts:
            self.bucket_counts = [0] * self.bins
        if len(self.bucket_counts) != self.bins:
            raise SketchError("bucket_counts does not match bins")

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def observe_array(self, values: "np.ndarray") -> None:
        data = np.asarray(values, dtype=float).ravel()
        if data.size == 0:
            return
        self.count += int(data.size)
        lo_v = float(data.min())
        hi_v = float(data.max())
        self.min_value = lo_v if self.min_value is None \
            else min(self.min_value, lo_v)
        self.max_value = hi_v if self.max_value is None \
            else max(self.max_value, hi_v)
        idx = np.floor((data - self.lo) / self.bin_width).astype(np.int64)
        self.below += int(np.count_nonzero(idx < 0))
        self.above += int(np.count_nonzero(idx >= self.bins))
        inside = idx[(idx >= 0) & (idx < self.bins)]
        binned = np.bincount(inside, minlength=self.bins)
        for i in np.nonzero(binned)[0]:
            self.bucket_counts[int(i)] += int(binned[i])

    def merge(self, other: "GridCdf") -> "GridCdf":
        if (other.lo, other.hi, other.bins) != (self.lo, self.hi,
                                                self.bins):
            raise SketchError(
                f"grid mismatch: [{self.lo},{self.hi})x{self.bins} vs "
                f"[{other.lo},{other.hi})x{other.bins}")
        self.bucket_counts = [a + b for a, b in
                              zip(self.bucket_counts,
                                  other.bucket_counts)]
        self.below += other.below
        self.above += other.above
        self.count += other.count
        for bound in (other.min_value,):
            if bound is not None:
                self.min_value = bound if self.min_value is None \
                    else min(self.min_value, bound)
        for bound in (other.max_value,):
            if bound is not None:
                self.max_value = bound if self.max_value is None \
                    else max(self.max_value, bound)
        return self

    def cdf(self, x: float) -> float:
        """Fraction of observed values ``<= x``, at grid resolution
        (values below ``lo`` are only resolvable as "below the grid",
        so for ``x < lo`` the sketch answers 0)."""
        if self.count == 0:
            return float("nan")
        if x < self.lo:
            return 0.0
        idx = int(math.floor((x - self.lo) / self.bin_width))
        covered = self.below + sum(
            self.bucket_counts[:min(idx + 1, self.bins)])
        if idx >= self.bins:
            covered += self.above
        return covered / self.count

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (abs error <= one bin width in-grid)."""
        if not 0.0 <= q <= 1.0:
            raise SketchError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        covered = float(self.below)
        if target <= covered:
            return self.min_value if self.min_value is not None \
                else self.lo
        for i, bucket in enumerate(self.bucket_counts):
            if bucket and covered + bucket >= target:
                frac = (target - covered) / bucket
                return self.lo + (i + frac) * self.bin_width
            covered += bucket
        return self.max_value if self.max_value is not None else self.hi

    def to_payload(self) -> Dict[str, Any]:
        return {
            "above": self.above,
            "below": self.below,
            "bins": self.bins,
            "counts": list(self.bucket_counts),
            "count": self.count,
            "hi": self.hi,
            "lo": self.lo,
            "max": self.max_value,
            "min": self.min_value,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "GridCdf":
        try:
            return cls(lo=float(payload["lo"]), hi=float(payload["hi"]),
                       bins=int(payload["bins"]),
                       bucket_counts=[int(c) for c in payload["counts"]],
                       below=int(payload["below"]),
                       above=int(payload["above"]),
                       count=int(payload["count"]),
                       min_value=None if payload["min"] is None
                       else float(payload["min"]),
                       max_value=None if payload["max"] is None
                       else float(payload["max"]))
        except (KeyError, TypeError) as exc:
            raise SketchError(f"malformed GridCdf payload: {exc}") from exc


# ---------------------------------------------------------------------------
# streaming moments

@dataclass
class MomentSketch:
    """Count / mean / M2 via Welford, merged with Chan's formula.

    The merge is floating point and therefore order-sensitive; callers
    must fold sketches in spec order (the repo's determinism contract)
    so serial, parallel and warm-cache merges are byte-identical.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def observe_array(self, values: "np.ndarray") -> None:
        data = np.asarray(values, dtype=float).ravel()
        if data.size == 0:
            return
        other = MomentSketch(
            count=int(data.size),
            mean=float(np.mean(data)),
            m2=float(np.sum((data - np.mean(data)) ** 2)))
        self.merge(other)

    def merge(self, other: "MomentSketch") -> "MomentSketch":
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self.m2 = (other.count, other.mean,
                                              other.m2)
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = (self.m2 + other.m2
                   + delta * delta * self.count * other.count / total)
        self.mean = self.mean + delta * other.count / total
        self.count = total
        return self

    @property
    def variance(self) -> float:
        if self.count < 2:
            return float("nan")
        return self.m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        variance = self.variance
        return math.sqrt(variance) if variance == variance else variance

    def to_payload(self) -> Dict[str, Any]:
        return {"count": self.count, "m2": self.m2, "mean": self.mean}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "MomentSketch":
        try:
            return cls(count=int(payload["count"]),
                       mean=float(payload["mean"]),
                       m2=float(payload["m2"]))
        except (KeyError, TypeError) as exc:
            raise SketchError(
                f"malformed MomentSketch payload: {exc}") from exc


# ---------------------------------------------------------------------------
# confidence bounds

def wilson_interval(successes: int, n: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because population PCRs sit
    near 0.1 where the Wald interval undercovers; at n = 0 the interval
    is the uninformative ``(0, 1)``.
    """
    if n < 0 or successes < 0 or successes > n:
        raise SketchError(f"invalid proportion: {successes}/{n}")
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    z = 1.96   # the normal quantile of a two-sided 95% interval
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n
                                   + z2 / (4.0 * n * n))
    return (max(center - half, 0.0), min(center + half, 1.0))
