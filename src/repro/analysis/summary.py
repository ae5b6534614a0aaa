"""Statistical comparison helpers for experiment results.

Reproduction claims live or die on whether differences are real; these
utilities provide the nonparametric machinery the benchmark assertions
lean on informally:

* bootstrap confidence intervals for means/quantiles of per-run metrics;
* paired-difference bootstrap (the Section 4 strategy comparisons are
  paired by construction — same channel realization per run);
* a permutation test for "strategy A beats strategy B".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.random import RandomRouter


#: two-sided coverage of every interval below; every resampling draw
#: comes from a named stream of a router seeded with 0, like every other
#: stochastic component
CONFIDENCE = 0.95
#: bootstrap resamples, and sign-flip permutations of the paired test
N_RESAMPLES = 2000
N_PERMUTATIONS = 5000


@dataclass(frozen=True)
class Interval:
    """A bootstrap interval for a statistic."""

    point: float
    low: float
    high: float
    confidence: float

    # ROADMAP item 3 asserts paper claims at these intervals
    def contains(self, value: float) -> bool:  # reproflow: disable=RCH602
        return self.low <= value <= self.high

    def __str__(self) -> str:   # pragma: no cover - convenience
        return (f"{self.point:.3f} "
                f"[{self.low:.3f}, {self.high:.3f}]"
                f"@{self.confidence:.0%}")


def bootstrap_interval(samples: Sequence[float]) -> Interval:
    """Percentile-bootstrap CI for the mean of ``samples``."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise ValueError("no samples")
    rng = RandomRouter(0).stream("analysis.bootstrap")
    stats = np.empty(N_RESAMPLES)
    for i in range(N_RESAMPLES):
        resample = data[rng.integers(0, data.size, size=data.size)]
        stats[i] = np.mean(resample)
    alpha = (1.0 - CONFIDENCE) / 2.0
    return Interval(point=float(np.mean(data)),
                    low=float(np.quantile(stats, alpha)),
                    high=float(np.quantile(stats, 1.0 - alpha)),
                    confidence=CONFIDENCE)


# ROADMAP item 3 asserts paper claims at these intervals
def paired_difference_interval(  # reproflow: disable=RCH602
        a: Sequence[float], b: Sequence[float]) -> Interval:
    """Bootstrap CI for mean(a - b) over paired per-run metrics."""
    a = np.asarray(list(a), dtype=float)
    b = np.asarray(list(b), dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    return bootstrap_interval(a - b)


# reference of the paired test in tests/test_paper_claims.py, which
# ROADMAP item 3 moves onto the runner
def permutation_pvalue(  # reproflow: disable=RCH602
        a: Sequence[float], b: Sequence[float]) -> float:
    """One-sided paired sign-flip test for mean(a) < mean(b).

    Returns the probability, under random sign flips of the paired
    differences, of seeing a mean difference at least as negative as
    observed.  Small p => strategy A genuinely scores lower than B.
    """
    a = np.asarray(list(a), dtype=float)
    b = np.asarray(list(b), dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    diffs = a - b
    observed = diffs.mean()
    rng = RandomRouter(0).stream("analysis.permutation")
    count = 0
    for _ in range(N_PERMUTATIONS):
        signs = rng.choice((-1.0, 1.0), size=diffs.size)
        if (diffs * signs).mean() <= observed:
            count += 1
    return (count + 1) / (N_PERMUTATIONS + 1)


def improvement_factor_interval(baseline: Sequence[float],
                                treatment: Sequence[float]) -> Interval:
    """Bootstrap CI for mean(baseline)/mean(treatment) — the "2.24x"
    style headline numbers (PCR cut factors)."""
    base = np.asarray(list(baseline), dtype=float)
    treat = np.asarray(list(treatment), dtype=float)
    if base.size == 0 or treat.size == 0:
        raise ValueError("no samples")
    rng = RandomRouter(0).stream("analysis.improvement")
    ratios = []
    for _ in range(N_RESAMPLES):
        rb = base[rng.integers(0, base.size, size=base.size)]
        rt = treat[rng.integers(0, treat.size, size=treat.size)]
        denominator = max(rt.mean(), 1e-12)
        ratios.append(rb.mean() / denominator)
    ratios = np.asarray(ratios)
    alpha = (1.0 - CONFIDENCE) / 2.0
    point = base.mean() / max(treat.mean(), 1e-12)
    return Interval(point=float(point),
                    low=float(np.quantile(ratios, alpha)),
                    high=float(np.quantile(ratios, 1.0 - alpha)),
                    confidence=CONFIDENCE)
