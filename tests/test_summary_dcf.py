"""Tests for the statistics helpers."""

import numpy as np
import pytest

from repro.analysis.summary import (
    Interval,
    bootstrap_interval,
    improvement_factor_interval,
    paired_difference_interval,
    permutation_pvalue,
)


# ------------------------------------------------------------- statistics

def test_bootstrap_interval_covers_mean():
    rng = np.random.default_rng(0)
    samples = rng.normal(10.0, 2.0, size=200)
    interval = bootstrap_interval(samples)
    assert interval.contains(10.0)
    assert interval.low < interval.point < interval.high


def test_bootstrap_interval_narrows_with_n():
    rng = np.random.default_rng(1)
    small = bootstrap_interval(rng.normal(0, 1, 20))
    large = bootstrap_interval(rng.normal(0, 1, 2000))
    assert (large.high - large.low) < (small.high - small.low)


def test_bootstrap_validates_inputs():
    with pytest.raises(ValueError):
        bootstrap_interval([])


def test_paired_difference_detects_shift():
    rng = np.random.default_rng(2)
    base = rng.normal(5.0, 1.0, size=100)
    shifted = base + 0.5
    interval = paired_difference_interval(shifted, base)
    assert interval.low > 0.3
    assert interval.contains(0.5)


def test_paired_difference_length_mismatch():
    with pytest.raises(ValueError):
        paired_difference_interval([1.0, 2.0], [1.0])


def test_permutation_pvalue_significant():
    rng = np.random.default_rng(3)
    b = rng.normal(5.0, 1.0, size=60)
    a = b - 1.0                      # A clearly lower
    assert permutation_pvalue(a, b) < 0.01


def test_permutation_pvalue_null():
    rng = np.random.default_rng(4)
    b = rng.normal(5.0, 1.0, size=60)
    a = b + rng.normal(0.0, 0.01, size=60)
    assert permutation_pvalue(a, b) > 0.05


def test_improvement_factor_matches_ratio():
    base = [10.0] * 50
    treat = [5.0] * 50
    interval = improvement_factor_interval(base, treat)
    assert interval.point == pytest.approx(2.0)
    assert interval.contains(2.0)


def test_interval_str():
    s = str(Interval(1.0, 0.5, 1.5, 0.95))
    assert "[" in s and "95%" in s


