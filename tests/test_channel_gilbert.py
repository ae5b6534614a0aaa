"""Tests for the Gilbert–Elliott loss process."""

import numpy as np
import pytest

from repro.channel.gilbert import GilbertElliott, GilbertParams
from repro.sim import RandomRouter


def make_chain(seed=0, **kwargs):
    params = GilbertParams(**kwargs)
    rng = RandomRouter(seed).stream("ge")
    return GilbertElliott(params, rng)


def test_params_validation():
    with pytest.raises(ValueError):
        GilbertParams(mean_good_s=-1.0)
    with pytest.raises(ValueError):
        GilbertParams(loss_bad=1.5)


def test_stationary_fractions():
    params = GilbertParams(mean_good_s=9.0, mean_bad_s=1.0,
                           loss_good=0.0, loss_bad=1.0)
    assert params.stationary_bad_fraction == pytest.approx(0.1)


def test_loss_probability_matches_state():
    chain = make_chain(loss_good=0.01, loss_bad=0.7)
    p = chain.loss_probability(0.0)
    assert p in (0.01, 0.7)


def test_backwards_query_raises():
    chain = make_chain()
    chain.state_at(5.0)
    with pytest.raises(ValueError):
        chain.state_at(1.0)


def test_long_run_bad_fraction_converges():
    params = GilbertParams(mean_good_s=1.0, mean_bad_s=0.25,
                           loss_good=0.0, loss_bad=1.0)
    rng = RandomRouter(1).stream("ge")
    chain = GilbertElliott(params, rng)
    times = np.arange(0, 2000.0, 0.05)
    states = chain.sample_states(times)
    observed = states.mean()
    assert observed == pytest.approx(params.stationary_bad_fraction,
                                     abs=0.03)


def test_burstiness_autocorrelation():
    """Consecutive samples inside a BAD sojourn must correlate."""
    params = GilbertParams(mean_good_s=2.0, mean_bad_s=0.2,
                           loss_good=0.0, loss_bad=1.0)
    rng = RandomRouter(2).stream("ge")
    chain = GilbertElliott(params, rng)
    times = np.arange(0, 5000.0, 0.02)
    states = chain.sample_states(times).astype(float)
    x = states - states.mean()
    lag1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    # 20 ms lag inside a 200 ms mean BAD sojourn: strong correlation.
    assert lag1 > 0.5


def test_determinism():
    a = make_chain(seed=3)
    b = make_chain(seed=3)
    times = np.arange(0, 100.0, 0.02)
    assert np.array_equal(a.sample_states(times), b.sample_states(times))


def test_different_seeds_differ():
    times = np.arange(0, 200.0, 0.02)
    a = make_chain(seed=4).sample_states(times)
    b = make_chain(seed=5).sample_states(times)
    assert not np.array_equal(a, b)
