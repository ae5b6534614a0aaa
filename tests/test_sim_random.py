"""Unit tests for named random streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomRouter, StreamSharingError
from repro.sim.random import DRAW_BLOCK, BufferedDraws
from repro.wifi.mac import CONTENTION_WINDOWS


def test_same_seed_same_name_same_sequence():
    a = RandomRouter(seed=7).stream("linkA")
    b = RandomRouter(seed=7).stream("linkA")
    assert np.array_equal(a.random(100), b.random(100))


def test_different_names_give_different_sequences():
    router = RandomRouter(seed=7)
    a = router.stream("linkA").random(100)
    b = router.stream("linkB").random(100)
    assert not np.array_equal(a, b)


def test_different_seeds_give_different_sequences():
    a = RandomRouter(seed=1).stream("x").random(100)
    b = RandomRouter(seed=2).stream("x").random(100)
    assert not np.array_equal(a, b)


def test_stream_is_cached_and_continues(monkeypatch):
    # Plain caching semantics; the sanitizer's ownership rules are
    # exercised separately below.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    router = RandomRouter(seed=3)
    first = router.stream("s").random(10)
    second = router.stream("s").random(10)
    # Continuation, not a restart.
    fresh = RandomRouter(seed=3).stream("s").random(20)
    assert np.array_equal(np.concatenate([first, second]), fresh)


def test_consuming_one_stream_does_not_shift_another():
    router = RandomRouter(seed=11)
    router.stream("noisy").random(1000)
    quiet = router.stream("quiet").random(50)
    reference = RandomRouter(seed=11).stream("quiet").random(50)
    assert np.array_equal(quiet, reference)


def test_fork_is_deterministic_and_disjoint(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    router = RandomRouter(seed=5)
    f1 = router.fork("run-1")
    f2 = router.fork("run-2")
    again = RandomRouter(seed=5).fork("run-1")
    assert np.array_equal(f1.stream("x").random(20), again.stream("x").random(20))
    assert not np.array_equal(f1.stream("x").random(20), f2.stream("x").random(20))


# ---------------------------------------------------- sanitizer (REPRO_SANITIZE)

def _component_a(router):
    return router.stream("shared.name")


def _component_b(router):
    return router.stream("shared.name")


def test_shared_stream_name_raises_under_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    router = RandomRouter(seed=0)
    _component_a(router)
    with pytest.raises(StreamSharingError):
        _component_b(router)


def test_same_call_site_may_refetch_its_stream(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    router = RandomRouter(seed=0)
    draws = []
    for _ in range(3):
        # One component polling its own stream in a loop is one call site.
        draws.append(float(router.stream("poller").random()))
    assert len(set(draws)) == 3   # the stream continues, no restart


def test_shared_stream_name_tolerated_without_sanitizer(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    router = RandomRouter(seed=0)
    assert _component_a(router) is _component_b(router)


def test_fork_gets_fresh_ownership(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    router = RandomRouter(seed=0)
    _component_a(router)
    # Forked routers are disjoint universes: the same component layout
    # claims the same names again without conflict.
    _component_a(router.fork("run-2"))


def test_sanitizer_does_not_change_stream_values(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = RandomRouter(seed=9).stream("values").random(50)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = RandomRouter(seed=9).stream("values").random(50)
    assert np.array_equal(plain, sanitized)


# ------------------------------------------------------ BufferedDraws

#: every contention window of the MAC, as ``integers`` bounds, plus
#: bounds near 2**31 (where Lemire rejection becomes likely) and the
#: ends of the supported range
_BOUNDS = (sorted({cw + 1 for cw in CONTENTION_WINDOWS})
    + [1, 2, 3, 2 ** 31 - 1, 2 ** 31 + 1, 2 ** 31 + 7919, 3 * 2 ** 30,
       2 ** 32 - 1, 2 ** 32])
_SIGMAS = (0.0, 1e-9, 0.3, float(np.sqrt(0.5)), 1.0, 4.0)

_UNIFORM_OP = st.one_of(
    st.just(("random", None)),
    st.tuples(st.just("integers"), st.sampled_from(_BOUNDS)))


def _pair(entropy):
    """A live generator and a buffered twin of the same stream."""
    sequence = np.random.SeedSequence(entropy)
    return (np.random.default_rng(sequence),
            BufferedDraws(np.random.default_rng(sequence)))


def _assert_same(live_value, buffered_value, what):
    assert buffered_value == live_value, (
        f"BufferedDraws.{what} = {buffered_value!r} but the numpy "
        f"Generator returns {live_value!r}: numpy's PCG64 or bounded-"
        f"integer internals changed (numpy {np.__version__}); the MAC "
        f"and fading streams are no longer reproduced bit for bit")


@settings(max_examples=60, deadline=None)
@given(entropy=st.integers(0, 2 ** 64 - 1),
       ops=st.lists(_UNIFORM_OP, min_size=1, max_size=3 * DRAW_BLOCK))
def test_buffered_uniform_draws_match_generator(entropy, ops):
    live, buffered = _pair(entropy)
    for op, n in ops:
        if op == "random":
            _assert_same(live.random(), buffered.random(), "random()")
        else:
            _assert_same(live.integers(0, n), buffered.integers(n),
                         f"integers({n})")


@settings(max_examples=40, deadline=None)
@given(entropy=st.integers(0, 2 ** 64 - 1),
       sigmas=st.lists(st.sampled_from(_SIGMAS), min_size=1,
                       max_size=3 * DRAW_BLOCK))
def test_buffered_normal_draws_match_generator(entropy, sigmas):
    live, buffered = _pair(entropy)
    for sigma in sigmas:
        _assert_same(live.normal(0.0, sigma), buffered.normal(sigma),
                     f"normal({sigma})")


def test_buffered_draws_interleaved_over_many_blocks():
    """A MAC-like uniform stream and a fading-like normal stream, drawn
    in one interleaved loop across many block boundaries."""
    for seed in range(4):
        live_mac, mac = _pair((seed, 1))
        live_fading, fading = _pair((seed, 2))
        picks = np.random.default_rng(seed).integers(0, len(_BOUNDS),
                                                     size=4 * DRAW_BLOCK)
        for i, pick in enumerate(picks.tolist()):
            n = _BOUNDS[pick]
            _assert_same(live_mac.integers(0, n), mac.integers(n),
                         f"integers({n})")
            _assert_same(live_mac.random(), mac.random(), "random()")
            sigma = _SIGMAS[i % len(_SIGMAS)]
            _assert_same(live_fading.normal(0.0, sigma),
                         fading.normal(sigma), f"normal({sigma})")


def test_lemire_rejection_is_exercised():
    """Near 2**31 about half of all 32-bit draws are rejected, so the
    rejection loop consumes extra half-words and must still agree."""
    live, buffered = _pair(2024)
    n = 2 ** 31 + 1
    for _ in range(2 * DRAW_BLOCK):
        _assert_same(live.integers(0, n), buffered.integers(n),
                     f"integers({n})")
    # The streams are still aligned afterwards.
    _assert_same(live.random(), buffered.random(), "random()")


def test_buffered_draws_take_over_a_pending_half_word():
    """A generator holding the upper half of a word (after an odd number
    of 32-bit draws) is continued exactly."""
    live, _ = _pair(5)
    twin = np.random.default_rng(np.random.SeedSequence(5))
    live.integers(0, 16)
    twin.integers(0, 16)
    buffered = BufferedDraws(twin)
    for n in (16, 1024, 2 ** 31 + 1, 16):
        _assert_same(live.integers(0, n), buffered.integers(n),
                     f"integers({n})")


def test_buffered_draws_serve_one_kind_only():
    _, buffered = _pair(0)
    buffered.random()
    with pytest.raises(ValueError):
        buffered.normal(1.0)
    _, buffered = _pair(0)
    buffered.normal(1.0)
    with pytest.raises(ValueError):
        buffered.integers(16)


def test_buffered_draws_require_pcg64():
    with pytest.raises(TypeError):
        BufferedDraws(np.random.Generator(np.random.Philox(0)))
