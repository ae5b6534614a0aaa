"""Named, reproducible random streams.

Every stochastic component (each link's Gilbert–Elliott chain, each fading
process, the jitter of each WAN path...) draws from its *own* named stream so
that changing one component's consumption pattern never perturbs another —
the property that makes paired strategy comparisons valid: two strategies
evaluated against ``RandomRouter(seed)`` with the same stream names see
*identical* channel realizations.

Streams are ``numpy.random.Generator`` instances seeded by hashing the root
seed with the stream name through ``numpy.random.SeedSequence``.

A stream with a single consumer that makes many scalar draws (a link's MAC
or fading process) can be wrapped in :class:`BufferedDraws`, which serves
the same values from prefetched blocks at a fraction of the per-call cost.
"""

from __future__ import annotations

import sys
import zlib
from typing import Dict, List, Optional

import numpy as np

from repro.sim.sanitize import StreamOwnerRegistry, sanitizer_enabled


class RandomRouter:
    """Factory and cache of named ``numpy.random.Generator`` streams.

    With ``REPRO_SANITIZE=1`` the router also records which call site
    first requested each stream name and raises
    :class:`repro.sim.sanitize.StreamSharingError` when a different call
    site requests the same name — two components sharing one generator
    breaks stream isolation silently, which is far worse than failing
    loudly.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._owners: Optional[StreamOwnerRegistry] = \
            StreamOwnerRegistry() if sanitizer_enabled() else None

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields the same sequence, and the
        generator object is cached so repeated calls continue the sequence.
        """
        if self._owners is not None:
            caller = sys._getframe(1)
            self._owners.claim(
                name, (caller.f_code.co_filename, caller.f_lineno))
        generator = self._streams.get(name)
        if generator is None:
            # Stable across processes/platforms: derive a child key from a
            # CRC of the name rather than Python's salted hash().
            name_key = zlib.crc32(name.encode("utf-8"))
            sequence = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(name_key,))
            generator = np.random.default_rng(sequence)
            self._streams[name] = generator
        return generator

    def fork(self, salt: str) -> "RandomRouter":
        """A router whose streams are all disjoint from this one's.

        Used to give each of many runs (e.g. the 458 simulated calls) its own
        independent randomness while staying reproducible from one root seed.
        """
        salt_key = zlib.crc32(salt.encode("utf-8"))
        return RandomRouter(seed=(self.seed * 1_000_003 + salt_key)
                            % (2 ** 63))

#: draws fetched per refill of a :class:`BufferedDraws` block
DRAW_BLOCK = 512

_UINT32_MASK = 0xFFFFFFFF
_DOUBLE_SCALE = 2.0 ** -53


class BufferedDraws:
    """Scalar draws of one PCG64 generator, served from prefetched blocks.

    Each method returns, bit for bit, what the scalar ``Generator`` call
    would have returned at the same point of the stream:

    * :meth:`random` is ``rng.random()``: ``(word >> 11) * 2**-53`` over
      64-bit words from ``bit_generator.random_raw``;
    * :meth:`integers` is ``rng.integers(0, n)``: numpy's Lemire bounded
      draw over PCG64's 32-bit halves (low half first, the high half
      kept for the next draw, as ``has_uint32``/``uinteger`` do);
    * :meth:`normal` is ``rng.normal(0.0, sigma)``: ``0.0 + sigma * z``
      over ``standard_normal`` blocks.

    Prefetching runs the generator ahead of what has been served, so the
    wrapper must be the generator's only consumer from then on.  The
    ziggurat normal consumes a variable number of words, so one wrapper
    serves either uniform draws (:meth:`random`, :meth:`integers`) or
    normal draws, never both; mixing them raises ``ValueError``.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError("BufferedDraws reproduces PCG64 streams only, "
                            f"not {type(bit_generator).__name__}")
        self._rng = rng
        self._kind: Optional[str] = None
        # Blocks are stored reversed so each draw is a cheap list.pop().
        self._words: List[int] = []
        self._normals: List[float] = []
        # A 32-bit half the generator already holds is served first.
        state = bit_generator.state
        self._half: Optional[int] = (
            int(state["uinteger"]) if state["has_uint32"] else None)

    def _claim(self, kind: str) -> None:
        if self._kind is None:
            self._kind = kind
        elif self._kind != kind:
            raise ValueError("a BufferedDraws serves either uniform or "
                             "normal draws, not both")

    def _next_word(self) -> int:
        try:
            return self._words.pop()
        except IndexError:
            self._claim("uniform")
            words = self._rng.bit_generator.random_raw(DRAW_BLOCK).tolist()
            words.reverse()
            self._words = words
            return words.pop()

    def random(self) -> float:
        """``Generator.random()``: a double in [0, 1)."""
        try:
            word = self._words.pop()
        except IndexError:
            word = self._next_word()
        return (word >> 11) * _DOUBLE_SCALE

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._next_word()
            self._half = word >> 32
            return word & _UINT32_MASK
        self._half = None
        return half

    def integers(self, n: int) -> int:
        """``Generator.integers(0, n)`` for ``1 <= n <= 2**32``."""
        if n == 1:
            return 0                  # numpy draws nothing for one value
        half = self._half             # _uint32(), inlined
        if half is None:
            try:
                word = self._words.pop()
            except IndexError:
                word = self._next_word()
            self._half = word >> 32
            half = word & _UINT32_MASK
        else:
            self._half = None
        m = half * n
        leftover = m & _UINT32_MASK
        if leftover < n:
            # Lemire rejection, rare: probability below n / 2**32.
            threshold = (0x100000000 - n) % n
            while leftover < threshold:
                m = self._uint32() * n
                leftover = m & _UINT32_MASK
        return m >> 32

    def normal(self, sigma: float) -> float:
        """``Generator.normal(0.0, sigma)``."""
        try:
            z = self._normals.pop()
        except IndexError:
            self._claim("normal")
            normals = self._rng.standard_normal(DRAW_BLOCK).tolist()
            normals.reverse()
            self._normals = normals
            z = normals.pop()
        return 0.0 + sigma * z
