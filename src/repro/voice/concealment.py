"""Loss concealment accounting.

A G.711 decoder conceals missing frames: an isolated missing frame between
two received ones can be **interpolated** (mild artifact); consecutive
missing frames past the first must be **extrapolated** from stale history
(energy-attenuated repetition — strong artifact, and the reason burst
losses matter so much).  The paper estimates call quality from "the degree
of interpolation and extrapolation of voice samples"; this module produces
exactly those degrees from the playout pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.voice.playout import PlayoutResult


@dataclass
class ConcealmentAccounting:
    """Sample-level concealment totals for one call."""

    n_frames: int
    played_frames: int
    interpolated_frames: int
    extrapolated_frames: int


def account_concealment(result: PlayoutResult) -> ConcealmentAccounting:
    """Classify every missing frame as interpolated or extrapolated.

    Rule (matching common PLC implementations): the *first* frame of a loss
    run whose successor frame is available is interpolated; every other
    missing frame — later frames of a burst, or a first frame with no good
    successor — is extrapolated.
    """
    played = np.asarray(result.played, dtype=bool)
    n = played.size
    interpolated = 0
    extrapolated = 0
    i = 0
    while i < n:
        if played[i]:
            i += 1
            continue
        run_start = i
        while i < n and not played[i]:
            i += 1
        run_len = i - run_start
        successor_ok = i < n  # a played frame follows the run
        if run_len == 1 and successor_ok and run_start > 0:
            interpolated += 1
        else:
            # Long bursts: even the first frame ends up extrapolated in
            # practice because interpolation needs both neighbours fresh.
            extrapolated += run_len
    return ConcealmentAccounting(
        n_frames=n,
        played_frames=int(played.sum()),
        interpolated_frames=interpolated,
        extrapolated_frames=extrapolated)
