"""Vectorized Section 4 strategy zoo over trace matrices.

Each reduction mirrors one function of :mod:`repro.core.strategies` but
consumes a whole :class:`~repro.batch.render.TraceBlock` at once and
returns ``(delivered, delays)`` matrices of shape ``(B, T)`` — the
outcome every session's client would have experienced under that
strategy.  Given identical per-session traces, each reduction produces
exactly the per-session result of its event-path counterpart (verified
by ``tests/test_batch.py`` on shared synthetic blocks).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.batch.render import TraceBlock
from repro.core.types import BoolArray, FloatArray

StrategyResult = Tuple[BoolArray, FloatArray]

#: trial length of the ``better`` strategy (core.strategies default)
BETTER_TRIAL_S = 5.0


def _merge(delivered_1: BoolArray, delays_1: FloatArray,
           delivered_2: BoolArray, delays_2: FloatArray) -> StrategyResult:
    """Row-wise :func:`repro.core.packet.merge_traces` for two copies
    sharing one send schedule: earliest arrival wins."""
    arrival_1 = np.where(delivered_1, delays_1, np.inf)
    arrival_2 = np.where(delivered_2, delays_2, np.inf)
    best = np.minimum(arrival_1, arrival_2)
    delivered = np.isfinite(best)
    return delivered, np.where(delivered, best, np.nan)


def cross_link(block: TraceBlock) -> StrategyResult:
    """Full cross-link replication (receive on both links)."""
    return _merge(block.delivered[:, 0], block.delays[:, 0],
                  block.delivered[:, 1], block.delays[:, 1])


def _pick_link(block: TraceBlock, choice: np.ndarray) -> StrategyResult:
    rows = np.arange(block.n_sessions)
    return (block.delivered[rows, choice], block.delays[rows, choice])


def stronger(block: TraceBlock) -> StrategyResult:
    """Per session, the link with the higher average RSSI (ties -> A)."""
    choice = (block.rssi_dbm[:, 0] < block.rssi_dbm[:, 1]).astype(np.intp)
    return _pick_link(block, choice)


def baseline(block: TraceBlock) -> StrategyResult:
    """No replication, no selection beyond the default (stronger)."""
    return stronger(block)


def better(block: TraceBlock,
           trial_s: float = BETTER_TRIAL_S) -> StrategyResult:
    """Trial both links (merged) for ``trial_s``, then settle on the one
    that lost fewer packets during the trial (ties -> A)."""
    n = block.n_packets
    trial = min(int(round(trial_s / block.spacing_s)), n)
    if trial > 0:
        loss_a = (~block.delivered[:, 0, :trial]).mean(axis=1)
        loss_b = (~block.delivered[:, 1, :trial]).mean(axis=1)
        choice = (loss_a > loss_b).astype(np.intp)
    else:
        choice = np.zeros(block.n_sessions, dtype=np.intp)
    merged_del, merged_delay = cross_link(block)
    chosen_del, chosen_delay = _pick_link(block, choice)
    delivered = np.concatenate(
        [merged_del[:, :trial], chosen_del[:, trial:]], axis=1)
    delays = np.concatenate(
        [merged_delay[:, :trial], chosen_delay[:, trial:]], axis=1)
    return delivered, delays


def divert(block: TraceBlock) -> StrategyResult:
    """Fine-grained reactive selection at H=1, T=1, without a slot loop.

    Per session: switch links after every loss on the current link,
    exactly :func:`repro.core.strategies.divert`.  A slot lost on one
    link only sends the next slot to the other link whatever the current
    one was, a slot lost on both flips the current link, and a slot lost
    on neither keeps it.  So the
    link of slot ``s + 1`` is ``lost_a[k]`` XOR the parity of both-lost
    slots in ``(k, s]``, with ``k`` the last one-link loss at or before
    ``s``.  A virtual slot lost on B only, put before slot 0, starts
    every session on link A.
    """
    lost = ~block.delivered
    head = np.zeros((block.n_sessions, 1), dtype=bool)
    lost_a = np.concatenate([head, lost[:, 0]], axis=1)
    lost_b = np.concatenate([~head, lost[:, 1]], axis=1)
    parity = np.cumsum(lost_a & lost_b, axis=1) & 1
    slots = np.arange(lost_a.shape[1])
    last_one = np.maximum.accumulate(
        np.where(lost_a ^ lost_b, slots, 0), axis=1)
    link = (np.take_along_axis(lost_a, last_one, axis=1)
            ^ parity ^ np.take_along_axis(parity, last_one, axis=1))
    choice = link[:, None, :-1].astype(np.intp)
    return (np.take_along_axis(block.delivered, choice, axis=1)[:, 0],
            np.take_along_axis(block.delays, choice, axis=1)[:, 0])


def temporal(block: TraceBlock, delta_s: float) -> StrategyResult:
    """Two copies on link A, the second offset by ``delta_s``."""
    try:
        i = block.deltas.index(float(delta_s))
    except ValueError:
        raise KeyError(
            f"block was not rendered with temporal delta {delta_s!r}; "
            f"available: {sorted(block.deltas)}") from None
    return _merge(block.delivered[:, 0], block.delays[:, 0],
                  block.offset_delivered[:, i], block.offset_delays[:, i])


def strategy_suite(block: TraceBlock
                   ) -> List[Tuple[str, BoolArray, FloatArray]]:
    """Evaluate the full suite; key order matches the event driver
    (``section4._strategy_suite``) so payloads line up field-for-field."""
    out: List[Tuple[str, BoolArray, FloatArray]] = []
    for name, result in (
            ("cross-link", cross_link(block)),
            ("stronger", stronger(block)),
            ("better", better(block)),
            ("divert", divert(block)),
            ("baseline", baseline(block))):
        out.append((name, result[0], result[1]))
    for delta in block.deltas:
        delivered, delays = temporal(block, delta)
        out.append((f"temporal:{float(delta)!r}", delivered, delays))
    return out
