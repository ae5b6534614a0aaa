"""Second round of property-based tests: multilink, FEC and fitting."""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.fitting import fit_gilbert
from repro.core.config import StreamProfile
from repro.core.fec import FecConfig, apply_fec
from repro.core.multilink import MultiLinkRun, best_of
from repro.core.packet import LinkTrace


loss_patterns = st.lists(st.booleans(), min_size=1, max_size=200)


def trace_of(losses, name="t", spacing=0.02):
    delivered = [not x for x in losses]
    delays = [0.005 if d else math.nan for d in delivered]
    return LinkTrace(name, np.arange(len(losses)) * spacing,
                     delivered, delays)


# --------------------------------------------------------------- multilink

@given(st.lists(loss_patterns, min_size=2, max_size=4))
def test_best_of_all_links_is_union(patterns):
    n = min(len(p) for p in patterns)
    traces = [trace_of(p[:n], name=f"l{i}")
              for i, p in enumerate(patterns)]
    run = MultiLinkRun(profile=StreamProfile(duration_s=n * 0.02),
                       traces=traces,
                       rssi_dbm=[-50.0 - i for i in range(len(traces))])
    merged = best_of(run, len(traces))
    for i in range(n):
        expected = any(not p[i] for p in patterns)
        assert bool(merged.delivered[i]) == expected


@given(st.lists(loss_patterns, min_size=2, max_size=4),
       st.integers(min_value=1, max_value=4))
def test_best_of_k_monotone_in_k(patterns, k):
    n = min(len(p) for p in patterns)
    traces = [trace_of(p[:n], name=f"l{i}")
              for i, p in enumerate(patterns)]
    run = MultiLinkRun(profile=StreamProfile(duration_s=n * 0.02),
                       traces=traces,
                       rssi_dbm=[-50.0 - i for i in range(len(traces))])
    k = min(k, len(traces))
    smaller = best_of(run, k)
    full = best_of(run, len(traces))
    assert full.loss_rate <= smaller.loss_rate + 1e-12


# --------------------------------------------------------------------- FEC

#: packet spacing short enough that every block of up to 8 packets
#: decodes within apply_fec's 100 ms deadline
FEC_SPACING_S = 0.01


@given(loss_patterns, st.integers(min_value=1, max_value=8))
def test_fec_never_unrecovers(losses, k):
    data = trace_of(losses, spacing=FEC_SPACING_S)
    n_blocks = (len(losses) + k - 1) // k
    parity = LinkTrace("p", np.arange(n_blocks) * FEC_SPACING_S * k,
                       np.ones(n_blocks, dtype=bool),
                       np.full(n_blocks, 0.005))
    decoded = apply_fec(data, parity, FecConfig(block_size=k))
    # FEC can only add deliveries, never remove them.
    assert np.all(decoded.delivered >= data.delivered)


@given(loss_patterns, st.integers(min_value=2, max_value=6))
def test_fec_recovers_only_single_losses(losses, k):
    data = trace_of(losses, spacing=FEC_SPACING_S)
    n_blocks = (len(losses) + k - 1) // k
    parity = LinkTrace("p", np.arange(n_blocks) * FEC_SPACING_S * k,
                       np.ones(n_blocks, dtype=bool),
                       np.full(n_blocks, 0.005))
    decoded = apply_fec(data, parity, FecConfig(block_size=k))
    for block_start in range(0, len(losses), k):
        block = losses[block_start:block_start + k]
        lost = sum(block)
        recovered_here = (decoded.delivered[block_start:block_start
                                            + k].sum()
                          - (len(block) - lost))
        if lost == 1:
            assert recovered_here == 1
        elif lost > 1:
            assert recovered_here == 0


# ----------------------------------------------------------------- fitting

@given(loss_patterns)
def test_fit_gilbert_loss_rate_exact(losses):
    arr = np.array(losses, dtype=float)
    fit = fit_gilbert(arr)
    assert fit.loss_rate == float(arr.mean())
    assert fit.n_bursts == len(
        [1 for i, x in enumerate(losses)
         if x and (i == 0 or not losses[i - 1])])


@given(loss_patterns)
def test_fit_gilbert_sojourns_positive(losses):
    fit = fit_gilbert(np.array(losses, dtype=float))
    assert fit.params.mean_good_s > 0
    assert fit.params.mean_bad_s > 0
