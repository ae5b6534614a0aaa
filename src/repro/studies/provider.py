"""The large-VoIP-service dataset and the Table 1 analysis.

The paper analyzes a year of user-rated calls from a service with hundreds
of millions of users, asking one question: is the WiFi last hop a
significant contributor to poor call quality?  The key methodology is the
*subset analysis*: relative PCR deltas for calls split by last-hop type
(EE / EW / WW), re-computed over (a) only /24-subnet pairs with at least as
many EE as WW rated calls (controls for WiFi clients living in badly
backhauled places) and (b) only PC-class devices (controls for cheap
mobile hardware).

The synthetic population encodes only the hypotheses the paper itself
offers for the confounds:

* WiFi endpoints add an extra, heavy-tailed network impairment;
* WiFi clients are over-represented in poorly backhauled subnets
  (malls, airports) — the row-2 confound;
* WiFi clients are more often cheap mobile devices whose hardware hurts
  perceived quality — the row-3 confound;
* users rate calls only sometimes, and are a little more likely to rate
  after a bad call (the response bias the paper notes).

The analysis machinery is then exactly the paper's, so Table 1's structure
(everything improves under each control, but a large EE-vs-WW gap remains)
is a *finding* of the synthetic study, not something hard-coded.

Block protocol
--------------

Call randomness is organized for population scale: the year is a
sequence of fixed-size **call blocks** of :data:`CALL_BLOCK` calls.
Block ``b`` owns the private router ``RandomRouter(seed).fork(
f"provider-block-{b}")`` and draws every per-call quantity from a
*named per-field substream* (``"pair"``, ``"wifi"``, ``"pc"``, ...)
with a **fixed draw count per call** — conditional quantities (the
per-endpoint WiFi access loss, the non-PC device penalty) are drawn
unconditionally and applied conditionally.  Two consequences:

* the renderer (:func:`repro.studies.population.render_provider_block`)
  draws a whole block as one array per substream — a batched
  ``Generator`` draw consumes the bit stream exactly like the
  equivalent sequence of per-call draws — and a block renders the same
  in any process and in any order;
* a truncated final block is a prefix of the full block, so the first
  ``n`` calls of a population are a prefix of any larger population
  with the same seed.

This module holds the population's shared state and the Table 1
arithmetic; :mod:`repro.studies.population` renders the blocks and runs
the study (``repro table1``).  ``tests/test_population.py`` pins the
rendered blocks and the merged tables to frozen digests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.random import RandomRouter

#: calls per protocol block — the unit of randomness derivation (and the
#: unit the population backend renders, shards and caches).
CALL_BLOCK = 16_384


@dataclass
class Table1Row:
    """One row of Table 1: relative PCR deltas vs the overall baseline."""

    label: str
    delta_ee_pct: float
    delta_ew_pct: float
    delta_ww_pct: float
    n_calls: int


# ---------------------------------------------------------------------------
# synthesis

#: subnet-pair archetypes: (share, mean extra one-way delay s, backhaul
#: loss scale, P(endpoint on WiFi), P(device PC-class | WiFi))
_ARCHETYPES = {
    "enterprise": (0.35, 0.030, 0.002, 0.35, 0.85),
    "home":       (0.40, 0.045, 0.004, 0.55, 0.55),
    "public":     (0.25, 0.060, 0.010, 0.90, 0.35),
}

#: P(device PC-class | Ethernet endpoint)
_PC_GIVEN_ETHERNET = 0.95


#: calibration knobs — every one reaches the population study's tasks as
#: a config entry, and ablations sweep the median and the device penalty
#: through the study's keyword arguments.  The tasks bind them as *def-time*
#: signature defaults: the values are pinned by the source text the
#: runner's code fingerprint hashes, so a cached result can never
#: disagree with the defaults in force when it was computed (call-time
#: ``None`` fallbacks would escape the cache key — reproflow KEY501).
WIFI_LOSS_MEDIAN = 0.005      # median extra loss per WiFi endpoint
WIFI_LOSS_SIGMA = 0.9         # lognormal spread of the WiFi loss
DEVICE_PENALTY_SCALE = 0.07   # mean MOS penalty of non-PC hardware
GLITCH_PENALTY_SCALE = 0.65   # mean MOS penalty of non-network glitches


@dataclass(frozen=True)
class PairState:
    """Per-subnet-pair state shared by every call block.

    Drawn once per population from the root router's
    ``"provider.pairs"`` stream (never from a block router), so every
    block, rendered in any process, sees the same pairs.
    """

    archetype: np.ndarray      # archetype index per pair
    backhaul: np.ndarray       # per-pair backhaul multiplier
    base_delay: np.ndarray     # per-archetype mean extra one-way delay s
    backhaul_loss: np.ndarray  # per-archetype backhaul loss scale
    p_wifi: np.ndarray         # per-archetype P(endpoint on WiFi)
    p_pc_wifi: np.ndarray      # per-archetype P(PC-class | WiFi)


def pair_state(seed: int, n_subnet_pairs: int) -> PairState:
    """Draw the population's subnet-pair state."""
    stream = RandomRouter(seed).stream("provider.pairs")
    names = list(_ARCHETYPES)
    shares = np.array([_ARCHETYPES[n][0] for n in names])
    archetype = stream.choice(len(names), size=n_subnet_pairs,
                              p=shares / shares.sum())
    # Per-pair backhaul multiplier: some pairs are just bad.
    backhaul = stream.lognormal(mean=0.0, sigma=0.6, size=n_subnet_pairs)
    return PairState(
        archetype=archetype, backhaul=backhaul,
        base_delay=np.array([_ARCHETYPES[n][1] for n in names]),
        backhaul_loss=np.array([_ARCHETYPES[n][2] for n in names]),
        p_wifi=np.array([_ARCHETYPES[n][3] for n in names]),
        p_pc_wifi=np.array([_ARCHETYPES[n][4] for n in names]))


def block_router(seed: int, block: int) -> RandomRouter:
    """The private router of call block ``block``."""
    return RandomRouter(seed).fork(f"provider-block-{block}")


def n_call_blocks(n_calls: int) -> int:
    """Number of protocol blocks covering an ``n_calls`` population."""
    if n_calls < 0:
        raise ValueError("n_calls must be >= 0")
    return (n_calls + CALL_BLOCK - 1) // CALL_BLOCK


# ---------------------------------------------------------------------------
# Table 1 analysis (the paper's machinery, verbatim)

def poor_rating(rating: np.ndarray) -> np.ndarray:
    """Table 1's poor-call rule: a user rating of 1 or 2 (of 5)."""
    return rating <= 2


def _relative_delta(pcr_all: float, pcr_subset: float) -> float:
    """PCR_delta = (PCR_all - PCR_X) / PCR_all * 100 (positive = better)."""
    return (pcr_all - pcr_subset) / pcr_all * 100.0
