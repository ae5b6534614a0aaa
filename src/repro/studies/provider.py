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

* the vectorized backend (:mod:`repro.studies.population`) renders a
  block as numpy arrays from the *same* substreams and — because a
  batched ``Generator`` draw consumes the bit stream exactly like the
  equivalent sequence of scalar draws — produces **bit-identical**
  calls to this scalar loop;
* a truncated final block is a prefix of the full block, so the first
  ``n`` calls of a population are a prefix of any larger population
  with the same seed.

:func:`synthesize_provider_block` remains the readable scalar
reference; the population backend
(:func:`repro.studies.population.provider_population_study`, which
backs Table 1) is the production path, and ``tests/test_population.py``
pins their exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.sim.random import RandomRouter
from repro.voice.quality import emodel_r_factor, r_to_mos

#: calls per protocol block — the unit of randomness derivation (and the
#: unit the population backend renders, shards and caches).
CALL_BLOCK = 16_384


@dataclass
class RatedCall:
    """One user-rated call in the provider dataset."""

    subnet_pair: int
    category: str        # "EE" / "EW" / "WW"
    pc_class: bool       # both endpoints PC-class devices?
    rating: int          # 1..5
    @property
    def poor(self) -> bool:
        return self.rating <= 2


@dataclass
class ProviderDataset:
    """A year's worth of rated calls."""

    calls: List[RatedCall] = field(default_factory=list)

    def pcr(self, calls: Optional[Iterable[RatedCall]] = None) -> float:
        """Poor-call rate over ``calls`` (default: the whole dataset).

        Single pass, so any iterable — including a generator — works
        without materializing a copy.
        """
        source: Iterable[RatedCall] = self.calls if calls is None \
            else calls
        n = 0
        poor = 0
        for call in source:
            n += 1
            poor += call.poor
        if n == 0:
            return float("nan")
        return poor / n


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
    block — rendered scalar or vectorized, in any process — sees the
    same pairs.
    """

    archetype: np.ndarray      # archetype index per pair
    backhaul: np.ndarray       # per-pair backhaul multiplier
    base_delay: np.ndarray     # per-archetype mean extra one-way delay s
    backhaul_loss: np.ndarray  # per-archetype backhaul loss scale
    p_wifi: np.ndarray         # per-archetype P(endpoint on WiFi)
    p_pc_wifi: np.ndarray      # per-archetype P(PC-class | WiFi)


def pair_state(seed: int, n_subnet_pairs: int) -> PairState:
    """Draw the population's subnet-pair state (both backends call this)."""
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


_CATEGORY_BY_WIFI_COUNT = {0: "EE", 1: "EW", 2: "WW"}


# bit-parity reference of population.render_provider_block; its parity
# test runs it at the response bias the population block is given
def synthesize_provider_block(  # reproflow: disable=RCH602
    block: int, count: int, seed: int, pairs: PairState,
    response_bias: bool = True,  # reproflow: disable=RCH603
) -> List[RatedCall]:
    """Scalar reference rendering of one call block's *rated* calls.

    Draw layout (one call consumes, in order, from each named
    substream): ``pair`` 1 bounded integer; ``wifi`` and ``pc`` 2
    uniforms each; ``access-loss`` 2 lognormals (drawn for both
    endpoints, applied only to WiFi ones); ``delay`` 1 exponential;
    ``device`` 1 exponential (applied only to non-PC calls);
    ``glitch`` 1 exponential; ``rating-noise`` 1 normal; ``respond`` 1
    uniform.  The fixed per-call draw count is what lets
    :func:`repro.studies.population.render_provider_block` replay the
    block as whole-array draws, bit for bit.
    """
    router = block_router(seed, block)
    s_pair = router.stream("pair")
    s_wifi = router.stream("wifi")
    s_pc = router.stream("pc")
    s_access = router.stream("access-loss")
    s_delay = router.stream("delay")
    s_device = router.stream("device")
    s_glitch = router.stream("glitch")
    s_noise = router.stream("rating-noise")
    s_respond = router.stream("respond")

    n_subnet_pairs = len(pairs.archetype)
    log_median = np.log(WIFI_LOSS_MEDIAN)
    rated: List[RatedCall] = []
    for _ in range(count):
        pair = int(s_pair.integers(0, n_subnet_pairs))
        archetype = int(pairs.archetype[pair])
        p_wifi = float(pairs.p_wifi[archetype])
        p_pc_wifi = float(pairs.p_pc_wifi[archetype])

        endpoints = []
        for _endpoint in range(2):
            on_wifi = s_wifi.random() < p_wifi
            pc = s_pc.random() < (p_pc_wifi if on_wifi
                                  else _PC_GIVEN_ETHERNET)
            access = float(s_access.lognormal(log_median,
                                              WIFI_LOSS_SIGMA))
            endpoints.append((on_wifi, pc, access))
        n_wifi = sum(1 for w, _, _ in endpoints if w)
        category = _CATEGORY_BY_WIFI_COUNT[n_wifi]
        pc_class = all(pc for _, pc, _ in endpoints)

        # Network impairments: backhaul + per-WiFi-endpoint access loss.
        loss = float(pairs.backhaul_loss[archetype]
                     * pairs.backhaul[pair])
        for on_wifi, _, access in endpoints:
            if on_wifi:
                loss += access
        loss = min(loss, 0.6)
        burst = 1.0 + 2.5 * min(loss * 10.0, 1.0)  # WiFi loss is bursty
        delay = float(pairs.base_delay[archetype]) \
            + float(s_delay.exponential(0.040))

        r = emodel_r_factor(loss, delay, mean_burst_len=burst)
        mos = r_to_mos(r)
        # Cheap hardware degrades what the user *hears*, not the network.
        device = float(s_device.exponential(DEVICE_PENALTY_SCALE))
        if not pc_class:
            mos -= device
        # Non-network glitches everyone suffers regardless of access type:
        # echo, background noise, far-end problems, app hiccups.  Without
        # this floor the synthetic EE population would be implausibly
        # perfect and every relative delta would saturate.
        mos -= float(s_glitch.exponential(GLITCH_PENALTY_SCALE))
        rating = int(np.clip(round(mos + s_noise.normal(0.0, 0.55)),
                             1, 5))

        # Response bias: the annoyed rate more readily (disable via
        # ``response_bias=False`` for the robustness ablation).
        if response_bias:
            p_respond = 0.10 if rating > 2 else 0.16
        else:
            p_respond = 0.12
        if s_respond.random() >= p_respond:
            continue
        rated.append(RatedCall(
            subnet_pair=pair, category=category,
            pc_class=pc_class, rating=rating))
    return rated


# ---------------------------------------------------------------------------
# Table 1 analysis (the paper's machinery, verbatim)

def _relative_delta(pcr_all: float, pcr_subset: float) -> float:
    """PCR_delta = (PCR_all - PCR_X) / PCR_all * 100 (positive = better)."""
    return (pcr_all - pcr_subset) / pcr_all * 100.0


def _balanced_pairs(calls: Iterable[RatedCall]) -> Set[int]:
    """Subnet pairs with at least as many EE as WW rated calls."""
    ee: Dict[int, int] = {}
    ww: Dict[int, int] = {}
    for call in calls:
        if call.category == "EE":
            ee[call.subnet_pair] = ee.get(call.subnet_pair, 0) + 1
        elif call.category == "WW":
            ww[call.subnet_pair] = ww.get(call.subnet_pair, 0) + 1
    return {pair for pair, n_ee in ee.items()
            if n_ee >= ww.get(pair, 0)}


def _row(label: str, calls: List[RatedCall],
         pcr_all: float) -> Table1Row:
    def pcr_of(category: str) -> float:
        subset = [c for c in calls if c.category == category]
        if not subset:
            return float("nan")
        return float(np.mean([c.poor for c in subset]))

    return Table1Row(
        label=label,
        delta_ee_pct=_relative_delta(pcr_all, pcr_of("EE")),
        delta_ew_pct=_relative_delta(pcr_all, pcr_of("EW")),
        delta_ww_pct=_relative_delta(pcr_all, pcr_of("WW")),
        n_calls=len(calls))


# bit-parity reference of the Table 1 population study
def analyze_table1(  # reproflow: disable=RCH602
        dataset: ProviderDataset) -> List[Table1Row]:
    """The four rows of Table 1."""
    calls = dataset.calls
    pcr_all = dataset.pcr()

    balanced = _balanced_pairs(calls)
    balanced_calls = [c for c in calls if c.subnet_pair in balanced]
    pc_calls = [c for c in calls if c.pc_class]
    pc_balanced_pairs = _balanced_pairs(pc_calls)
    pc_balanced = [c for c in pc_calls
                   if c.subnet_pair in pc_balanced_pairs]

    return [
        _row("All", calls, pcr_all),
        _row("/24s with #E>=#W", balanced_calls, pcr_all),
        _row("PC", pc_calls, pcr_all),
        _row("PC, /24s with #E>=#W", pc_balanced, pcr_all),
    ]
