"""The Section 3 population studies (Tables 1 & 2).

At the paper's scale — a *year* of provider ratings, 10^6+ calls — one
Python object per call is the bottleneck, so calls live only as block
arrays and per-block sketches:

* **Vectorized generation** — :func:`render_provider_block` renders a
  provider call block as one whole-array numpy draw per named substream
  of the block protocol (:mod:`repro.studies.provider`), scored through
  the elementwise E-model in :mod:`repro.voice.quality`.  Table 1
  (``repro table1``) is built on this path; ``tests/test_population.py``
  pins its blocks and tables to frozen digests.

* **Runner sharding** — blocks are mapped through
  :func:`repro.runner.map_configs` as module-level tasks
  (:func:`provider_pass1_metrics`, :func:`provider_pass2_metrics`,
  :func:`nettest_block_metrics`) with the block index as the cache-keyed
  seed, so populations parallelize with ``--jobs`` and cache per block.
  Every knob is an explicit config entry with a def-time default
  (reproflow KEY501): nothing that changes a result escapes the key.

* **Streaming aggregation** — tasks never return call lists.  Each block
  reduces to :mod:`repro.analysis.sketch` payloads (exact labeled
  counters, a fixed-grid MOS CDF, Welford moments) and the drivers fold
  them **in spec order**, so serial, ``--jobs N`` and warm-cache
  executions merge identically and the batch digest is byte-stable.
  Memory is flat in the population size: per-block arrays plus counters
  bounded by ``n_subnet_pairs`` / :data:`~repro.studies.nettest.N_CLIENTS`.

Two-pass balanced-/24 protocol (Table 1 rows 2 and 4)
-----------------------------------------------------

The "/24s with #E>=#W" filter needs *global* per-pair EE/WW counts
before any row membership is known, so the provider study runs two
passes over the same blocks:

1. :func:`provider_pass1_metrics` returns the All/PC counters plus
   sparse per-pair EE/WW tallies (all calls and PC-only calls);
2. the driver adds the pass-1 rows in spec order into ``int64``
   per-pair totals, computes the balanced pair sets (pairs with at
   least one EE rated call and #EE >= #WW), and hands them to
   :func:`provider_pass2_metrics` as sorted lists **inside the task
   config** — part of the cache key, so a pass-2 result can never pair
   with the wrong filter.

Observability: each task wraps its phases in ``population.render`` /
``population.reduce`` spans on a :class:`repro.obs.SimulatedClock`
(advanced by calls generated — never wall clock) and bumps
``population.*`` counters, all merged through the runner's
deterministic metrics path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.sketch import (
    GridCdf,
    LabeledCounts,
    MomentSketch,
    wilson_interval,
)
from repro.obs import SimulatedClock, Span, SpanTracker
from repro.obs.runtime import active_registry
from repro.runner import RunnerConfig, map_configs
from repro.studies.nettest import (
    CATEGORY_COUNTS,
    NETTEST_BLOCK,
    client_state,
    render_nettest_block,
    schedule_size,
)
from repro.studies.provider import (
    CALL_BLOCK,
    DEVICE_PENALTY_SCALE,
    GLITCH_PENALTY_SCALE,
    WIFI_LOSS_MEDIAN,
    WIFI_LOSS_SIGMA,
    PairState,
    Table1Row,
    _PC_GIVEN_ETHERNET,
    _relative_delta,
    block_router,
    n_call_blocks,
    pair_state,
    poor_rating,
)
from repro.voice.quality import emodel_r_factor, r_to_mos

__all__ = [
    "MOS_GRID",
    "NETTEST_TASK",
    "NetTestPopulationTables",
    "PASS1_TASK",
    "PASS2_TASK",
    "ProviderBlockArrays",
    "ProviderPopulationTables",
    "nettest_block_metrics",
    "nettest_population_study",
    "provider_pass1_metrics",
    "provider_pass2_metrics",
    "provider_population_study",
    "render_provider_block",
]

#: runner entry points
PASS1_TASK = "repro.studies.population:provider_pass1_metrics"
PASS2_TASK = "repro.studies.population:provider_pass2_metrics"
NETTEST_TASK = "repro.studies.population:nettest_block_metrics"

#: the fixed grid every MOS sketch uses — merging requires identical
#: grids, so there is exactly one (lo, hi, bins) for the whole repo.
MOS_GRID = (0.0, 5.0, 100)

_CATEGORIES = ("EE", "EW", "WW")


# ---------------------------------------------------------------------------
# vectorized provider rendering

@dataclass(frozen=True)
class ProviderBlockArrays:
    """One rendered provider call block, every call as array rows.

    ``rated`` marks the calls the user actually rated; the other fields
    cover *all* ``count`` calls so downstream cuts (rated or not) stay
    possible without re-rendering.
    """

    pair: np.ndarray        # subnet pair per call
    wifi_count: np.ndarray  # WiFi endpoints per call: 0=EE, 1=EW, 2=WW
    pc_class: np.ndarray    # both endpoints PC-class?
    mos: np.ndarray         # pre-noise MOS after device/glitch penalties
    rating: np.ndarray      # 1..5 (what the user would rate)
    rated: np.ndarray       # did the user rate the call?


def render_provider_block(block: int, count: int, seed: int,
                          pairs: PairState,
                          wifi_loss_median: float = WIFI_LOSS_MEDIAN,
                          wifi_loss_sigma: float = WIFI_LOSS_SIGMA,
                          device_penalty_scale: float =
                          DEVICE_PENALTY_SCALE,
                          glitch_penalty_scale: float =
                          GLITCH_PENALTY_SCALE,
                          response_bias: bool = True
                          ) -> ProviderBlockArrays:
    """Render one call block as arrays.

    Draw layout (one call consumes, in order, from each named
    substream of :func:`repro.studies.provider.block_router`): ``pair``
    1 bounded integer; ``wifi`` and ``pc`` 2 uniforms each;
    ``access-loss`` 2 lognormals (drawn for both endpoints, applied only
    to WiFi ones); ``delay`` 1 exponential; ``device`` 1 exponential
    (applied only to non-PC calls); ``glitch`` 1 exponential;
    ``rating-noise`` 1 normal; ``respond`` 1 uniform.  Each substream
    is drawn once, as a whole-block array; the fixed per-call draw count
    is what makes a truncated block a prefix of the full one.
    """
    router = block_router(seed, block)
    n_subnet_pairs = len(pairs.archetype)
    log_median = np.log(wifi_loss_median)

    pair = router.stream("pair").integers(0, n_subnet_pairs, size=count)
    wifi_u = router.stream("wifi").random(size=(count, 2))
    pc_u = router.stream("pc").random(size=(count, 2))
    access = router.stream("access-loss").lognormal(
        log_median, wifi_loss_sigma, size=(count, 2))
    delay_draw = router.stream("delay").exponential(0.040, size=count)
    device = router.stream("device").exponential(
        device_penalty_scale, size=count)
    glitch = router.stream("glitch").exponential(
        glitch_penalty_scale, size=count)
    noise = router.stream("rating-noise").normal(0.0, 0.55, size=count)
    respond_u = router.stream("respond").random(size=count)

    archetype = pairs.archetype[pair]
    on_wifi = wifi_u < pairs.p_wifi[archetype][:, None]
    pc = pc_u < np.where(on_wifi, pairs.p_pc_wifi[archetype][:, None],
                         _PC_GIVEN_ETHERNET)
    wifi_count = on_wifi.sum(axis=1)
    pc_class = pc[:, 0] & pc[:, 1]

    # Access loss is drawn for both endpoints and applied to WiFi ones
    # only (the fixed draw layout); adding 0.0 leaves the sum bit-exact.
    loss = pairs.backhaul_loss[archetype] * pairs.backhaul[pair]
    loss = loss + np.where(on_wifi[:, 0], access[:, 0], 0.0)
    loss = loss + np.where(on_wifi[:, 1], access[:, 1], 0.0)
    loss = np.minimum(loss, 0.6)
    burst = 1.0 + 2.5 * np.minimum(loss * 10.0, 1.0)
    delay = pairs.base_delay[archetype] + delay_draw

    mos = r_to_mos(emodel_r_factor(loss, delay, burst))
    mos = mos - np.where(pc_class, 0.0, device)
    mos = mos - glitch
    rating = np.clip(np.round(mos + noise), 1.0, 5.0).astype(np.int64)

    if response_bias:
        p_respond = np.where(rating > 2, 0.10, 0.16)
    else:
        p_respond = np.full(count, 0.12)
    rated = respond_u < p_respond
    return ProviderBlockArrays(pair=pair, wifi_count=wifi_count,
                               pc_class=pc_class, mos=mos,
                               rating=rating, rated=rated)


# ---------------------------------------------------------------------------
# per-block reduction helpers

def _observe_subset(table: LabeledCounts, subset: str, mask: np.ndarray,
                    cat: np.ndarray, poor: np.ndarray) -> None:
    """Fold one subset's per-category counters into ``table``."""
    table.observe((subset, "all"), int(mask.sum()),
                  int((mask & poor).sum()))
    for code, name in enumerate(_CATEGORIES):
        in_cat = mask & (cat == code)
        table.observe((subset, name), int(in_cat.sum()),
                      int((in_cat & poor).sum()))


def _pair_rows(pair: np.ndarray, cat: np.ndarray, mask: np.ndarray,
               n_subnet_pairs: int) -> List[List[int]]:
    """Sparse ``[pair, #EE, #WW]`` rows over the masked rated calls."""
    ee = np.bincount(pair[mask & (cat == 0)], minlength=n_subnet_pairs)
    ww = np.bincount(pair[mask & (cat == 2)], minlength=n_subnet_pairs)
    hot = np.nonzero((ee > 0) | (ww > 0))[0]
    return [[int(p), int(ee[p]), int(ww[p])] for p in hot]


def _add_pair_rows(ee: np.ndarray, ww: np.ndarray,
                   rows: Sequence[Sequence[int]]) -> None:
    """Fold one block's ``[pair, #EE, #WW]`` rows into per-pair totals."""
    table = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    np.add.at(ee, table[:, 0], table[:, 1])
    np.add.at(ww, table[:, 0], table[:, 2])


def _balanced(ee: np.ndarray, ww: np.ndarray) -> List[int]:
    """Balanced pairs on merged totals: pairs with at least one EE
    rated call and #EE >= #WW, sorted."""
    return np.nonzero((ee > 0) & (ee >= ww))[0].tolist()


def _tracker(registry: Any) -> Tuple[SimulatedClock,
                                     Optional[SpanTracker]]:
    clock = SimulatedClock()
    if registry is None:
        return clock, None
    return clock, SpanTracker(clock, registry=registry,
                              source="population")


def _phase_span(tracker: Optional[SpanTracker], name: str,
                block: int) -> Optional[Span]:
    return tracker.span(name, block=block) if tracker is not None \
        else None


# ---------------------------------------------------------------------------
# provider runner tasks

#: /24 subnet pairs of the provider population
N_SUBNET_PAIRS = 3000


def provider_pass1_metrics(block: int, *, count: int, root_seed: int,
                           n_subnet_pairs: int = N_SUBNET_PAIRS,
                           wifi_loss_median: float = WIFI_LOSS_MEDIAN,
                           wifi_loss_sigma: float = WIFI_LOSS_SIGMA,
                           device_penalty_scale: float =
                           DEVICE_PENALTY_SCALE,
                           glitch_penalty_scale: float =
                           GLITCH_PENALTY_SCALE,
                           response_bias: bool = True) -> Dict[str, Any]:
    """Pass 1 over one provider block: All/PC counters + pair tallies.

    The payload is pure sketches — counter rows, sparse per-pair EE/WW
    tallies (bounded by ``n_subnet_pairs``), and the MOS CDF/moment
    sketches of the block's rated calls.  No call list ever leaves the
    task, which is what keeps million-call populations flat in memory.
    """
    pairs = pair_state(root_seed, n_subnet_pairs)
    registry = active_registry()
    clock, tracker = _tracker(registry)

    span = _phase_span(tracker, "population.render", block)
    arrays = render_provider_block(
        block, count, root_seed, pairs,
        wifi_loss_median=wifi_loss_median,
        wifi_loss_sigma=wifi_loss_sigma,
        device_penalty_scale=device_penalty_scale,
        glitch_penalty_scale=glitch_penalty_scale,
        response_bias=response_bias)
    clock.advance(float(count))
    if span is not None:
        span.end()

    span = _phase_span(tracker, "population.reduce", block)
    rated = arrays.rated
    cat = arrays.wifi_count[rated]
    poor = poor_rating(arrays.rating[rated])
    pair = arrays.pair[rated]
    pc = arrays.pc_class[rated]
    everything = np.ones(cat.shape, dtype=bool)

    table = LabeledCounts()
    _observe_subset(table, "all", everything, cat, poor)
    _observe_subset(table, "pc", pc, cat, poor)
    cdf = GridCdf(*MOS_GRID)
    cdf.observe_array(arrays.mos[rated])
    moments = MomentSketch()
    moments.observe_array(arrays.mos[rated])
    payload = {
        "table": table.to_payload(),
        "pairs": _pair_rows(pair, cat, everything, n_subnet_pairs),
        "pc_pairs": _pair_rows(pair, cat, pc, n_subnet_pairs),
        "mos_cdf": cdf.to_payload(),
        "mos_moments": moments.to_payload(),
    }
    clock.advance(float(count))
    if span is not None:
        span.end()
    if registry is not None:
        registry.counter("population.calls").inc(count)
        registry.counter("population.rated_calls").inc(int(rated.sum()))
    return payload


def provider_pass2_metrics(block: int, *, count: int, root_seed: int,
                           balanced: Sequence[int],
                           pc_balanced: Sequence[int],
                           n_subnet_pairs: int = N_SUBNET_PAIRS,
                           wifi_loss_median: float = WIFI_LOSS_MEDIAN,
                           wifi_loss_sigma: float = WIFI_LOSS_SIGMA,
                           device_penalty_scale: float =
                           DEVICE_PENALTY_SCALE,
                           glitch_penalty_scale: float =
                           GLITCH_PENALTY_SCALE,
                           response_bias: bool = True
                           ) -> List[List[Any]]:
    """Pass 2: the balanced-/24 rows, re-rendered under the filter.

    ``balanced`` / ``pc_balanced`` are the driver-computed pair sets
    (sorted lists).  They arrive through the task config on purpose:
    they are inputs that change the result, so they must be part of the
    content address — a cached pass-2 payload can never be replayed
    against a different filter.
    """
    pairs = pair_state(root_seed, n_subnet_pairs)
    registry = active_registry()
    clock, tracker = _tracker(registry)

    span = _phase_span(tracker, "population.render", block)
    arrays = render_provider_block(
        block, count, root_seed, pairs,
        wifi_loss_median=wifi_loss_median,
        wifi_loss_sigma=wifi_loss_sigma,
        device_penalty_scale=device_penalty_scale,
        glitch_penalty_scale=glitch_penalty_scale,
        response_bias=response_bias)
    clock.advance(float(count))
    if span is not None:
        span.end()

    span = _phase_span(tracker, "population.reduce", block)
    rated = arrays.rated
    cat = arrays.wifi_count[rated]
    poor = poor_rating(arrays.rating[rated])
    pair = arrays.pair[rated]
    pc = arrays.pc_class[rated]
    in_balanced = np.isin(pair, np.asarray(list(balanced),
                                           dtype=np.int64))
    in_pc_balanced = pc & np.isin(pair, np.asarray(list(pc_balanced),
                                                   dtype=np.int64))
    table = LabeledCounts()
    _observe_subset(table, "balanced", in_balanced, cat, poor)
    _observe_subset(table, "pc_balanced", in_pc_balanced, cat, poor)
    clock.advance(float(count))
    if span is not None:
        span.end()
    if registry is not None:
        registry.counter("population.calls").inc(count)
    return table.to_payload()


# ---------------------------------------------------------------------------
# provider driver

@dataclass
class ProviderPopulationTables:
    """Merged Table 1 statistics for a whole provider population."""

    rows: List[Table1Row]
    overall_pcr: float
    pcr_wilson: Tuple[float, float]
    n_rated_calls: int
    n_calls: int
    n_balanced_pairs: int
    n_pc_balanced_pairs: int
    mos_cdf: GridCdf
    mos_moments: MomentSketch


def _provider_items(n_calls: int, base: Dict[str, Any]
                    ) -> List[Tuple[int, Dict[str, Any]]]:
    return [(block, dict(base, count=min(CALL_BLOCK,
                                         n_calls - block * CALL_BLOCK)))
            for block in range(n_call_blocks(n_calls))]


def provider_population_study(n_calls: int = 1_000_000, seed: int = 0,
                              wifi_loss_median: float = WIFI_LOSS_MEDIAN,
                              device_penalty_scale: float =
                              DEVICE_PENALTY_SCALE,
                              response_bias: bool = True,
                              runner_config: Optional[RunnerConfig] =
                              None) -> ProviderPopulationTables:
    """Run the whole-population provider study (Table 1 at scale).

    Shards the population into :data:`~repro.studies.provider.CALL_BLOCK`
    blocks, maps the two passes through the runner, and folds the sketch
    payloads in spec order.  The counters are exact integers, so the
    rows do not depend on how the blocks were scheduled or cached.
    """
    base: Dict[str, Any] = {
        "root_seed": seed,
        "n_subnet_pairs": N_SUBNET_PAIRS,
        "wifi_loss_median": wifi_loss_median,
        "wifi_loss_sigma": WIFI_LOSS_SIGMA,
        "device_penalty_scale": device_penalty_scale,
        "glitch_penalty_scale": GLITCH_PENALTY_SCALE,
        "response_bias": response_bias,
    }
    items = _provider_items(n_calls, base)

    table = LabeledCounts()
    cdf = GridCdf(*MOS_GRID)
    moments = MomentSketch()
    pair_ee, pair_ww, pc_ee, pc_ww = (
        np.zeros(N_SUBNET_PAIRS, dtype=np.int64) for _ in range(4))
    # map_configs returns payloads in spec order — the merge contract.
    for payload in map_configs(PASS1_TASK, items, config=runner_config):
        table.merge(LabeledCounts.from_payload(payload["table"]))
        cdf.merge(GridCdf.from_payload(payload["mos_cdf"]))
        moments.merge(MomentSketch.from_payload(payload["mos_moments"]))
        _add_pair_rows(pair_ee, pair_ww, payload["pairs"])
        _add_pair_rows(pc_ee, pc_ww, payload["pc_pairs"])

    balanced = _balanced(pair_ee, pair_ww)
    pc_balanced = _balanced(pc_ee, pc_ww)
    items2 = [(block, dict(config, balanced=balanced,
                           pc_balanced=pc_balanced))
              for block, config in items]
    for payload in map_configs(PASS2_TASK, items2, config=runner_config):
        table.merge(LabeledCounts.from_payload(payload))

    pcr_all = table.pcr(("all", "all"))

    def subset_row(label: str, subset: str) -> Table1Row:
        return Table1Row(
            label=label,
            delta_ee_pct=_relative_delta(pcr_all,
                                         table.pcr((subset, "EE"))),
            delta_ew_pct=_relative_delta(pcr_all,
                                         table.pcr((subset, "EW"))),
            delta_ww_pct=_relative_delta(pcr_all,
                                         table.pcr((subset, "WW"))),
            n_calls=table.n((subset, "all")))

    rows = [
        subset_row("All", "all"),
        subset_row("/24s with #E>=#W", "balanced"),
        subset_row("PC", "pc"),
        subset_row("PC, /24s with #E>=#W", "pc_balanced"),
    ]
    return ProviderPopulationTables(
        rows=rows, overall_pcr=pcr_all,
        pcr_wilson=table.wilson(("all", "all")),
        n_rated_calls=table.n(("all", "all")), n_calls=n_calls,
        n_balanced_pairs=len(balanced),
        n_pc_balanced_pairs=len(pc_balanced),
        mos_cdf=cdf, mos_moments=moments)


# ---------------------------------------------------------------------------
# NetTest runner task + driver

def nettest_block_metrics(block: int, *, count: int, root_seed: int,
                          scale: float = 1.0) -> Dict[str, Any]:
    """One NetTest call block reduced to sketches.

    The per-call trace simulation is data-dependent (Gilbert chains,
    busy spells), so rendering stays scalar — the population win here is
    runner sharding (parallel blocks, per-block caching) plus streaming
    aggregation instead of shipping 9224 scored calls per seed.
    """
    clients = client_state(root_seed)
    registry = active_registry()
    clock, tracker = _tracker(registry)

    span = _phase_span(tracker, "population.render", block)
    calls = render_nettest_block(block, count, root_seed, clients,
                                 scale=scale)
    clock.advance(float(count))
    if span is not None:
        span.end()

    span = _phase_span(tracker, "population.reduce", block)
    table = LabeledCounts()
    users: Dict[int, Tuple[int, int]] = {}
    n_poor = 0
    for call in calls:
        poor = int(call.poor)
        n_poor += poor
        table.observe((call.category,), 1, poor)
        # Endpoint *slots*, not distinct users: a WW call that drew the
        # same client twice counts it twice.
        for user in (call.client_a, call.client_b):
            if user >= 0:
                slots, poors = users.get(user, (0, 0))
                users[user] = (slots + 1, poors + poor)
    cdf = GridCdf(*MOS_GRID)
    cdf.observe_array(np.array([call.mos for call in calls]))
    moments = MomentSketch()
    moments.observe_array(np.array([call.mos for call in calls]))
    payload = {
        "table": table.to_payload(),
        "users": [[int(user), slots, poors]
                  for user, (slots, poors) in sorted(users.items())],
        "mos_cdf": cdf.to_payload(),
        "mos_moments": moments.to_payload(),
    }
    clock.advance(float(count))
    if span is not None:
        span.end()
    if registry is not None:
        registry.counter("population.calls").inc(count)
        registry.counter("population.poor_calls").inc(n_poor)
    return payload


@dataclass
class NetTestPopulationTables:
    """Merged Table 2 statistics for a whole NetTest population."""

    rows: List[Tuple[str, int, float]]
    overall_pcr: float
    pcr_wilson: Tuple[float, float]
    n_calls: int
    frac_users_any_poor: float
    frac_users_pcr20: float
    mos_cdf: GridCdf
    mos_moments: MomentSketch


def nettest_population_study(
    seed: int = 0, scale: float = 1.0,
    # test seam: tests run the study with a throwaway cache and jobs setting
    runner_config: Optional[RunnerConfig] = None,  # reproflow: disable=RCH603
) -> NetTestPopulationTables:
    """Run the NetTest study (Table 2) sharded over runner blocks.

    ``scale`` < 1 shrinks every category proportionally (for quick
    runs).  The counters are exact integers, so the rows and the spatial
    stats do not depend on how the blocks were scheduled or cached.
    """
    total = schedule_size(scale)
    items = [(block, {"root_seed": seed, "scale": scale,
                      "count": min(NETTEST_BLOCK,
                                   total - block * NETTEST_BLOCK)})
             for block in range((total + NETTEST_BLOCK - 1)
                                // NETTEST_BLOCK)]

    table = LabeledCounts()
    cdf = GridCdf(*MOS_GRID)
    moments = MomentSketch()
    users: Dict[int, Tuple[int, int]] = {}
    for payload in map_configs(NETTEST_TASK, items,
                               config=runner_config):
        table.merge(LabeledCounts.from_payload(payload["table"]))
        cdf.merge(GridCdf.from_payload(payload["mos_cdf"]))
        moments.merge(MomentSketch.from_payload(payload["mos_moments"]))
        for user, slots, poors in payload["users"]:
            old_slots, old_poors = users.get(int(user), (0, 0))
            users[int(user)] = (old_slots + int(slots),
                                old_poors + int(poors))

    rows: List[Tuple[str, int, float]] = []
    n_total = 0
    n_poor_total = 0
    for category in CATEGORY_COUNTS:
        n = table.n((category,))
        n_total += n
        n_poor_total += table.poor((category,))
        rows.append((category, n, 100.0 * table.pcr((category,))))
    overall = n_poor_total / n_total if n_total else float("nan")
    rows.append(("Total", n_total, 100.0 * overall))

    pcr_values = [poors / slots for _, (slots, poors)
                  in sorted(users.items())]
    if pcr_values:
        frac_any = sum(1 for v in pcr_values if v > 0.0) \
            / len(pcr_values)
        frac_20 = sum(1 for v in pcr_values if v >= 0.20) \
            / len(pcr_values)
    else:
        frac_any = float("nan")
        frac_20 = float("nan")

    return NetTestPopulationTables(
        rows=rows, overall_pcr=overall,
        pcr_wilson=wilson_interval(n_poor_total, n_total),
        n_calls=n_total,
        frac_users_any_poor=frac_any, frac_users_pcr20=frac_20,
        mos_cdf=cdf, mos_moments=moments)
