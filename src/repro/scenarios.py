"""Channel scenario library: the "wild" conditions of the evaluation.

The paper's 458 in-the-wild calls cover offices, serviced apartments,
downtown areas and a conference, with challenging situations called out in
Section 4: a weak link, client mobility, microwave-oven interference, and
network congestion (Figure 6's impairment categories).  This module defines
those situations as parameterized channel configurations and samples runs
from a weighted mix.

Key modelling choices mirroring the paper's observations:

* **weak_link** — the client is far from both candidate APs; the secondary
  is even weaker (Figure 3's link A at ~4% / link B at ~15% loss).  Losses
  are Gilbert-bursty but mostly independent across links.
* **mobility** — a random-waypoint walk changes both distances and
  re-rolls shadowing; loss episodes are long but only weakly correlated
  across APs at different corners.
* **microwave** — one oven interferes with BOTH links because every
  available AP in its vicinity is on 2.4 GHz (the paper notes no 5 GHz
  links were available there); this shared fate is why cross-link gains
  little (only 1.2x) in this scenario.
* **congestion** — independent contention on each channel, bursty medium
  occupancy, big queueing jitter.
* **benign** — a healthy office link; most calls in the wild are fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.gilbert import GilbertParams
from repro.channel.interference import (
    CongestionProcess,
    MicrowaveOven,
)
from repro.channel.link import LinkConfig, WifiLink, paired_links
from repro.channel.mobility import (
    OFFICE_AP_PRIMARY,
    OFFICE_AP_SECONDARY,
    Position,
    RandomWaypointMobility,
    StaticPosition,
)
from repro.channel.pathloss import PathLossParams
from repro.core.config import StreamProfile
from repro.core.replication import PairedRun, render_paired_run
from repro.sim.random import RandomRouter
from repro.wifi.phy import PhyConfig


@dataclass(frozen=True)
class ScenarioSpec:
    """A named impairment scenario and its sampling weight."""

    name: str
    weight: float


#: The wild mix: mostly benign, with each impairment well represented.
WILD_MIX: Sequence[ScenarioSpec] = (
    ScenarioSpec("benign", 0.34),
    ScenarioSpec("weak_link", 0.22),
    ScenarioSpec("mobility", 0.18),
    ScenarioSpec("congestion", 0.18),
    ScenarioSpec("microwave", 0.08),
)


def _phy(mimo_branches: int) -> PhyConfig:
    return PhyConfig(n_spatial_branches=mimo_branches)


def _gilbert(rng: np.random.Generator,
             mean_bad_lo: float = 0.08, mean_bad_hi: float = 0.5,
             loss_bad_lo: float = 0.35, loss_bad_hi: float = 0.9,
             mean_good_lo: float = 4.0,
             mean_good_hi: float = 40.0) -> GilbertParams:
    """Draw per-run Gilbert parameters from a scenario's range."""
    return GilbertParams(
        mean_good_s=float(rng.uniform(mean_good_lo, mean_good_hi)),
        mean_bad_s=float(rng.uniform(mean_bad_lo, mean_bad_hi)),
        loss_good=float(rng.uniform(0.0, 0.004)),
        loss_bad=float(rng.uniform(loss_bad_lo, loss_bad_hi)))


#: Mobility models accepted by :class:`WifiLink` (duck-typed:
#: ``position_at(time)``, ``distance_at(time, point)`` + ``is_moving``).
MobilityModel = Union[StaticPosition, RandomWaypointMobility]


@dataclass(frozen=True)
class InterferenceSpec:
    """A deferred interference source: kind + stream + drawn parameters.

    The scenario's *parameters* are drawn eagerly (on
    ``scenario.params``, in the scenario's canonical order) but the
    stateful process object is only constructed on demand, so both the
    event backend (which needs the live object) and the batch backend
    (which renders the process as arrays straight from ``stream``) see
    the same realization: the process's own draws are the first draws
    of its named stream either way.
    """

    kind: str                              # "oven" | "congestion"
    stream: str                            # RandomRouter stream name
    params: Tuple[Tuple[str, float], ...]  # constructor kwargs, ordered

    def params_dict(self) -> Dict[str, float]:
        return dict(self.params)

    def build(self, rng_router: RandomRouter
              ) -> Union[MicrowaveOven, CongestionProcess]:
        """Construct the live process for the event backend."""
        if self.kind == "oven":
            return MicrowaveOven(rng_router.stream(self.stream),
                                 **self.params_dict())
        if self.kind == "congestion":
            return CongestionProcess(rng_router.stream(self.stream),
                                     **self.params_dict())
        raise ValueError(f"unknown interference kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioSetup:
    """Everything :func:`build_scenario` draws before links exist.

    The shared parameter layer between the event and batch backends:
    identical per-(seed, index) realizations require that both backends
    consume ``scenario.params`` / ``scenario.mobility`` / the
    interference streams in exactly the order recorded here.
    """

    name: str
    config_a: LinkConfig
    config_b: LinkConfig
    mobility: MobilityModel
    shared_interference: Optional[InterferenceSpec] = None
    interference_a: Optional[InterferenceSpec] = None
    interference_b: Optional[InterferenceSpec] = None


def scenario_setup(name: str, rng_router: RandomRouter,
                   mimo_branches: int = 1) -> ScenarioSetup:
    """Draw one run's scenario parameters (shared event/batch layer)."""
    rng = rng_router.stream("scenario.params")
    phy = _phy(mimo_branches)

    if name == "benign":
        client = StaticPosition(Position(
            float(rng.uniform(4.0, 14.0)), float(rng.uniform(2.0, 10.0))))
        config_a = LinkConfig(
            name="A", channel=1, ap_position=OFFICE_AP_PRIMARY,
            gilbert=_gilbert(rng, mean_bad_lo=0.05, mean_bad_hi=0.15,
                             loss_bad_lo=0.2, loss_bad_hi=0.5,
                             mean_good_lo=20.0, mean_good_hi=80.0),
            phy=phy, rician_k_db=8.0)
        config_b = LinkConfig(
            name="B", channel=11, ap_position=OFFICE_AP_SECONDARY,
            gilbert=_gilbert(rng, mean_bad_lo=0.05, mean_bad_hi=0.2,
                             loss_bad_lo=0.2, loss_bad_hi=0.6,
                             mean_good_lo=15.0, mean_good_hi=60.0),
            phy=phy, rician_k_db=6.0)
        return ScenarioSetup(name, config_a, config_b, client)

    if name == "weak_link":
        # Far corner of a large space: both links weak, B weaker.  Outage
        # episodes are long (hundreds of ms to seconds) — long enough that
        # a 100 ms temporal offset rarely escapes them — and shadowing
        # drifts as people and doors move.
        client = StaticPosition(Position(
            float(rng.uniform(22.0, 30.0)), float(rng.uniform(10.0, 15.0))))
        exponent = float(rng.uniform(3.4, 3.9))
        config_a = LinkConfig(
            name="A", channel=6, ap_position=Position(0.0, 0.0),
            pathloss=PathLossParams(exponent=exponent,
                                    shadowing_sigma_db=5.0),
            gilbert=_gilbert(rng, mean_bad_lo=0.3, mean_bad_hi=1.2,
                             loss_bad_lo=0.85, loss_bad_hi=1.0,
                             mean_good_lo=20.0, mean_good_hi=80.0),
            phy=phy, environment_drift=True, shadowing_update_s=2.0)
        config_b = LinkConfig(
            name="B", channel=11, ap_position=Position(-6.0, -4.0),
            pathloss=PathLossParams(exponent=exponent,
                                    shadowing_sigma_db=5.0),
            gilbert=_gilbert(rng, mean_bad_lo=0.4, mean_bad_hi=1.5,
                             loss_bad_lo=0.85, loss_bad_hi=1.0,
                             mean_good_lo=10.0, mean_good_hi=40.0),
            phy=phy, environment_drift=True, shadowing_update_s=2.0)
        return ScenarioSetup(name, config_a, config_b, client)

    if name == "mobility":
        # A walk across a large floor: a link can die completely when the
        # client rounds a corner away from its AP — the non-stationarity
        # that defeats trial-and-settle selection.
        walk = RandomWaypointMobility(
            rng_router.stream("scenario.mobility"),
            floor=(60.0, 25.0),
            speed_range=(0.6, 1.8), pause_s=3.0)
        config_a = LinkConfig(
            name="A", channel=1, ap_position=Position(2.0, 2.0),
            pathloss=PathLossParams(exponent=3.6, shadowing_sigma_db=6.0),
            gilbert=_gilbert(rng, mean_bad_lo=0.2, mean_bad_hi=0.8,
                             loss_bad_lo=0.8, loss_bad_hi=1.0,
                             mean_good_lo=20.0, mean_good_hi=60.0),
            phy=phy, shadowing_update_s=0.5)
        config_b = LinkConfig(
            name="B", channel=11, ap_position=Position(58.0, 23.0),
            pathloss=PathLossParams(exponent=3.6, shadowing_sigma_db=6.0),
            gilbert=_gilbert(rng, mean_bad_lo=0.2, mean_bad_hi=0.8,
                             loss_bad_lo=0.8, loss_bad_hi=1.0,
                             mean_good_lo=20.0, mean_good_hi=60.0),
            phy=phy, shadowing_update_s=0.5)
        return ScenarioSetup(name, config_a, config_b, walk)

    if name == "congestion":
        # Heavy co-channel contention: long busy spells inflate queueing
        # delay (late losses) and hidden-terminal collisions produce
        # outage-grade loss runs on the busy channel.
        client = StaticPosition(Position(
            float(rng.uniform(6.0, 20.0)), float(rng.uniform(3.0, 12.0))))
        heavy = InterferenceSpec("congestion", "scenario.congestion.a", (
            ("mean_busy_s", float(rng.uniform(1.0, 5.0))),
            ("mean_idle_s", float(rng.uniform(2.0, 8.0))),
            ("busy_delay_s", float(rng.uniform(0.020, 0.060))),
            ("collision_prob", float(rng.uniform(0.3, 0.6)))))
        light = InterferenceSpec("congestion", "scenario.congestion.b", (
            ("mean_busy_s", float(rng.uniform(0.3, 1.5))),
            ("mean_idle_s", float(rng.uniform(3.0, 8.0))),
            ("busy_delay_s", float(rng.uniform(0.005, 0.020))),
            ("collision_prob", float(rng.uniform(0.15, 0.35)))))
        config_a = LinkConfig(
            name="A", channel=1, ap_position=OFFICE_AP_PRIMARY,
            gilbert=_gilbert(rng, mean_bad_lo=0.3, mean_bad_hi=1.0,
                             loss_bad_lo=0.8, loss_bad_hi=1.0,
                             mean_good_lo=15.0, mean_good_hi=50.0),
            phy=phy)
        config_b = LinkConfig(
            name="B", channel=11, ap_position=OFFICE_AP_SECONDARY,
            gilbert=_gilbert(rng, mean_bad_lo=0.1, mean_bad_hi=0.5,
                             loss_bad_lo=0.7, loss_bad_hi=1.0,
                             mean_good_lo=20.0, mean_good_hi=80.0),
            phy=phy)
        return ScenarioSetup(name, config_a, config_b, client,
                             interference_a=heavy, interference_b=light)

    if name == "microwave":
        # Shared-fate interference: every nearby AP is on 2.4 GHz (the
        # paper notes no 5 GHz links were available near the oven), so
        # cross-link diversity gains little here.
        client = StaticPosition(Position(
            float(rng.uniform(8.0, 18.0)), float(rng.uniform(3.0, 12.0))))
        oven = InterferenceSpec("oven", "scenario.oven", (
            ("episode_rate_hz", 1.0 / float(rng.uniform(30.0, 90.0))),
            ("episode_duration_s", float(rng.uniform(20.0, 60.0))),
            ("duty_cycle", float(rng.uniform(0.5, 0.65))),
            ("penalty_db", float(rng.uniform(25.0, 35.0))),
            ("floor_penalty_db", float(rng.uniform(10.0, 18.0)))))
        config_a = LinkConfig(
            name="A", channel=6, ap_position=OFFICE_AP_PRIMARY,
            gilbert=_gilbert(rng, mean_bad_lo=0.1, mean_bad_hi=0.5,
                             loss_bad_lo=0.7, loss_bad_hi=1.0,
                             mean_good_lo=20.0, mean_good_hi=60.0),
            phy=phy)
        config_b = LinkConfig(
            name="B", channel=9, ap_position=OFFICE_AP_SECONDARY,
            gilbert=_gilbert(rng, mean_bad_lo=0.1, mean_bad_hi=0.5,
                             loss_bad_lo=0.7, loss_bad_hi=1.0,
                             mean_good_lo=20.0, mean_good_hi=60.0),
            phy=phy)
        return ScenarioSetup(name, config_a, config_b, client,
                             shared_interference=oven)

    raise ValueError(f"unknown scenario {name!r}")


def _build_interference(spec: Optional[InterferenceSpec],
                        rng_router: RandomRouter) -> Any:
    return None if spec is None else spec.build(rng_router)


def build_scenario(name: str, rng_router: RandomRouter,
                   mimo_branches: int = 1) -> Tuple[WifiLink, WifiLink]:
    """Instantiate the two candidate links for one run of ``name``."""
    setup = scenario_setup(name, rng_router, mimo_branches)
    return paired_links(
        setup.config_a, setup.config_b, rng_router,
        mobility=setup.mobility,
        shared_interference=_build_interference(
            setup.shared_interference, rng_router),
        interference_a=_build_interference(
            setup.interference_a, rng_router),
        interference_b=_build_interference(
            setup.interference_b, rng_router))


def sample_scenario_name(rng, mix: Sequence[ScenarioSpec] = WILD_MIX) -> str:
    """Draw a scenario name from the weighted mix."""
    weights = [s.weight for s in mix]
    total = sum(weights)
    roll = rng.random() * total
    acc = 0.0
    for spec in mix:
        acc += spec.weight
        if roll <= acc:
            return spec.name
    return mix[-1].name


def generate_wild_run(index: int, profile: StreamProfile,
                      seed: int = 0,
                      temporal_deltas: Sequence[float] = (),
                      mimo_branches: int = 1,
                      scenario: Optional[str] = None) -> PairedRun:
    """Run ``index`` of the Section 4 dataset, independently renderable.

    Each run's randomness derives only from ``(seed, index)`` — the
    forked router never consumes parent state — so run ``index`` of a
    batch is bit-identical whether rendered alone, serially in a loop,
    or on a pool worker (the :mod:`repro.runner` unit of work).
    """
    root = RandomRouter(seed)
    run_router = root.fork(f"wild-run-{index}")
    name = scenario or sample_scenario_name(
        run_router.stream("scenario.pick"), WILD_MIX)
    link_a, link_b = build_scenario(name, run_router, mimo_branches)
    return render_paired_run(link_a, link_b, profile,
                             temporal_deltas=temporal_deltas,
                             scenario=name)


def generate_wild_runs(n_runs: int, profile: StreamProfile,
                       seed: int = 0,
                       temporal_deltas: Sequence[float] = ()
                       ) -> List[PairedRun]:
    """The Section 4 dataset: ``n_runs`` calls over the wild mix."""
    return [generate_wild_run(idx, profile, seed=seed,
                              temporal_deltas=temporal_deltas)
            for idx in range(n_runs)]


def build_office_pair(rng_router: RandomRouter) -> Tuple[WifiLink, WifiLink]:
    """The Section 6 testbed: two APs at diagonal ends of a 30 m x 15 m
    office (channels 1 and 11), client at a random location.

    The *stronger* link (closer AP) is returned first as the primary.
    Per-run Gilbert draws and light contention reproduce the observed
    office statistics: the primary averages ~2% loss with an occasional
    bad 5-second window, the secondary is markedly worse.

    The links carry no wired delay (``base_delay_s=0``): the event-driven
    session models the wired side explicitly.
    """
    rng = rng_router.stream("office.params")
    client_pos = Position(float(rng.uniform(1.0, 29.0)),
                          float(rng.uniform(1.0, 14.0)))
    client = StaticPosition(client_pos)
    phy = _phy(1)
    pathloss = PathLossParams(exponent=3.3, shadowing_sigma_db=4.5)

    def office_link(name, channel, ap_pos, congestion_stream):
        # Gilbert BAD states are near-outages (loss survives the MAC retry
        # burst); their prevalence scales with distance from the AP, which
        # is what makes the far (secondary) link markedly worse — exactly
        # the office asymmetry of Section 6.1.
        distance = client_pos.distance_to(ap_pos)
        frac = min(distance / 33.5, 1.0)  # 0 near .. 1 at far corner
        # Outage prevalence is lognormal across runs (most locations are
        # fine, a few are bad) with a median that grows with distance.
        median_bad_frac = 0.006 * (1.0 + 4.0 * frac)
        bad_frac = float(np.exp(rng.normal(np.log(median_bad_frac), 1.0)))
        bad_frac = min(bad_frac, 0.35)
        mean_bad = float(rng.uniform(0.08, 0.12 + 1.1 * frac))
        mean_good = mean_bad * (1.0 - bad_frac) / max(bad_frac, 1e-4)
        loss_bad = float(rng.uniform(0.88, 1.0))
        contention = CongestionProcess(
            rng_router.stream(congestion_stream),
            mean_busy_s=0.3, mean_idle_s=4.0, busy_delay_s=0.008,
            collision_prob=0.25)
        config = LinkConfig(
            name=name, channel=channel, ap_position=ap_pos,
            pathloss=pathloss,
            gilbert=GilbertParams(
                mean_good_s=mean_good, mean_bad_s=mean_bad,
                loss_good=float(rng.uniform(0.0, 0.003)),
                loss_bad=loss_bad),
            phy=phy, base_delay_s=0.0)
        return config, contention

    config_1, cont_1 = office_link("ap1", 1, OFFICE_AP_PRIMARY,
                                   "office.congestion.a")
    config_2, cont_2 = office_link("ap2", 11, OFFICE_AP_SECONDARY,
                                   "office.congestion.b")
    link_1, link_2 = paired_links(config_1, config_2, rng_router,
                                  mobility=client,
                                  interference_a=cont_1,
                                  interference_b=cont_2)
    # Primary = stronger (closer) link, per the paper's setup.
    if (client_pos.distance_to(OFFICE_AP_PRIMARY)
            <= client_pos.distance_to(OFFICE_AP_SECONDARY)):
        return link_1, link_2
    return link_2, link_1


def scenario_counts(runs: Sequence[PairedRun]) -> Dict[str, int]:
    """How many runs each scenario contributed (observability)."""
    counts: Dict[str, int] = {}
    for run in runs:
        counts[run.scenario] = counts.get(run.scenario, 0) + 1
    return counts


# --------------------------------------------------------------------------
# Multipath scenarios (the control-plane evaluation's N-path topologies)
# --------------------------------------------------------------------------

#: The control-plane mix: mostly plain offices, with the two conditions
#: that differentiate the strategies (shared-fate interference, mobility)
#: well represented.
MULTIPATH_MIX: Sequence[ScenarioSpec] = (
    ScenarioSpec("mp_office", 0.5),
    ScenarioSpec("mp_oven", 0.25),
    ScenarioSpec("mp_walk", 0.25),
)

#: AP placements for the multipath scenarios: spread across a 40 m x 16 m
#: floor so client position induces a real RSSI ordering.
_MP_AP_POSITIONS: Tuple[Position, ...] = (
    Position(2.0, 2.0),
    Position(38.0, 2.0),
    Position(2.0, 14.0),
    Position(38.0, 14.0),
)


def _mp_gilbert(rng: np.random.Generator, frac_scale: float
                ) -> GilbertParams:
    """Distance-scaled bursty outages for one multipath AP.

    ``frac_scale`` in [0, 1] grows with client-AP distance: far APs
    spend a larger fraction of time in near-outage BAD states.
    """
    median_bad_frac = 0.008 * (1.0 + 5.0 * frac_scale)
    bad_frac = float(np.exp(rng.normal(np.log(median_bad_frac), 0.9)))
    bad_frac = min(bad_frac, 0.4)
    mean_bad = float(rng.uniform(0.1, 0.2 + 1.0 * frac_scale))
    mean_good = mean_bad * (1.0 - bad_frac) / max(bad_frac, 1e-4)
    return GilbertParams(
        mean_good_s=mean_good, mean_bad_s=mean_bad,
        loss_good=float(rng.uniform(0.0, 0.003)),
        loss_bad=float(rng.uniform(0.85, 1.0)))


def build_multipath_links(name: str, rng_router: RandomRouter,
                          n_paths: int = 3) -> List[WifiLink]:
    """Instantiate the ``n_paths`` candidate links for one control-plane
    run of scenario ``name``.

    Links are returned in AP order (``mp0`` .. ``mp{n-1}``); the
    topology builder preserves that order, and the controller ranks by
    RSSI itself.  All randomness flows through named streams of
    ``rng_router`` (``scenario.mp.params`` for the eager parameter draws,
    per-link streams keyed by config name after that), so a run is
    reproducible from its router alone.

    * ``mp_office`` — static client at a random spot on the floor; each
      AP's outage prevalence scales with its distance; light independent
      contention everywhere.
    * ``mp_oven`` — same office, but the first two APs are 2.4 GHz
      neighbors of a microwave oven (shared fate); the rest are 5 GHz.
    * ``mp_walk`` — a random-waypoint walk across the floor; whichever
      AP the client rounds away from dies, so the best path keeps
      changing.
    """
    if not 2 <= n_paths <= len(_MP_AP_POSITIONS):
        raise ValueError(
            f"n_paths must be in [2, {len(_MP_AP_POSITIONS)}]")
    if name not in {spec.name for spec in MULTIPATH_MIX}:
        raise ValueError(f"unknown multipath scenario {name!r}")
    rng = rng_router.stream("scenario.mp.params")
    phy = _phy(1)
    pathloss = PathLossParams(exponent=3.3, shadowing_sigma_db=4.5)

    mobility: MobilityModel
    if name == "mp_walk":
        mobility = RandomWaypointMobility(
            rng_router.stream("scenario.mp.mobility"),
            floor=(40.0, 16.0), speed_range=(0.6, 1.8), pause_s=3.0)
        anchor = Position(20.0, 8.0)  # distance scaling uses the center
    else:
        client_pos = Position(float(rng.uniform(2.0, 38.0)),
                              float(rng.uniform(2.0, 14.0)))
        mobility = StaticPosition(client_pos)
        anchor = client_pos

    oven: Optional[MicrowaveOven] = None
    if name == "mp_oven":
        oven = MicrowaveOven(
            rng_router.stream("scenario.mp.oven"),
            episode_rate_hz=1.0 / float(rng.uniform(30.0, 90.0)),
            episode_duration_s=float(rng.uniform(20.0, 60.0)),
            duty_cycle=float(rng.uniform(0.5, 0.65)),
            penalty_db=float(rng.uniform(25.0, 35.0)),
            floor_penalty_db=float(rng.uniform(10.0, 18.0)))

    links: List[WifiLink] = []
    for i in range(n_paths):
        ap_pos = _MP_AP_POSITIONS[i]
        frac = min(anchor.distance_to(ap_pos) / 43.0, 1.0)
        on_24ghz = name == "mp_oven" and i < 2
        contention = CongestionProcess(
            rng_router.stream(f"scenario.mp.congestion.{i}"),
            mean_busy_s=float(rng.uniform(0.2, 0.6)),
            mean_idle_s=float(rng.uniform(3.0, 8.0)),
            busy_delay_s=float(rng.uniform(0.004, 0.012)),
            collision_prob=float(rng.uniform(0.1, 0.3)))
        config = LinkConfig(
            name=f"mp{i}",
            channel=(1 + 5 * i) if on_24ghz else 36 + 4 * i,
            band="2.4GHz" if on_24ghz else "5GHz",
            ap_position=ap_pos, pathloss=pathloss,
            gilbert=_mp_gilbert(rng, frac),
            phy=phy,
            shadowing_update_s=0.5 if name == "mp_walk" else 1.0)
        links.append(WifiLink(
            config, rng_router, mobility=mobility,
            interference=oven if on_24ghz else contention))
    return links
