"""Drivers for the beyond-the-paper extensions.

These cover what the paper defers or only argues qualitatively:

* :func:`run_uplink` — uplink DiversiFi (Section 5: "would apply equally
  in the uplink direction and would likely be easier").
* :func:`run_nlink_sweep` — diversity gain vs number of links (Figure 1
  motivates many candidates; the paper hedges across two).
* :func:`run_fec_comparison` — replication vs [36]-style XOR coding.
* :func:`run_gaming` — 60 fps cloud-game video over the wild scenarios.

Like the Section 4/6 drivers, each per-seed unit of work is a module
level task executed through :mod:`repro.runner`, so these sweeps
parallelize with ``--jobs`` and cache per run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.analysis.windows import worst_window_loss
from repro.channel.gilbert import GilbertParams
from repro.channel.link import LinkConfig, WifiLink
from repro.channel.mobility import Position, StaticPosition
from repro.core.config import StreamProfile
from repro.core.fec import FecConfig, apply_fec, render_fec_run
from repro.core.multilink import (
    diversity_gain_curve,
    make_before_break,
    render_multilink_run,
)
from repro.core.packet import merge_traces
from repro.core.uplink import run_uplink_session
from repro.runner import map_configs, map_task
from repro.scenarios import build_scenario
from repro.sim.random import RandomRouter

#: runner entry points for the extension tasks
UPLINK_TASK = "repro.experiments.extensions:uplink_run_metrics"
NLINK_TASK = "repro.experiments.extensions:nlink_run_metrics"
GAMING_TASK = "repro.experiments.extensions:gaming_run_metrics"
FEC_TASK = "repro.experiments.extensions:fec_run_metrics"

#: primary-link outage fractions the uplink sweep visits
UPLINK_SEVERITIES = (0.01, 0.03, 0.08)
UPLINK_PROFILE = StreamProfile(duration_s=30.0)
#: links hedged at most in the n-link sweep
N_LINKS = 4
NLINK_PROFILE = StreamProfile(duration_s=60.0)
FEC_PROFILE = StreamProfile(duration_s=60.0)
#: the wild scenarios the game stream crosses
GAMING_SCENARIOS = ("weak_link", "congestion", "mobility")


def _profile_config(profile: StreamProfile) -> Dict[str, Any]:
    """A JSON-safe config fragment reconstructing ``profile`` in a task."""
    return dataclasses.asdict(profile)


# ------------------------------------------------------------------ uplink

@dataclass
class UplinkResult:
    """Plain vs hedged uplink across a severity sweep."""

    severities: List[float]
    plain_loss_pct: List[float]
    hedged_loss_pct: List[float]
    retransmissions: List[float]

    def render(self) -> str:
        rows = []
        for i, severity in enumerate(self.severities):
            rows.append([f"{severity * 100:.0f}%",
                         f"{self.plain_loss_pct[i]:.2f}%",
                         f"{self.hedged_loss_pct[i]:.2f}%",
                         f"{self.retransmissions[i]:.1f}"])
        return render_table(
            "Uplink DiversiFi: loss within the 100 ms deadline "
            "(no proactive duplication at all)",
            ["primary outage", "plain", "hedged", "retx/call"], rows)


def _uplink_factory(outage_fraction: float, profile: StreamProfile):
    mean_bad = 0.4
    mean_good = mean_bad * (1 - outage_fraction) / max(outage_fraction,
                                                       1e-6)
    primary_g = GilbertParams(mean_good_s=mean_good, mean_bad_s=mean_bad,
                              loss_good=0.0, loss_bad=0.995)
    clean = GilbertParams(mean_good_s=1e9, mean_bad_s=0.01,
                          loss_good=0.0, loss_bad=0.0)

    def build(router):
        client = StaticPosition(Position(0, 0))
        primary = WifiLink(
            LinkConfig(name="up-p", ap_position=Position(7, 0),
                       gilbert=primary_g, base_delay_s=0.0),
            router, mobility=client)
        secondary = WifiLink(
            LinkConfig(name="up-s", ap_position=Position(11, 0),
                       gilbert=clean, base_delay_s=0.0),
            router, mobility=client)
        return primary, secondary

    return build


def uplink_run_metrics(seed: int, *, outage_fraction: float,
                       profile: Mapping[str, Any]) -> Dict[str, float]:
    """One seed of the uplink sweep: plain vs hedged session."""
    stream = StreamProfile(**profile)
    build = _uplink_factory(outage_fraction, stream)
    plain = run_uplink_session(build, stream, seed=seed, enabled=False)
    hedged = run_uplink_session(build, stream, seed=seed, enabled=True)
    return {
        "plain": float(plain.trace.effective_trace(0.100).loss_rate * 100),
        "hedged": float(
            hedged.trace.effective_trace(0.100).loss_rate * 100),
        "retx": float(hedged.stats.retransmissions),
    }


def run_uplink(n_runs: int = 5, seed: int = 0) -> UplinkResult:
    """Sweep primary outage severity; average over ``n_runs`` seeds."""
    profile_cfg = _profile_config(UPLINK_PROFILE)
    items: List[Tuple[int, Mapping[str, Any]]] = [
        (seed + k, {"outage_fraction": float(severity),
                    "profile": profile_cfg})
        for severity in UPLINK_SEVERITIES for k in range(n_runs)]
    rows = map_configs(UPLINK_TASK, items)
    plain_out, hedged_out, retx_out = [], [], []
    for i, _severity in enumerate(UPLINK_SEVERITIES):
        chunk = rows[i * n_runs:(i + 1) * n_runs]
        plain_out.append(float(np.mean([r["plain"] for r in chunk])))
        hedged_out.append(float(np.mean([r["hedged"] for r in chunk])))
        retx_out.append(float(np.mean([r["retx"] for r in chunk])))
    return UplinkResult(severities=list(UPLINK_SEVERITIES),
                        plain_loss_pct=plain_out,
                        hedged_loss_pct=hedged_out,
                        retransmissions=retx_out)


# ------------------------------------------------------------- n-link sweep

@dataclass
class NLinkResult:
    """Worst-window loss vs number of hedged links."""

    curve: Dict[int, float]
    make_before_break_pct: float

    def render(self) -> str:
        rows = [[k, f"{v:.2f}%"] for k, v in sorted(self.curve.items())]
        rows.append(["handoff (1 active)",
                     f"{self.make_before_break_pct:.2f}%"])
        return render_table(
            "Diversity gain vs number of links (mean worst-5s loss)",
            ["links", "worst-5s loss"], rows)


def _render_nlink_run(index: int, root_seed: int, n_links: int,
                      profile: StreamProfile):
    root = RandomRouter(root_seed)
    router = root.fork(f"nlink-{index}")
    rng = router.stream("params")
    client = StaticPosition(Position(0, 0))
    links = []
    for j in range(n_links):
        bad_frac = float(np.exp(rng.normal(np.log(0.02), 0.8)))
        mean_bad = float(rng.uniform(0.2, 0.8))
        mean_good = mean_bad * (1 - bad_frac) / max(bad_frac, 1e-4)
        links.append(WifiLink(
            LinkConfig(name=f"ap{j}", channel=1 + 4 * j,
                       ap_position=Position(4.0 + 4 * j, float(j)),
                       gilbert=GilbertParams(
                           mean_good_s=mean_good, mean_bad_s=mean_bad,
                           loss_good=0.0,
                           loss_bad=float(rng.uniform(0.9, 1.0))),
                       base_delay_s=0.0),
            router, mobility=client))
    return render_multilink_run(links, profile)


def nlink_run_metrics(index: int, *, root_seed: int, n_links: int,
                      profile: Mapping[str, Any]) -> Dict[str, Any]:
    """One multilink run: worst-window loss per link count + handoff."""
    run = _render_nlink_run(index, root_seed, n_links,
                            StreamProfile(**profile))
    curve = diversity_gain_curve(
        [run], metric=lambda t: 100 * worst_window_loss(t))
    mbb = 100 * worst_window_loss(make_before_break(run))
    return {"curve": {str(k): float(v) for k, v in curve.items()},
            "mbb": float(mbb)}


def run_nlink_sweep(n_runs: int = 10, seed: int = 0) -> NLinkResult:
    rows = map_task(NLINK_TASK, range(n_runs),
                    {"root_seed": seed, "n_links": N_LINKS,
                     "profile": _profile_config(NLINK_PROFILE)})
    curve = {k: float(np.mean([row["curve"][str(k)] for row in rows]))
             for k in range(1, N_LINKS + 1)}
    mbb = float(np.mean([row["mbb"] for row in rows]))
    return NLinkResult(curve=curve, make_before_break_pct=mbb)


# ----------------------------------------------------------- cloud gaming

@dataclass
class GamingResult:
    """Frame-level outcomes per scenario, single vs hedged."""

    rows: List[List[str]]

    def render(self) -> str:
        return render_table(
            "Cloud gaming: frame failures and stalls, single link vs "
            "cross-link",
            ["scenario", "mode", "failed frames", "stalls/min"],
            self.rows)


def gaming_run_metrics(index: int, *, root_seed: int, scenario: str,
                       duration_s: float) -> Dict[str, Dict[str, float]]:
    """One game-streaming run over one scenario, single vs cross-link."""
    from repro.traffic.gaming import (
        GameStreamProfile,
        packetize_game_stream,
        score_game_session,
        transmit_game_stream,
    )
    game_profile = GameStreamProfile(duration_s=duration_s)
    root = RandomRouter(root_seed)
    router = root.fork(f"game-{scenario}-{index}")
    link_a, link_b = build_scenario(scenario, router)
    stream = packetize_game_stream(game_profile, router.stream("frames"))
    trace_a = transmit_game_stream(stream, link_a)
    trace_b = transmit_game_stream(stream, link_b)
    single = score_game_session(stream, trace_a)
    cross = score_game_session(stream, merge_traces([trace_a, trace_b]))
    return {
        "single": {"frame_failure_rate": float(single.frame_failure_rate),
                   "stalls_per_minute": float(single.stalls_per_minute)},
        "cross-link": {
            "frame_failure_rate": float(cross.frame_failure_rate),
            "stalls_per_minute": float(cross.stalls_per_minute)},
    }


def run_gaming(n_runs: int = 3, seed: int = 11) -> GamingResult:
    """Stream 20 s of 60 fps game video over the wild scenarios."""
    rows: List[List[str]] = []
    for scenario in GAMING_SCENARIOS:
        payloads = map_task(GAMING_TASK, range(n_runs),
                            {"root_seed": seed, "scenario": scenario,
                             "duration_s": 20.0})
        for label in ("single", "cross-link"):
            scores = [p[label] for p in payloads]
            rows.append([
                scenario, label,
                f"{np.mean([s['frame_failure_rate'] for s in scores]) * 100:.2f}%",
                f"{np.mean([s['stalls_per_minute'] for s in scores]):.1f}"])
    return GamingResult(rows=rows)


# ------------------------------------------------------------ FEC baseline

@dataclass
class FecComparisonResult:
    """FEC-on-one-link vs replication-on-two-links."""

    fec_loss_pct: float
    fec_worst_pct: float
    cross_loss_pct: float
    cross_worst_pct: float
    fec_overhead_pct: float

    def render(self) -> str:
        rows = [
            ["FEC k=5 (single link)", f"{self.fec_loss_pct:.2f}%",
             f"{self.fec_worst_pct:.2f}%",
             f"{self.fec_overhead_pct:.0f}% always"],
            ["cross-link (two links)", f"{self.cross_loss_pct:.2f}%",
             f"{self.cross_worst_pct:.2f}%", "<1% reactive"],
        ]
        return render_table(
            "Coding vs diversity on bursty channels",
            ["scheme", "loss", "worst-5s", "airtime overhead"], rows)


def fec_run_metrics(index: int, *, root_seed: int, block_size: int,
                    profile: Mapping[str, Any]) -> Dict[str, float]:
    """One weak-link run: XOR-FEC recovery vs cross-link replication."""
    stream = StreamProfile(**profile)
    config = FecConfig(block_size=block_size)
    root = RandomRouter(root_seed)
    router = root.fork(f"fec-{index}")
    link_a, link_b = build_scenario("weak_link", router)
    data, parity = render_fec_run(link_a, stream, config)
    fec_trace = apply_fec(data, parity, config)
    cross = merge_traces([data, link_b.generate_trace(stream)])
    return {
        "fec_loss": float(fec_trace.loss_rate * 100),
        "fec_worst": float(100 * worst_window_loss(fec_trace)),
        "cross_loss": float(cross.loss_rate * 100),
        "cross_worst": float(100 * worst_window_loss(cross)),
    }


def run_fec_comparison(n_runs: int = 10, seed: int = 0
                       ) -> FecComparisonResult:
    config = FecConfig(block_size=5)
    rows = map_task(FEC_TASK, range(n_runs),
                    {"root_seed": seed, "block_size": config.block_size,
                     "profile": _profile_config(FEC_PROFILE)})
    return FecComparisonResult(
        fec_loss_pct=float(np.mean([r["fec_loss"] for r in rows])),
        fec_worst_pct=float(np.mean([r["fec_worst"] for r in rows])),
        cross_loss_pct=float(np.mean([r["cross_loss"] for r in rows])),
        cross_worst_pct=float(np.mean([r["cross_worst"] for r in rows])),
        fec_overhead_pct=config.overhead_fraction * 100)
