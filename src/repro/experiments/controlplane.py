"""Control-plane head-to-head: DiversiFi hedging vs QoE routing vs RAIL.

The evaluation the :mod:`repro.net.controller` exists for: the same
N-path topology, the same impaired channels, three strategies —

* ``qoe-route`` — dynamic single-path selection on E-model MOS (1x
  bandwidth, reacts after the damage shows up in the counters);
* ``hedge`` — DiversiFi: ride the strongest path, keep a replica branch
  buffered at a middlebox in front of the second-strongest AP, and open
  the valve only while the primary is actually losing packets;
* ``replicate`` — RAIL-style always-on duplication over every path
  (maximum robustness, N x bandwidth).

Each run builds the links once per mode from the *same* fork of the root
router, so all three strategies face identically-parameterized channels
(paired comparison at the parameter level; the sample paths diverge as
each strategy consumes its streams differently).

Everything here is runner-compatible: :data:`CONTROLLER_TASK` is a
module-level entry point whose inputs are plain JSON-able config, so the
sweep caches content-addressed and parallelizes across processes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping

import numpy as np

from repro.analysis.report import render_table
from repro.analysis.windows import worst_window_loss
from repro.core.config import StreamProfile
from repro.net.controller import (
    CONTROLLER_MODES,
    ControllerConfig,
    QoeController,
)
from repro.net.middlebox import Middlebox
from repro.net.topology import (
    ClientCapture,
    StreamSource,
    build_npath_topology,
)
from repro.runner import map_task
from repro.scenarios import (
    MULTIPATH_MIX,
    build_multipath_links,
    sample_scenario_name,
)
from repro.sim.engine import Simulator
from repro.sim.random import RandomRouter
from repro.voice.pcr import score_call

CONTROLLER_TASK = "repro.experiments.controlplane:controller_run_metrics"
#: candidate paths per topology in the head-to-head sweep
SWEEP_N_PATHS = 3
SWEEP_PROFILE = StreamProfile(duration_s=30.0)


def _controller_config(config: ControllerConfig) -> Dict[str, Any]:
    """The JSON-able form of a :class:`ControllerConfig` (task input)."""
    return dataclasses.asdict(config)


def _run_one_mode(mode: str, index: int, root_seed: int, scenario: str,
                  n_paths: int, profile: StreamProfile,
                  config: ControllerConfig) -> Dict[str, Any]:
    """One strategy over one freshly-built run of the scenario."""
    # Every mode rebuilds from the same fork salt: identical scenario
    # pick, identical channel parameters, identical stream seeds.
    router = RandomRouter(root_seed).fork(f"controlplane-{index}")
    name = scenario
    if name == "mix":
        name = sample_scenario_name(router.stream("scenario.pick"),
                                    MULTIPATH_MIX)
    links = build_multipath_links(name, router, n_paths=n_paths)
    sim = Simulator()
    client = ClientCapture(sim)
    topology = build_npath_topology(sim, links, client)
    middlebox = Middlebox(sim) if mode == "hedge" else None
    controller = QoeController(sim, topology, "rt0", mode,
                               config=config, middlebox=middlebox)
    if mode == "hedge":
        controller.register_hedge_flow()
    controller.start()
    StreamSource(sim, topology.ingress, profile, flow_id="rt0").start()
    sim.run(until=profile.duration_s + 1.0)

    trace = client.trace(profile)
    score = score_call(trace)
    data_sent = sum(radio.stats.data_sent
                    for radio in topology.radios())
    return {
        "mos": float(score.mos),
        "loss_pct": 100.0 * float(score.loss_fraction),
        "worst_pct": 100.0 * float(worst_window_loss(trace)),
        "copies_per_packet": data_sent / max(profile.n_packets, 1),
        "duplicates": float(client.duplicates),
        "reroutes": float(controller.stats.reroutes),
        "mbox_starts": float(controller.stats.mbox_starts),
        "polls": float(controller.stats.polls),
        "scenario": name,
    }


def controller_run_metrics(index: int, *, root_seed: int, scenario: str,
                           n_paths: int, profile: Mapping[str, Any],
                           controller: Mapping[str, Any]
                           ) -> Dict[str, Dict[str, Any]]:
    """One head-to-head run: every strategy over the same channel draw.

    Runner task (:data:`CONTROLLER_TASK`): all knobs arrive as plain
    config, all randomness derives from ``(root_seed, index)``.
    """
    stream_profile = StreamProfile(**profile)
    controller_config = ControllerConfig(**controller)
    return {mode: _run_one_mode(mode, index, root_seed, scenario,
                                n_paths, stream_profile,
                                controller_config)
            for mode in CONTROLLER_MODES}


@dataclass
class ControlPlaneResult:
    """Per-strategy means over the sweep."""

    n_runs: int
    n_paths: int
    #: mode -> metric -> mean over runs
    rows: Dict[str, Dict[str, float]]
    #: scenario name -> run count (mix observability)
    scenario_counts: Dict[str, int]

    def render(self) -> str:
        table = [[mode,
                  f"{row['mos']:.2f}",
                  f"{row['worst_pct']:.2f}%",
                  f"{row['loss_pct']:.2f}%",
                  f"{row['copies_per_packet']:.2f}x",
                  f"{row['reroutes']:.1f}",
                  f"{row['mbox_starts']:.1f}"]
                 for mode, row in sorted(self.rows.items())]
        return render_table(
            f"Control-plane head-to-head over {self.n_paths}-path "
            f"topologies ({self.n_runs} runs)",
            ["strategy", "MOS", "worst-5s", "loss", "bandwidth",
             "reroutes", "mbox starts"],
            table)


def run_controller_sweep(n_runs: int = 8, seed: int = 0
                         ) -> ControlPlaneResult:
    """The head-to-head sweep over the ``mp_*`` mix (cached + parallel
    via the runner)."""
    payloads = map_task(
        CONTROLLER_TASK, range(n_runs),
        {"root_seed": seed, "scenario": "mix", "n_paths": SWEEP_N_PATHS,
         "profile": dataclasses.asdict(SWEEP_PROFILE),
         "controller": _controller_config(ControllerConfig())})
    rows: Dict[str, Dict[str, float]] = {}
    metrics = ("mos", "loss_pct", "worst_pct", "copies_per_packet",
               "duplicates", "reroutes", "mbox_starts", "polls")
    for mode in CONTROLLER_MODES:
        rows[mode] = {metric: float(np.mean(
            [payload[mode][metric] for payload in payloads]))
            for metric in metrics}
    counts: Dict[str, int] = {}
    for payload in payloads:
        name = str(payload[CONTROLLER_MODES[0]]["scenario"])
        counts[name] = counts.get(name, 0) + 1
    return ControlPlaneResult(n_runs=n_runs, n_paths=SWEEP_N_PATHS,
                              rows=rows, scenario_counts=counts)
