"""Section 6 drivers: the single-NIC DiversiFi system evaluation.

Figures 8/9 and the Section 6.3 overhead numbers come from a shared set of
office sessions (the counterpart of the paper's 61 interleaved runs): per
seed/location, the same channel statistics are evaluated under
``primary-only``, ``secondary-only`` and ``diversifi-ap``.

Figure 10 runs paired TCP sessions (DiversiFi on vs off); Table 3 and the
Section 6.4 sweep run controlled switch micro-benchmarks against the AP
and the middlebox.

Each driver's per-seed unit of work is a module-level task function
(:func:`office_run_metrics`, :func:`tcp_throughput_metrics`,
:func:`switch_delay_metrics`, :func:`mbox_retrieval_metrics`) executed
through :mod:`repro.runner` — so every artifact here parallelizes over
seeds with ``--jobs``, caches per run, and merges deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.report import (
    render_cdf_series,
    render_histogram,
    render_table,
)
from repro.analysis.windows import worst_window_loss
from repro.core.config import G711_PROFILE, MiddleboxConfig
from repro.core.controller import run_session
from repro.net.middlebox import BASE_QUEUING_DELAY_S
from repro.experiments.section4 import (
    _burst_contribution,
    _merge_burst_contributions,
)
from repro.runner import map_configs, map_task
from repro.scenarios import build_office_pair
from repro.voice.pcr import POOR_MOS_THRESHOLD, score_call

OFFICE_MODES = ("primary-only", "secondary-only", "diversifi-ap")

#: runner entry points for the Section 6 tasks
OFFICE_TASK = "repro.experiments.section6:office_run_metrics"
TCP_TASK = "repro.experiments.section6:tcp_throughput_metrics"
SWITCH_TASK = "repro.experiments.section6:switch_delay_metrics"
RETRIEVAL_TASK = "repro.experiments.section6:mbox_retrieval_metrics"


# ---------------------------------------------------------------------------
# per-seed tasks (the repro.runner units of work)

def office_run_metrics(seed: int) -> Dict[str, Dict[str, Any]]:
    """One office location/seed evaluated under every mode.

    The payload carries everything Figures 8/9 and Section 6.3 need, so
    all three artifacts share one cache entry per seed.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for mode in OFFICE_MODES:
        result = run_session(build_office_pair, mode=mode,
                             profile=G711_PROFILE, seed=seed)
        trace = result.effective_trace()
        out[mode] = {
            "worst_window": 100.0 * worst_window_loss(trace),
            "poor": bool(score_call(trace).mos < POOR_MOS_THRESHOLD),
            "loss_rate": float(trace.loss_rate),
            "waste": float(result.wasteful_duplication_rate()),
            "recovery_switches": int(
                result.client_stats.recovery_switches),
            "keepalive_switches": int(
                result.client_stats.keepalive_switches),
            "bursts": _burst_contribution(trace),
        }
    return out


def tcp_throughput_metrics(seed: int) -> Dict[str, float]:
    """Competing-TCP throughput with DiversiFi on vs off (one seed)."""
    session_on = run_session(build_office_pair, mode="diversifi-ap",
                             profile=G711_PROFILE, seed=seed,
                             with_tcp=True)
    session_off = run_session(build_office_pair, mode="primary-only",
                              profile=G711_PROFILE, seed=seed,
                              with_tcp=True)
    return {"on": float(session_on.tcp_stats.throughput_mbps),
            "off": float(session_off.tcp_stats.throughput_mbps)}


def switch_delay_metrics(seed: int) -> Dict[str, List[float]]:
    """One forced switch against the AP and against the middlebox."""
    ap_switch, ap_total = _measure_switch(seed, use_middlebox=False)
    mb_switch, mb_total = _measure_switch(seed, use_middlebox=True)
    return {"ap": [float(ap_switch), float(ap_total)],
            "mbox": [float(mb_switch), float(mb_total)]}


def mbox_retrieval_metrics(seed: int, *,
                           middlebox_load: int = 0) -> Dict[str, float]:
    """Retrieval delay through a loaded middlebox (Section 6.4 unit)."""
    _, total = _measure_switch(seed, use_middlebox=True,
                               middlebox_load=middlebox_load)
    return {"total": float(total)}


def _office_metrics(n_runs: int, seed0: int) -> List[Dict[str, Any]]:
    return map_task(OFFICE_TASK, range(seed0, seed0 + n_runs))


# ---------------------------------------------------------------- Figure 8

@dataclass
class Figure8Result:
    """Worst-5s loss CDFs and PCR for primary/secondary/DiversiFi."""

    worst_window: Dict[str, List[float]]    # mode -> per-run %
    pcr: Dict[str, float]                   # mode -> %

    def p90(self, mode: str) -> float:
        return EmpiricalCdf(self.worst_window[mode]).quantile(0.90)

    def render(self) -> str:
        cdf = render_cdf_series(
            "Figure 8: CDF of worst-5s loss (paper 90th pctile: primary "
            "11.6%, secondary 52%, DiversiFi 1.2%)",
            {mode: EmpiricalCdf(vals).series()
             for mode, vals in self.worst_window.items()},
            x_label="worst-5s loss %")
        pcr_rows = [[m, f"{v:.1f}"] for m, v in self.pcr.items()]
        table = render_table(
            "PCR (paper: primary 4.9%, secondary 26.2%, DiversiFi 0%)",
            ["mode", "PCR %"], pcr_rows)
        return f"{cdf}\n\n{table}"


def _mode_label(mode: str) -> str:
    return {"primary-only": "primary", "secondary-only": "secondary",
            "diversifi-ap": "DiversiFi"}[mode]


def run_figure8(n_runs: int = 61, seed0: int = 0) -> Figure8Result:
    rows = _office_metrics(n_runs, seed0)
    worst: Dict[str, List[float]] = {}
    pcr: Dict[str, float] = {}
    for mode in OFFICE_MODES:
        label = _mode_label(mode)
        worst[label] = [row[mode]["worst_window"] for row in rows]
        poors = [bool(row[mode]["poor"]) for row in rows]
        pcr[label] = 100.0 * float(np.mean(poors))
    return Figure8Result(worst_window=worst, pcr=pcr)


# ---------------------------------------------------------------- Figure 9

@dataclass
class Figure9Result:
    """Burst-length distributions for primary/secondary/DiversiFi."""

    histograms: Dict[str, Dict[str, float]]
    stats: Dict[str, Tuple[float, float]]

    def render(self) -> str:
        blocks = []
        for name, hist in self.histograms.items():
            mean_lost, bursty = self.stats[name]
            blocks.append(render_histogram(
                f"Figure 9 [{name}]: avg packets lost by burst length "
                f"(total {mean_lost:.1f}/call, {bursty:.1f} in bursts)",
                hist))
        return "\n\n".join(blocks)


def run_figure9(n_runs: int = 61, seed0: int = 0) -> Figure9Result:
    rows = _office_metrics(n_runs, seed0)
    histograms, stats = {}, {}
    for mode in OFFICE_MODES:
        label = _mode_label(mode)
        contributions = [row[mode]["bursts"] for row in rows]
        buckets, lost, bursty = _merge_burst_contributions(contributions)
        histograms[label] = buckets
        stats[label] = (lost, bursty)
    return Figure9Result(histograms=histograms, stats=stats)


# ------------------------------------------------------------ Section 6.3

@dataclass
class OverheadResult:
    """Duplication-overhead accounting (Section 6.3)."""

    primary_loss_pct: float
    residual_loss_pct: float
    wasteful_duplication_pct: float
    recovery_switches_per_call: float
    keepalive_switches_per_call: float

    def render(self) -> str:
        rows = [
            ["primary-link loss", f"{self.primary_loss_pct:.2f}%", "1.97%"],
            ["residual loss (DiversiFi)", f"{self.residual_loss_pct:.2f}%",
             "0.05%"],
            ["wasteful duplication", f"{self.wasteful_duplication_pct:.2f}%",
             "0.62%"],
            ["recovery switches/call",
             f"{self.recovery_switches_per_call:.1f}", "-"],
            ["keepalive switches/call",
             f"{self.keepalive_switches_per_call:.1f}", "-"],
        ]
        return render_table("Section 6.3: duplication overhead",
                            ["metric", "measured", "paper"], rows)


def run_section63_overhead(n_runs: int = 61, seed0: int = 0
                           ) -> OverheadResult:
    rows = _office_metrics(n_runs, seed0)
    primary_losses = [row["primary-only"]["loss_rate"] for row in rows]
    div = [row["diversifi-ap"] for row in rows]
    return OverheadResult(
        primary_loss_pct=100.0 * float(np.mean(primary_losses)),
        residual_loss_pct=100.0 * float(np.mean(
            [d["loss_rate"] for d in div])),
        wasteful_duplication_pct=100.0 * float(np.mean(
            [d["waste"] for d in div])),
        recovery_switches_per_call=float(np.mean(
            [d["recovery_switches"] for d in div])),
        keepalive_switches_per_call=float(np.mean(
            [d["keepalive_switches"] for d in div])))


# --------------------------------------------------------------- Figure 10

@dataclass
class Figure10Result:
    """Competing-TCP throughput with DiversiFi on vs off."""

    with_diversifi_mbps: List[float]
    without_diversifi_mbps: List[float]

    @property
    def differences_kbps(self) -> List[float]:
        return [(off - on) * 1000.0
                for on, off in zip(self.with_diversifi_mbps,
                                   self.without_diversifi_mbps)]

    @property
    def mean_with(self) -> float:
        return float(np.mean(self.with_diversifi_mbps))

    @property
    def mean_without(self) -> float:
        return float(np.mean(self.without_diversifi_mbps))

    def degradation_pct(self) -> float:
        if self.mean_without == 0:
            return 0.0
        return 100.0 * (1.0 - self.mean_with / self.mean_without)

    def render(self) -> str:
        cdf = render_cdf_series(
            "Figure 10: difference in TCP throughput, "
            "off-minus-on (centred near zero in the paper)",
            {"Throughput(primary) - Throughput(DiversiFi)":
             EmpiricalCdf(self.differences_kbps).series()},
            x_label="Kbps")
        return (f"{cdf}\n"
                f"avg TCP throughput: DiversiFi on {self.mean_with:.2f} "
                f"Mbps, off {self.mean_without:.2f} Mbps -> "
                f"{self.degradation_pct():.1f}% degradation "
                f"(paper: 3.9 vs 4.0 Mbps, 2.5%)")


def run_figure10(n_runs: int = 26, seed0: int = 100) -> Figure10Result:
    rows = map_task(TCP_TASK, range(seed0, seed0 + n_runs))
    return Figure10Result(
        with_diversifi_mbps=[row["on"] for row in rows],
        without_diversifi_mbps=[row["off"] for row in rows])


# ----------------------------------------------------------------- Table 3

@dataclass
class Table3Result:
    """Recovery-delay breakdown: AP buffering vs middlebox (ms)."""

    ap_total_ms: float
    ap_switching_ms: float
    ap_network_ms: float
    mbox_total_ms: float
    mbox_switching_ms: float
    mbox_network_ms: float
    mbox_queuing_ms: float

    def render(self) -> str:
        rows = [
            ["Middlebox", f"{self.mbox_total_ms:.1f}",
             f"{self.mbox_switching_ms:.1f}",
             f"{self.mbox_network_ms:.1f}",
             f"{self.mbox_queuing_ms:.1f}"],
            ["AP", f"{self.ap_total_ms:.1f}",
             f"{self.ap_switching_ms:.1f}",
             f"{self.ap_network_ms:.1f}", "-"],
        ]
        return render_table(
            "Table 3: delay (ms) to collect a buffered packet on the "
            "secondary link (paper: middlebox 5.2 = 2.3 + 2 + 0.9; "
            "AP 2.8 = 2.3 + 0.5)",
            ["Scheme", "Total", "Switching", "Network", "Queuing"], rows)


def _measure_switch(seed: int, use_middlebox: bool,
                    middlebox_load: int = 0) -> Tuple[float, float]:
    """One forced primary->secondary switch; returns
    (switch_latency_s, total_time_to_first_secondary_packet_s)."""
    from repro.core.packet import Packet
    from repro.sim.engine import Simulator
    from repro.sim.random import RandomRouter
    from repro.wifi.ap import AccessPoint
    from repro.wifi.association import WifiManager
    from repro.net.middlebox import Middlebox
    from repro.core.config import APConfig

    sim = Simulator()
    router = RandomRouter(seed)

    class InstantLink:
        name = "instant"

        def transmit(self, send_time, size_bytes):
            return True, send_time + 0.0005

    primary = AccessPoint(sim, "primary", InstantLink(), APConfig())
    secondary = AccessPoint(sim, "secondary", InstantLink(), APConfig())
    manager = WifiManager(sim, router.stream("psm"))
    manager.create_adapter("primary")
    manager.create_adapter("secondary")
    manager.associate("primary", primary, channel=1)
    manager.associate("secondary", secondary, channel=11)
    manager.activate("primary")

    arrivals: List[float] = []
    secondary.set_receiver(lambda p, t, name: arrivals.append(t))

    mbox: Optional[Middlebox] = None
    if use_middlebox:
        mbox = Middlebox(sim, MiddleboxConfig())
        for i in range(middlebox_load):
            mbox.register_flow(f"tenant{i}", lambda p: None)
        mbox.register_flow("rt0", secondary.wired_arrival)
        sim.call_at(0.5, mbox.replica_arrival,
                    Packet(seq=0, send_time=0.5, flow_id="rt0"))
    else:
        sim.call_at(0.5, secondary.wired_arrival,
                    Packet(seq=0, send_time=0.5, flow_id="rt0"))

    switch_done: List[float] = []
    switch_start = 1.0

    def on_awake():
        switch_done.append(sim.now)
        if mbox is not None:
            mbox.start("rt0")

    sim.call_at(switch_start, manager.switch_to, "secondary", on_awake)
    sim.run(until=2.0)
    if not arrivals or not switch_done:
        raise RuntimeError("switch micro-benchmark produced no delivery")
    return (switch_done[0] - switch_start, arrivals[0] - switch_start)


def run_table3(n_events: int = 100, seed0: int = 0) -> Table3Result:
    rows = map_task(SWITCH_TASK, range(seed0, seed0 + n_events))
    ap_switch = [row["ap"][0] for row in rows]
    ap_total = [row["ap"][1] for row in rows]
    mb_switch = [row["mbox"][0] for row in rows]
    mb_total = [row["mbox"][1] for row in rows]
    ap_switch_ms = 1000 * float(np.mean(ap_switch))
    ap_total_ms = 1000 * float(np.mean(ap_total))
    mb_switch_ms = 1000 * float(np.mean(mb_switch))
    mb_total_ms = 1000 * float(np.mean(mb_total))
    mbox_queuing_ms = 1000 * BASE_QUEUING_DELAY_S
    return Table3Result(
        ap_total_ms=ap_total_ms,
        ap_switching_ms=ap_switch_ms,
        ap_network_ms=ap_total_ms - ap_switch_ms,
        mbox_total_ms=mb_total_ms,
        mbox_switching_ms=mb_switch_ms,
        mbox_network_ms=mb_total_ms - mb_switch_ms - mbox_queuing_ms,
        mbox_queuing_ms=mbox_queuing_ms)


# ------------------------------------------------------------ Section 6.4

@dataclass
class ScalabilityResult:
    """Retrieval delay vs concurrent replicated streams (Section 6.4)."""

    loads: List[int]
    total_delay_ms: List[float]

    def extra_at_max_load_ms(self) -> float:
        return self.total_delay_ms[-1] - self.total_delay_ms[0]

    def render(self) -> str:
        rows = [[load, f"{ms:.2f}"]
                for load, ms in zip(self.loads, self.total_delay_ms)]
        table = render_table(
            "Section 6.4: middlebox retrieval delay vs concurrent streams",
            ["streams", "total delay (ms)"], rows)
        return (f"{table}\n"
                f"extra delay at {self.loads[-1]} streams: "
                f"{self.extra_at_max_load_ms():.2f} ms (paper: ~1.1 ms)")


def run_section64_scalability(loads: Tuple[int, ...] = (0, 10, 100, 500,
                                                        1000),
                              n_events: int = 20,
                              seed0: int = 0) -> ScalabilityResult:
    # One flat batch (all loads x all seeds) so a parallel run keeps
    # every worker busy across the whole sweep, not per-load.
    items = [(seed, {"middlebox_load": load})
             for load in loads
             for seed in range(seed0, seed0 + n_events)]
    rows = map_configs(RETRIEVAL_TASK, items)
    delays_ms = []
    for i, _load in enumerate(loads):
        totals = [row["total"]
                  for row in rows[i * n_events:(i + 1) * n_events]]
        delays_ms.append(1000 * float(np.mean(totals)))
    return ScalabilityResult(loads=list(loads), total_delay_ms=delays_ms)
