"""Section 4 drivers: the two-NIC analysis figures (2a–2e, 3, 4, 5, 6).

All of Figure 2 and Figures 4–6 share one dataset: N simulated calls over
the wild scenario mix with full replication recorded on both links (the
counterpart of the paper's 458-call trace collection).

The per-run unit of work is :func:`wild_run_metrics` — render ONE wild
call and evaluate the full strategy suite on it — executed through
:mod:`repro.runner`'s map API.  Because every run is independent and
seeded from ``(root seed, index)``, the batch parallelizes across
processes (``--jobs``), is content-address cached per run, and merges in
seed order, so serial and parallel executions produce byte-identical
figures.  One run's payload carries the superset of metrics the Section
4 figures need, so Figures 2a/2b/2c/4/5 all hit the same cache entries.

:func:`wild_dataset` (the in-memory ``PairedRun`` tuple) remains for
tests and ad-hoc analysis of the raw traces.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.analysis.bursts import BURST_BUCKETS, burst_bucket, burst_lengths
from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.correlation import (
    loss_autocorrelation,
    loss_crosscorrelation,
)
from repro.analysis.report import (
    render_cdf_series,
    render_histogram,
    render_table,
)
from repro.analysis.windows import worst_window_loss
from repro.core import strategies
from repro.core.config import G711_PROFILE, profile_for
from repro.core.replication import PairedRun
from repro.runner import map_task
from repro.scenarios import build_scenario, generate_wild_run, \
    generate_wild_runs
from repro.sim.random import RandomRouter
from repro.voice.pcr import POOR_MOS_THRESHOLD, score_call

#: the temporal offsets evaluated in Figure 2c
TEMPORAL_DELTAS = (0.0, 0.1)

#: runner entry point for the shared per-run task
WILD_TASK = "repro.experiments.section4:wild_run_metrics"


@lru_cache(maxsize=8)
def _wild_dataset(n_runs: int, seed: int, deltas: Tuple[float, ...]
                  ) -> Tuple[PairedRun, ...]:
    return tuple(generate_wild_runs(n_runs, G711_PROFILE, seed=seed,
                                    temporal_deltas=deltas))


def wild_dataset(n_runs: int = 60, seed: int = 0,
                 deltas: Sequence[float] = TEMPORAL_DELTAS
                 ) -> Sequence[PairedRun]:
    """The shared Section 4 dataset of raw G.711 traces (cached in
    memory)."""
    return _wild_dataset(n_runs, seed, tuple(deltas))


# ---------------------------------------------------------------------------
# the per-run task (the repro.runner unit of work)

def _strategy_suite(deltas: Sequence[float]
                    ) -> List[Tuple[str, Callable[[PairedRun], Any]]]:
    """The (payload key, strategy) superset evaluated on every run."""
    suite: List[Tuple[str, Callable[[PairedRun], Any]]] = [
        ("cross-link", strategies.cross_link),
        ("stronger", strategies.stronger),
        ("better", strategies.better),
        ("divert", strategies.divert),
        ("baseline", strategies.baseline),
    ]
    for delta in deltas:
        suite.append((f"temporal:{float(delta)!r}",
                      lambda r, d=float(delta): strategies.temporal(r, d)))
    return suite


def _burst_contribution(trace) -> Dict[str, Any]:
    """One call's burst accounting, combinable across runs by summation
    (all quantities are integer packet counts, so float sums are exact)."""
    buckets = dict.fromkeys(BURST_BUCKETS, 0.0)
    lost, bursty = 0.0, 0.0
    for length in burst_lengths(trace):
        buckets[burst_bucket(length)] += length
        lost += length
        if length >= 2:
            bursty += length
    return {"buckets": buckets, "lost": lost, "bursty": bursty}


def _merge_burst_contributions(
        contributions: Sequence[Mapping[str, Any]]
) -> Tuple[Dict[str, float], float, float]:
    """Per-call averages of summed contributions.

    Buckets are rebuilt in bar order (1..N, >N) because payloads coming
    back from the runner carry canonical-JSON (lexicographic) key order.
    """
    buckets = dict.fromkeys(BURST_BUCKETS, 0.0)
    lost, bursty = 0.0, 0.0
    for contribution in contributions:
        for bucket, packets in contribution["buckets"].items():
            buckets[bucket] += packets
        lost += contribution["lost"]
        bursty += contribution["bursty"]
    n_calls = len(contributions)
    if n_calls:
        buckets = {bucket: packets / n_calls
                   for bucket, packets in buckets.items()}
        lost /= n_calls
        bursty /= n_calls
    return buckets, lost, bursty


def wild_run_metrics(index: int, *, root_seed: int,
                     deltas: Sequence[float] = (),
                     mimo_branches: int = 1,
                     highrate: bool = False,
                     duration_s: Optional[float] = None,
                     scenario: Optional[str] = None,
                     max_lag: int = 20) -> Dict[str, Any]:
    """Render wild call ``index`` and evaluate the strategy suite on it.

    Returns the JSON payload the Section 4 figures are assembled from:
    per-strategy worst-5s-window loss (all figures 2a–2e), poor-call
    flags (Figure 6), burst contributions (Figure 5), and the loss
    auto-/cross-correlation curves (Figure 4).
    """
    profile = profile_for(highrate, duration_s)
    run = generate_wild_run(index, profile, seed=root_seed,
                            temporal_deltas=tuple(deltas),
                            mimo_branches=mimo_branches,
                            scenario=scenario)
    spacing = run.profile.inter_packet_spacing_s
    worst: Dict[str, float] = {}
    poor: Dict[str, bool] = {}
    bursts: Dict[str, Dict[str, Any]] = {}
    for name, fn in _strategy_suite(deltas):
        trace = fn(run)
        worst[name] = 100.0 * worst_window_loss(
            trace, window_s=5.0, inter_packet_spacing_s=spacing)
        if name in strategies.POOR_STRATEGIES:
            poor[name] = bool(score_call(trace).mos < POOR_MOS_THRESHOLD)
        if name in strategies.BURST_STRATEGIES:
            bursts[name] = _burst_contribution(trace)
    return {
        "scenario": run.scenario,
        "worst_window": worst,
        "poor": poor,
        "bursts": bursts,
        "autocorr": loss_autocorrelation(run.trace_a, max_lag).tolist(),
        "crosscorr": loss_crosscorrelation(run.trace_a, run.trace_b,
                                           max_lag).tolist(),
    }


def _wild_metrics(n_runs: int, seed: int,
                  deltas: Sequence[float] = TEMPORAL_DELTAS,
                  mimo_branches: int = 1,
                  highrate: bool = False,
                  duration_s: Optional[float] = None,
                  scenario: Optional[str] = None,
                  max_lag: int = 20,
                  backend: str = "event") -> List[Dict[str, Any]]:
    """Produce the per-run payload list for ``n_runs`` wild calls.

    ``backend="event"`` maps :func:`wild_run_metrics` over run indices
    via the runner (the reference path); ``backend="batch"`` renders the
    same population through :mod:`repro.batch` in vectorized blocks.
    Both backends emit payloads with identical shape and session order,
    and the batch backend re-validates a sampled subset against the
    event engine whenever ``REPRO_SANITIZE=1``.
    """
    if backend == "batch":
        from repro.batch.driver import batch_wild_metrics
        return batch_wild_metrics(
            n_runs, seed, deltas=deltas, mimo_branches=mimo_branches,
            highrate=highrate, duration_s=duration_s, scenario=scenario,
            max_lag=max_lag)
    if backend != "event":
        raise ValueError(
            f"unknown backend {backend!r}; expected 'event' or 'batch'")
    config = {
        "root_seed": seed,
        "deltas": [float(d) for d in deltas],
        "mimo_branches": mimo_branches,
        "highrate": highrate,
        "duration_s": duration_s,
        "scenario": scenario,
        "max_lag": max_lag,
    }
    return map_task(WILD_TASK, range(n_runs), config)


# ---------------------------------------------------------------------------
# generic CDF machinery for Figure 2

@dataclass
class CdfFigure:
    """A worst-5-second-window loss CDF comparison (Figure 2 panels)."""

    title: str
    series: Dict[str, List[float]]   # strategy -> per-run worst-window %

    def cdf(self, name: str) -> EmpiricalCdf:
        return EmpiricalCdf(self.series[name])

    def p90(self, name: str) -> float:
        return self.cdf(name).quantile(0.90)

    def render(self) -> str:
        return render_cdf_series(
            self.title,
            {name: EmpiricalCdf(vals).series()
             for name, vals in self.series.items()},
            x_label="worst-5s loss %")


def _series(rows: Sequence[Dict[str, Any]],
            labels: Sequence[Tuple[str, str]]) -> Dict[str, List[float]]:
    """Slice (figure label -> payload key) series out of run payloads."""
    return {label: [row["worst_window"][key] for row in rows]
            for label, key in labels}


# ------------------------------------------------------------- Figure 2a/b

def run_figure2a(n_runs: int = 60, seed: int = 0,
                 backend: str = "event") -> CdfFigure:
    """Cross-link replication vs stronger/better link selection."""
    rows = _wild_metrics(n_runs, seed, backend=backend)
    series = _series(rows, [("cross-link", "cross-link"),
                            ("stronger", "stronger"),
                            ("better", "better")])
    return CdfFigure(
        "Figure 2a: CDF of worst-5s loss — replication vs selection",
        series)


def run_figure2b(n_runs: int = 60, seed: int = 0,
                 backend: str = "event") -> CdfFigure:
    """Cross-link replication vs Divert (H=1, T=1)."""
    rows = _wild_metrics(n_runs, seed, backend=backend)
    series = _series(rows, [("cross-link", "cross-link"),
                            ("divert", "divert")])
    return CdfFigure(
        "Figure 2b: CDF of worst-5s loss — replication vs fine-grained "
        "selection (Divert)", series)


# --------------------------------------------------------------- Figure 2c

def run_figure2c(n_runs: int = 60, seed: int = 0,
                 backend: str = "event") -> CdfFigure:
    """Cross-link vs temporal replication (delta = 0 and 100 ms)."""
    rows = _wild_metrics(n_runs, seed, backend=backend)
    series = _series(rows, [("cross-link", "cross-link"),
                            ("temporal (100ms)", "temporal:0.1"),
                            ("temporal (0ms)", "temporal:0.0"),
                            ("baseline", "baseline")])
    return CdfFigure(
        "Figure 2c: CDF of worst-5s loss — cross-link vs temporal "
        "replication", series)


# --------------------------------------------------------------- Figure 2d

def run_figure2d(n_runs: int = 44, seed: int = 0,
                 backend: str = "event") -> CdfFigure:
    """With 802.11ac-style MIMO (2 spatial branches) on every link."""
    rows = _wild_metrics(n_runs, seed, mimo_branches=2, backend=backend)
    series = _series(rows, [("MIMO + cross-link", "cross-link"),
                            ("MIMO + stronger", "stronger"),
                            ("MIMO + better", "better")])
    return CdfFigure(
        "Figure 2d: CDF of worst-5s loss — cross-link on top of MIMO",
        series)


# --------------------------------------------------------------- Figure 2e

def run_figure2e(n_runs: int = 40, seed: int = 0,
                 backend: str = "event") -> CdfFigure:
    """High-rate (5 Mbps) 30 s streams (paper: 80 two-minute runs;
    one is 75k packets per link)."""
    rows = _wild_metrics(n_runs, seed, deltas=(), highrate=True,
                         duration_s=30.0, backend=backend)
    series = _series(rows, [("cross-link", "cross-link"),
                            ("stronger", "stronger"),
                            ("better", "better")])
    return CdfFigure(
        "Figure 2e: CDF of worst-5s loss — 5 Mbps streams", series)


# ---------------------------------------------------------------- Figure 3

@dataclass
class Figure3Result:
    """The two-weak-links example trace."""

    loss_a_pct: float
    loss_b_pct: float
    loss_combined_pct: float
    jitter_a_ms: float
    jitter_b_ms: float
    jitter_combined_ms: float

    def render(self) -> str:
        rows = [
            ["link A", f"{self.loss_a_pct:.2f}", f"{self.jitter_a_ms:.1f}"],
            ["link B", f"{self.loss_b_pct:.2f}", f"{self.jitter_b_ms:.1f}"],
            ["cross-link", f"{self.loss_combined_pct:.2f}",
             f"{self.jitter_combined_ms:.1f}"],
        ]
        return render_table(
            "Figure 3: two weak links — replication beats the better link "
            "(paper: 4.3% + 15.4% -> 0.88%)",
            ["stream", "loss %", "delay jitter (ms)"], rows)


def _jitter_ms(trace) -> float:
    delays = trace.delays[trace.delivered]
    if delays.size < 2:
        return 0.0
    return float(np.std(delays) * 1000.0)


def run_figure3(seed: int = 0) -> Figure3Result:
    """Find a weak-link run like the paper's example (A ~4%, B ~15%).

    Sequential by design: the search stops at the first qualifying run
    (at most 40 tries), so later attempts depend on earlier outcomes (no
    parallel map).
    """
    root = RandomRouter(seed)
    best = None
    for attempt in range(40):
        router = root.fork(f"fig3-{attempt}")
        link_a, link_b = build_scenario("weak_link", router)
        from repro.core.replication import render_paired_run
        run = render_paired_run(link_a, link_b, G711_PROFILE)
        loss_a = run.trace_a.loss_rate * 100
        loss_b = run.trace_b.loss_rate * 100
        # Look for the paper's asymmetric weak pair.
        fitness = abs(loss_a - 4.3) + abs(loss_b - 15.4) * 0.5
        if best is None or fitness < best[0]:
            best = (fitness, run)
        if 2.0 <= loss_a <= 7.0 and 10.0 <= loss_b <= 22.0:
            best = (0.0, run)
            break
    run = best[1]
    combined = strategies.cross_link(run)
    return Figure3Result(
        loss_a_pct=run.trace_a.loss_rate * 100,
        loss_b_pct=run.trace_b.loss_rate * 100,
        loss_combined_pct=combined.loss_rate * 100,
        jitter_a_ms=_jitter_ms(run.trace_a),
        jitter_b_ms=_jitter_ms(run.trace_b),
        jitter_combined_ms=_jitter_ms(combined))


# ---------------------------------------------------------------- Figure 4

@dataclass
class Figure4Result:
    """Loss auto-correlation vs cross-correlation (lags 1..20)."""

    lags: List[int]
    autocorrelation: List[float]
    crosscorrelation: List[float]

    def render(self) -> str:
        rows = [[lag, f"{a:.3f}", f"{c:.3f}"]
                for lag, a, c in zip(self.lags, self.autocorrelation,
                                     self.crosscorrelation)]
        return render_table(
            "Figure 4: loss auto-correlation (within link) vs "
            "cross-correlation (across links)",
            ["lag (pkts)", "auto", "cross"], rows)


def run_figure4(n_runs: int = 60, seed: int = 0,
                backend: str = "event") -> Figure4Result:
    """Loss correlation at lags 1..20."""
    max_lag = 20
    rows = _wild_metrics(n_runs, seed, max_lag=max_lag, backend=backend)
    if rows:
        auto = np.mean(np.vstack([row["autocorr"] for row in rows]), axis=0)
        cross = np.mean(np.vstack([row["crosscorr"] for row in rows]),
                        axis=0)
    else:
        auto = cross = np.zeros(max_lag)
    return Figure4Result(lags=list(range(1, max_lag + 1)),
                         autocorrelation=auto.tolist(),
                         crosscorrelation=cross.tolist())


# ---------------------------------------------------------------- Figure 5

@dataclass
class Figure5Result:
    """Burst-length distributions per strategy."""

    histograms: Dict[str, Dict[str, float]]
    stats: Dict[str, Tuple[float, float]]   # (mean lost, mean in bursts)

    def render(self) -> str:
        blocks = []
        for name, hist in self.histograms.items():
            mean_lost, bursty = self.stats[name]
            blocks.append(render_histogram(
                f"Figure 5 [{name}]: avg packets lost by burst length "
                f"(total {mean_lost:.1f}/call, {bursty:.1f} in bursts)",
                hist))
        return "\n\n".join(blocks)


def run_figure5(n_runs: int = 60, seed: int = 0,
                backend: str = "event") -> Figure5Result:
    rows = _wild_metrics(n_runs, seed, backend=backend)
    labels = [("stronger", "stronger"),
              ("temporal (100ms)", "temporal:0.1"),
              ("cross-link", "cross-link")]
    histograms, stats = {}, {}
    for label, key in labels:
        contributions = [row["bursts"][key] for row in rows]
        buckets, lost, bursty = _merge_burst_contributions(contributions)
        histograms[label] = buckets
        stats[label] = (lost, bursty)
    return Figure5Result(histograms=histograms, stats=stats)


# ---------------------------------------------------------------- Figure 6

@dataclass
class Figure6Result:
    """PCR by impairment scenario, stronger vs cross-link."""

    pcr: Dict[str, Dict[str, float]]   # scenario -> strategy -> PCR %
    overall: Dict[str, float]

    #: per-strategy per-run poor indicators (for the bootstrap CI)
    raw_poors: Dict[str, List[bool]] = field(default_factory=dict)

    def improvement_factor(self) -> float:
        if self.overall["cross-link"] == 0:
            return float("inf")
        return self.overall["stronger"] / self.overall["cross-link"]

    def improvement_interval(self):
        """Bootstrap CI for the headline PCR-cut factor."""
        from repro.analysis.summary import improvement_factor_interval
        if not self.raw_poors or not any(self.raw_poors.get(
                "cross-link", [])):
            return None
        return improvement_factor_interval(
            [float(x) for x in self.raw_poors["stronger"]],
            [float(x) for x in self.raw_poors["cross-link"]])

    def render(self) -> str:
        rows = [[scenario,
                 f"{values['stronger']:.1f}",
                 f"{values['cross-link']:.1f}"]
                for scenario, values in self.pcr.items()]
        rows.append(["OVERALL", f"{self.overall['stronger']:.1f}",
                     f"{self.overall['cross-link']:.1f}"])
        table = render_table(
            "Figure 6: poor call rate (%) by impairment",
            ["Impairment", "stronger", "cross-link"], rows)
        interval = self.improvement_interval()
        ci = f" (95% CI {interval.low:.1f}-{interval.high:.1f}x)" \
            if interval else ""
        return (f"{table}\n"
                f"overall improvement: {self.improvement_factor():.2f}x"
                f"{ci} (paper: 2.24x, 12.23% -> 5.45%)")


def run_figure6(n_runs_per_scenario: int = 15, seed: int = 0,
                backend: str = "event") -> Figure6Result:
    scenarios = ("microwave", "mobility", "weak_link", "congestion")
    pcr: Dict[str, Dict[str, float]] = {}
    all_scores: Dict[str, List[bool]] = {"stronger": [], "cross-link": []}
    for scenario in scenarios:
        rows = _wild_metrics(
            n_runs_per_scenario,
            seed + zlib.crc32(scenario.encode()) % 1000,
            deltas=(), scenario=scenario, backend=backend)
        pcr[scenario] = {}
        for name in ("stronger", "cross-link"):
            poors = [bool(row["poor"][name]) for row in rows]
            pcr[scenario][name] = 100.0 * float(np.mean(poors))
            all_scores[name].extend(poors)
    overall = {name: 100.0 * float(np.mean(vals))
               for name, vals in all_scores.items()}
    return Figure6Result(pcr=pcr, overall=overall,
                         raw_poors=all_scores)
