"""Section 3 drivers: Table 1, Table 2, Figure 1.

Each artifact's unit of work is a module-level task function
(:func:`table1_metrics`, :func:`table2_metrics`, :func:`figure1_metrics`)
executed through :mod:`repro.runner`, matching the Section 4-6 drivers:
the studies parallelize with ``--jobs``, cache per seed/config, and the
CLI prints the runner telemetry footer for them.  The task payloads are
plain JSON (lists and scalars); the drivers rebuild the result
dataclasses from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.runner import map_task
from repro.studies.nettest import (
    NetTestCall,
    NetTestDataset,
    run_nettest_study,
)
from repro.studies.population import (
    NetTestPopulationTables,
    ProviderPopulationTables,
    nettest_population_study,
    provider_population_study,
    synthesize_provider_year,
)
from repro.studies.provider import Table1Row, analyze_table1
from repro.studies.scan import (
    SURVEY_LOCATIONS,
    SurveyLocation,
    residential_multi_bssid_fraction,
    run_site_survey,
)

#: runner entry points for the Section 3 studies
TABLE1_TASK = "repro.experiments.section3:table1_metrics"
TABLE2_TASK = "repro.experiments.section3:table2_metrics"
FIGURE1_TASK = "repro.experiments.section3:figure1_metrics"


# ---------------------------------------------------------------------------
# per-seed tasks (the repro.runner units of work)

def table1_metrics(seed: int, *, n_calls: int = 200_000) -> Dict[str, Any]:
    """Synthesize one provider year and run the subset analysis."""
    dataset = synthesize_provider_year(n_calls=n_calls, seed=seed)
    return {
        "rows": [[row.label, float(row.delta_ee_pct),
                  float(row.delta_ew_pct), float(row.delta_ww_pct),
                  int(row.n_calls)]
                 for row in analyze_table1(dataset)],
        "overall_pcr": float(dataset.pcr()),
        "n_rated_calls": len(dataset.calls),
    }


def table2_metrics(seed: int, *, scale: float = 1.0) -> Dict[str, Any]:
    """One full NetTest study; the raw scored calls are the payload.

    Every Table 2 aggregate (category PCRs, per-user spatial stats) is a
    pure function of the call list, so shipping the calls keeps the task
    re-usable for any downstream cut without growing the cache key.
    """
    dataset = run_nettest_study(seed=seed, scale=scale)
    return {"calls": [[call.category, int(call.client_a),
                       int(call.client_b), float(call.mos)]
                      for call in dataset.calls]}


def figure1_metrics(seed: int) -> Dict[str, Any]:
    """The site survey plus the residential availability check.

    Counts are keyed by position: ``run_site_survey`` scans
    ``SURVEY_LOCATIONS`` in order, so the driver zips the counts back
    onto the location metadata.
    """
    survey = run_site_survey(seed=seed)
    return {
        "counts": [[int(scan.n_bssids), int(scan.n_channels)]
                   for _, scan in survey],
        "residential_multi_fraction": float(
            residential_multi_bssid_fraction(seed=seed)),
    }


# ----------------------------------------------------------------- Table 1

@dataclass
class Table1Result:
    """Relative PCR deltas (Table 1) from the synthetic provider year."""

    rows: List[Table1Row]
    overall_pcr: float
    n_rated_calls: int

    def render(self) -> str:
        table_rows = [
            [row.label, f"{row.delta_ee_pct:+.1f}%",
             f"{row.delta_ew_pct:+.1f}%", f"{row.delta_ww_pct:+.1f}%",
             row.n_calls]
            for row in self.rows]
        return render_table(
            "Table 1: change in PCR relative to the baseline "
            "(+ = better, - = worse)",
            ["Subset", "EE", "EW", "WW", "#calls"], table_rows)


def run_table1(n_calls: int = 200_000, seed: int = 0) -> Table1Result:
    """Synthesize the provider year and run the subset analysis."""
    (payload,) = map_task(TABLE1_TASK, [seed], {"n_calls": n_calls})
    return Table1Result(
        rows=[Table1Row(label=label, delta_ee_pct=ee, delta_ew_pct=ew,
                        delta_ww_pct=ww, n_calls=n)
              for label, ee, ew, ww, n in payload["rows"]],
        overall_pcr=payload["overall_pcr"],
        n_rated_calls=payload["n_rated_calls"])


# ----------------------------------------------------------------- Table 2

@dataclass
class Table2Result:
    """Per-category PCR for the NetTest study (Table 2)."""

    dataset: NetTestDataset
    frac_users_any_poor: float
    frac_users_pcr20: float

    def render(self) -> str:
        rows = [[cat, n, f"{pcr:.2f}"]
                for cat, n, pcr in self.dataset.table2()]
        table = render_table(
            "Table 2: poor call rates by call category",
            ["Call Type", "Total Calls", "PCR (%)"], rows)
        return (f"{table}\n"
                f"users with >=1 poor call: "
                f"{self.frac_users_any_poor * 100:.1f}%  "
                f"(paper: 57.9%)\n"
                f"users with PCR >= 20%:    "
                f"{self.frac_users_pcr20 * 100:.1f}%  (paper: 16.3%)")


def run_table2(seed: int = 0, scale: float = 1.0) -> Table2Result:
    """Simulate the NetTest study (9224 calls at scale=1)."""
    (payload,) = map_task(TABLE2_TASK, [seed], {"scale": scale})
    dataset = NetTestDataset(calls=[
        NetTestCall(category=category, client_a=a, client_b=b, mos=mos)
        for category, a, b, mos in payload["calls"]])
    frac_any, frac_20 = dataset.spatial_stats()
    return Table2Result(dataset=dataset,
                        frac_users_any_poor=frac_any,
                        frac_users_pcr20=frac_20)


# ---------------------------------------------------------------- Figure 1

@dataclass
class Figure1Result:
    """Per-location BSSID/channel counts (Figure 1's bars and dashes)."""

    locations: List[Tuple[SurveyLocation, int, int]]
    residential_multi_fraction: float

    @property
    def bssid_counts(self) -> List[int]:
        return [b for _, b, _ in self.locations]

    @property
    def channel_counts(self) -> List[int]:
        return [c for _, _, c in self.locations]

    def render(self) -> str:
        rows = [[loc.label, loc.city, bssids, channels]
                for loc, bssids, channels in self.locations]
        table = render_table(
            "Figure 1: connectable BSSIDs (bars) and distinct channels "
            "(dashes) per location",
            ["Location", "City", "#BSSIDs", "#channels"], rows)
        b, c = self.bssid_counts, self.channel_counts
        return (f"{table}\n"
                f"BSSIDs: median={int(np.median(b))} "
                f"range={min(b)}-{max(b)}  (paper: 6, 2-13)\n"
                f"channels: median={int(np.median(c))} "
                f"range={min(c)}-{max(c)}  (paper: 4, 2-9)\n"
                f"residential clients with >1 BSSID: "
                f"{self.residential_multi_fraction * 100:.0f}%  "
                f"(paper: ~30%)")


def run_figure1(seed: int = 0) -> Figure1Result:
    """Run the site survey and the residential availability check."""
    (payload,) = map_task(FIGURE1_TASK, [seed])
    return Figure1Result(
        locations=[(loc, bssids, channels)
                   for loc, (bssids, channels)
                   in zip(SURVEY_LOCATIONS, payload["counts"])],
        residential_multi_fraction=payload["residential_multi_fraction"])


# ------------------------------------------- whole-population backends

@dataclass
class ProviderPopulationResult:
    """Table 1 at population scale (streaming sketches, no call list)."""

    tables: ProviderPopulationTables

    def render(self) -> str:
        t = self.tables
        rows = [[row.label, f"{row.delta_ee_pct:+.1f}%",
                 f"{row.delta_ew_pct:+.1f}%", f"{row.delta_ww_pct:+.1f}%",
                 row.n_calls]
                for row in t.rows]
        table = render_table(
            "Table 1 (population backend): change in PCR relative to "
            "the baseline (+ = better, - = worse)",
            ["Subset", "EE", "EW", "WW", "#calls"], rows)
        lo, hi = t.pcr_wilson
        mos = t.mos_moments
        return (f"{table}\n"
                f"calls generated: {t.n_calls:,}  "
                f"rated: {t.n_rated_calls:,}\n"
                f"overall PCR: {t.overall_pcr * 100:.2f}%  "
                f"(95% Wilson: {lo * 100:.2f}-{hi * 100:.2f}%)\n"
                f"rated-call MOS: mean={mos.mean:.3f} "
                f"sd={mos.stddev:.3f}  "
                f"p10/p50/p90={t.mos_cdf.quantile(0.10):.2f}/"
                f"{t.mos_cdf.quantile(0.50):.2f}/"
                f"{t.mos_cdf.quantile(0.90):.2f} "
                f"(grid resolution {t.mos_cdf.bin_width:.3f})")


def run_provider_population(n_calls: int = 1_000_000,
                            seed: int = 0) -> ProviderPopulationResult:
    """The provider study at population scale (``repro provider``)."""
    return ProviderPopulationResult(
        tables=provider_population_study(n_calls=n_calls, seed=seed))


@dataclass
class NetTestPopulationResult:
    """Table 2 at population scale (runner-sharded blocks)."""

    tables: NetTestPopulationTables

    def render(self) -> str:
        t = self.tables
        rows = [[category, n, f"{pcr:.2f}"] for category, n, pcr in t.rows]
        table = render_table(
            "Table 2 (population backend): poor call rates by call "
            "category", ["Call Type", "Total Calls", "PCR (%)"], rows)
        lo, hi = t.pcr_wilson
        mos = t.mos_moments
        return (f"{table}\n"
                f"overall PCR: {t.overall_pcr * 100:.2f}%  "
                f"(95% Wilson: {lo * 100:.2f}-{hi * 100:.2f}%)\n"
                f"users with >=1 poor call: "
                f"{t.frac_users_any_poor * 100:.1f}%  (paper: 57.9%)\n"
                f"users with PCR >= 20%:    "
                f"{t.frac_users_pcr20 * 100:.1f}%  (paper: 16.3%)\n"
                f"call MOS: mean={mos.mean:.3f} sd={mos.stddev:.3f}  "
                f"p10/p50/p90={t.mos_cdf.quantile(0.10):.2f}/"
                f"{t.mos_cdf.quantile(0.50):.2f}/"
                f"{t.mos_cdf.quantile(0.90):.2f}")


def run_nettest_population(seed: int = 0, scale: float = 1.0
                           ) -> NetTestPopulationResult:
    """The NetTest study sharded over runner blocks (``repro nettest``)."""
    return NetTestPopulationResult(
        tables=nettest_population_study(seed=seed, scale=scale))
