"""Section 3 drivers: Table 1, Table 2, Figure 1.

Tables 1 and 2 run on the whole-population studies of
:mod:`repro.studies.population`: the provider year and the NetTest
deployment are sharded into runner blocks (parallel with ``--jobs``,
cached per block) and reduced to streaming sketches, so every
``population.*`` counter reaches ``--metrics-out``.  Figure 1's unit of
work is the module-level task :func:`figure1_metrics`, executed through
:mod:`repro.runner` like the Section 4-6 drivers; its payload is plain
JSON that the driver rebuilds the result dataclass from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.analysis.report import render_table
from repro.analysis.sketch import GridCdf, MomentSketch
from repro.runner import map_task
from repro.studies.population import (
    NetTestPopulationTables,
    ProviderPopulationTables,
    nettest_population_study,
    provider_population_study,
)
from repro.studies.scan import (
    SURVEY_LOCATIONS,
    SurveyLocation,
    residential_multi_bssid_fraction,
    run_site_survey,
)

#: runner entry point for the Figure 1 site survey
FIGURE1_TASK = "repro.experiments.section3:figure1_metrics"


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


def _mos_moments(mos: MomentSketch) -> str:
    """``mean=... sd=...``; an empty sketch keeps mean=0.0, outside
    MOS's range [1, 4.5], so its mean reads nan like its spread."""
    mean = mos.mean if mos.count else float("nan")
    return f"mean={mean:.3f} sd={mos.stddev:.3f}"


def _mos_quantiles(cdf: GridCdf) -> str:
    return (f"p10/p50/p90={cdf.quantile(0.10):.2f}/"
            f"{cdf.quantile(0.50):.2f}/{cdf.quantile(0.90):.2f}")


# ----------------------------------------------------------------- Table 1

@dataclass
class Table1Result:
    """Relative PCR deltas (Table 1) from the synthetic provider year."""

    tables: ProviderPopulationTables

    def render(self) -> str:
        t = self.tables
        rows = [[row.label, f"{row.delta_ee_pct:+.1f}%",
                 f"{row.delta_ew_pct:+.1f}%", f"{row.delta_ww_pct:+.1f}%",
                 row.n_calls]
                for row in t.rows]
        table = render_table(
            "Table 1: change in PCR relative to the baseline "
            "(+ = better, - = worse)",
            ["Subset", "EE", "EW", "WW", "#calls"], rows)
        lo, hi = t.pcr_wilson
        return (f"{table}\n"
                f"calls generated: {t.n_calls:,}  "
                f"rated: {t.n_rated_calls:,}\n"
                f"overall PCR: {t.overall_pcr * 100:.2f}%  "
                f"(95% Wilson: {lo * 100:.2f}-{hi * 100:.2f}%)\n"
                f"rated-call MOS: {_mos_moments(t.mos_moments)}  "
                f"{_mos_quantiles(t.mos_cdf)} "
                f"(grid resolution {t.mos_cdf.bin_width:.3f})")


def run_table1(n_calls: int = 200_000, seed: int = 0) -> Table1Result:
    """Synthesize the provider year and run the subset analysis."""
    return Table1Result(
        tables=provider_population_study(n_calls=n_calls, seed=seed))


# ----------------------------------------------------------------- Table 2

@dataclass
class Table2Result:
    """Per-category PCR for the NetTest study (Table 2)."""

    tables: NetTestPopulationTables

    def render(self) -> str:
        t = self.tables
        rows = [[category, n, f"{pcr:.2f}"] for category, n, pcr in t.rows]
        table = render_table(
            "Table 2: poor call rates by call category",
            ["Call Type", "Total Calls", "PCR (%)"], rows)
        lo, hi = t.pcr_wilson
        return (f"{table}\n"
                f"overall PCR: {t.overall_pcr * 100:.2f}%  "
                f"(95% Wilson: {lo * 100:.2f}-{hi * 100:.2f}%)\n"
                f"users with >=1 poor call: "
                f"{t.frac_users_any_poor * 100:.1f}%  (paper: 57.9%)\n"
                f"users with PCR >= 20%:    "
                f"{t.frac_users_pcr20 * 100:.1f}%  (paper: 16.3%)\n"
                f"call MOS: {_mos_moments(t.mos_moments)}  "
                f"{_mos_quantiles(t.mos_cdf)}")


def run_table2(seed: int = 0, scale: float = 1.0) -> Table2Result:
    """Simulate the NetTest study (9224 calls at scale=1)."""
    return Table2Result(
        tables=nettest_population_study(seed=seed, scale=scale))


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
