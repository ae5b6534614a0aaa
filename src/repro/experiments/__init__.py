"""Experiment drivers: one entry point per paper table/figure.

Each driver returns a structured result object with a ``render()`` string
that prints the same rows/series the paper reports.  The benchmark suite
(`benchmarks/`) calls these with reduced run counts by default; pass the
paper's full counts to reproduce at publication scale.

Index (see DESIGN.md for the full mapping):

* :mod:`repro.experiments.section3` — Table 1, Table 2, Figure 1.
* :mod:`repro.experiments.section4` — Figures 2a–2e, 3, 4, 5, 6.
* :mod:`repro.experiments.section6` — Figures 8, 9, 10, the Section 6.3
  overhead numbers, Table 3, and the Section 6.4 scalability sweep.
"""

from repro.experiments.section3 import (
    run_figure1,
    run_table1,
    run_table2,
)
from repro.experiments.section4 import (
    run_figure2a,
    run_figure2b,
    run_figure2c,
    run_figure2d,
    run_figure2e,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
)
from repro.experiments.section6 import (
    run_figure8,
    run_figure9,
    run_figure10,
    run_section63_overhead,
    run_section64_scalability,
    run_table3,
)

__all__ = [
    "run_figure1",
    "run_figure2a",
    "run_figure2b",
    "run_figure2c",
    "run_figure2d",
    "run_figure2e",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_figure8",
    "run_figure9",
    "run_figure10",
    "run_section63_overhead",
    "run_section64_scalability",
    "run_table1",
    "run_table2",
    "run_table3",
]
