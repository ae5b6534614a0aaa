"""Section 3's measurement studies, rebuilt as synthetic-population
simulations.

* :mod:`repro.studies.provider` — a year of rated calls from a large VoIP
  service and the Table 1 subset analysis (EE/EW/WW relative PCR deltas).
* :mod:`repro.studies.nettest`  — the 274-user / 9224-call NetTest
  distributed testbed and the Table 2 per-category PCR breakdown.
* :mod:`repro.studies.scan`     — the BSSID availability site survey
  behind Figure 1.
"""

from repro.studies.provider import (
    ProviderDataset,
    Table1Row,
    analyze_table1,
)
from repro.studies.nettest import NetTestDataset, run_nettest_study
from repro.studies.scan import SurveyLocation, run_site_survey

__all__ = [
    "NetTestDataset",
    "ProviderDataset",
    "SurveyLocation",
    "Table1Row",
    "analyze_table1",
    "run_nettest_study",
    "run_site_survey",
]
