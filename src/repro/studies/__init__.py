"""Section 3's measurement studies, rebuilt as synthetic-population
simulations.

* :mod:`repro.studies.provider`   — the population of rated calls from a
  large VoIP service and the Table 1 arithmetic (EE/EW/WW relative PCR
  deltas).
* :mod:`repro.studies.nettest`    — the 274-user / 9224-call NetTest
  distributed testbed behind Table 2's per-category PCR breakdown.
* :mod:`repro.studies.population` — both studies at population scale:
  vectorized block rendering, runner sharding and streaming sketches.
* :mod:`repro.studies.scan`       — the BSSID availability site survey
  behind Figure 1.
"""

from repro.studies.provider import Table1Row
from repro.studies.scan import SurveyLocation, run_site_survey

__all__ = [
    "SurveyLocation",
    "Table1Row",
    "run_site_survey",
]
