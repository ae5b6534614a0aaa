#!/usr/bin/env python3
"""The Section 3 measurement studies, end to end.

Regenerates (at reduced scale — pass --full for paper scale):

* Table 1 — is WiFi a significant cause of poor calls in a year of
  provider data?  (Subset analysis over EE/EW/WW call categories.)
* Table 2 — the NetTest distributed testbed: 9224 simulated calls
  between 274 WiFi clients and 10 Azure nodes, direct and relayed.
* Figure 1 — how many connectable BSSIDs/channels a client sees at
  enterprise and public venues.

Run:  python examples/measurement_studies.py [--full]
"""

import sys

from repro.experiments.section3 import run_figure1, run_table1, run_table2


def main():
    full = "--full" in sys.argv

    print("=" * 70)
    result1 = run_table1(n_calls=400_000 if full else 100_000)
    print(result1.render())

    print("\n" + "=" * 70)
    result2 = run_table2(scale=1.0 if full else 0.2)
    print(result2.render())

    print("\n" + "=" * 70)
    result3 = run_figure1()
    print(result3.render())


if __name__ == "__main__":
    main()
