"""Table 2: NetTest PCR by call category.

Paper: EW 5.22%, WW 7.98%, EW-Relayed 42.11%, WW-Relayed 62.66%,
overall 10.23%; 57.9% of users saw >= 1 poor call, 16.3% had PCR >= 20%.
Shape checks: WW > EW (the ~50% relative WiFi-vs-Azure gap), relayed
categories dramatically worse, overall PCR near 10%.
"""

from conftest import scaled

from repro.experiments.section3 import run_table2


def test_table2_nettest(benchmark):
    result = benchmark.pedantic(
        run_table2,
        kwargs={"seed": 0, "scale": 1.0 if scaled(0, 1) else 0.25},
        rounds=1, iterations=1)
    print("\n" + result.render())

    tables = result.tables
    pcr = {category: pct for category, _, pct in tables.rows}
    assert pcr["WW"] > pcr["EW"]
    assert pcr["EW-Relayed"] > 3 * pcr["EW"]
    assert pcr["WW-Relayed"] > 3 * pcr["WW"]
    assert 0.05 < tables.overall_pcr < 0.22   # paper: 10.23%
    assert tables.frac_users_any_poor > 0.3
