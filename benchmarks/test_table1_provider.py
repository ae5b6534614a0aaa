"""Table 1: relative PCR deltas from the provider-year analysis.

Paper: EE +27.7%, EW +1.6%, WW -18.4% (row 1), improving to
EE +36.6%, EW +15.1%, WW -3.1% under the PC + balanced-subnet controls.
Shape checks: EE best / WW worst in the full population; the EE-vs-WW gap
survives every control.
"""

from conftest import scaled

from repro.experiments.section3 import run_table1


def test_table1_provider(benchmark):
    result = benchmark.pedantic(
        run_table1,
        kwargs={"n_calls": scaled(120_000, 400_000), "seed": 0},
        rounds=1, iterations=1)
    print("\n" + result.render())

    row1 = result.tables.rows[0]
    assert row1.delta_ee_pct > 0          # Ethernet-both beats baseline
    assert row1.delta_ww_pct < 0          # WiFi-both trails baseline
    assert row1.delta_ee_pct > row1.delta_ew_pct > row1.delta_ww_pct
    # The WiFi gap persists under every control (paper: ~40% relative).
    for row in result.tables.rows:
        assert row.delta_ee_pct - row.delta_ww_pct > 10.0
