"""Robustness ablations of the Table 1 synthetic-population analysis.

The Table 1 pipeline must not owe its signs to modelling artifacts:

1. **Response bias off** — the paper worries users rate more readily
   after bad calls; the EE/WW ordering must survive removing that bias.
2. **Device penalty off** — with perfect hardware everywhere, the WiFi
   gap must *remain* (it is a network effect), while the PC-subset row
   stops differing from the full population.
"""

from conftest import scaled

from repro.studies.population import provider_population_study


def rows_with(n_calls, seed=0, **overrides):
    return provider_population_study(n_calls, seed, **overrides).rows


def test_ablation_response_bias(benchmark):
    n = scaled(80_000, 250_000)

    def run():
        biased = rows_with(n)
        unbiased = rows_with(n, response_bias=False)
        return biased, unbiased

    biased, unbiased = benchmark.pedantic(run, rounds=1, iterations=1)
    for rows, label in ((biased, "biased"), (unbiased, "unbiased")):
        row1 = rows[0]
        print(f"\n{label}: EE {row1.delta_ee_pct:+.1f} / "
              f"EW {row1.delta_ew_pct:+.1f} / WW {row1.delta_ww_pct:+.1f}")
        # The WiFi gap is not an artifact of who chooses to rate.
        assert row1.delta_ee_pct > 0
        assert row1.delta_ww_pct < 0


def test_ablation_device_penalty(benchmark):
    n = scaled(80_000, 250_000)

    def run():
        normal = rows_with(n)
        no_device = rows_with(n, device_penalty_scale=1e-6)
        return normal, no_device

    normal, no_device = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nwith device effect:    row1 WW "
          f"{normal[0].delta_ww_pct:+.1f}%, PC row EE "
          f"{normal[2].delta_ee_pct:+.1f}%")
    print(f"without device effect: row1 WW "
          f"{no_device[0].delta_ww_pct:+.1f}%, PC row EE "
          f"{no_device[2].delta_ee_pct:+.1f}%")

    # The WiFi gap is a *network* effect: it survives perfect hardware.
    assert no_device[0].delta_ee_pct > 0
    assert no_device[0].delta_ww_pct < 0
    # Without a device effect the PC control stops buying improvement
    # over the full population (rows converge).
    gap_with = abs(normal[2].delta_ee_pct - normal[0].delta_ee_pct)
    gap_without = abs(no_device[2].delta_ee_pct
                      - no_device[0].delta_ee_pct)
    assert gap_without <= gap_with + 3.0


def test_ablation_wifi_penalty_scaling(benchmark):
    """The EE-vs-WW gap must scale with the injected WiFi impairment —
    the dial the whole synthesis turns on."""
    n = scaled(60_000, 200_000)

    def run():
        gaps = {}
        for wifi_median in (0.001, 0.005, 0.015):
            rows = rows_with(n, wifi_loss_median=wifi_median)
            gaps[wifi_median] = (rows[0].delta_ee_pct
                                 - rows[0].delta_ww_pct)
        return gaps

    gaps = benchmark.pedantic(run, rounds=1, iterations=1)
    print("")
    for median, gap in gaps.items():
        print(f"wifi loss median {median * 100:.1f}%: EE-WW gap "
              f"{gap:.1f} points")
    values = [gaps[k] for k in sorted(gaps)]
    assert values[0] < values[-1]
