"""Figure 6's improvement interval, scored with the G.711 E-model."""

from repro.experiments.section4 import run_figure6


def test_figure6_ci_present_when_poor_calls_exist():
    result = run_figure6(n_runs_per_scenario=4, seed=3)
    rendered = result.render()
    assert "overall improvement" in rendered
    # raw indicators captured for the bootstrap
    assert set(result.raw_poors) == {"stronger", "cross-link"}
    interval = result.improvement_interval()
    if interval is not None:
        assert interval.low <= result.improvement_factor() * 1.5
