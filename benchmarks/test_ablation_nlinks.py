"""Ablation: how many links are worth hedging across?

Figure 1 shows a median of 6 connectable BSSIDs; the paper hedges across
two.  This sweep quantifies the diminishing returns: the second link buys
most of the diversity gain, the third and fourth add progressively less —
supporting the paper's primary+secondary design point.

Also places the make-before-break handoff baseline ([19]) between pure
selection and replication.
"""

import numpy as np

from conftest import scaled

from repro.analysis.windows import worst_window_loss
from repro.channel.gilbert import GilbertParams
from repro.channel.link import LinkConfig, WifiLink
from repro.channel.mobility import Position, StaticPosition
from repro.core.config import StreamProfile
from repro.core.multilink import (
    diversity_gain_curve,
    make_before_break,
    render_multilink_run,
)
from repro.sim.random import RandomRouter

PROFILE = StreamProfile(duration_s=60.0)
N_LINKS = 4


def build_links(seed):
    """Four candidate links: the two 2.4 GHz ones (strongest RSSI) share
    band-wide interference, the 5 GHz ones are independent but weaker —
    so the sweep has real structure: the 2nd link is partially
    correlated with the 1st, the 3rd brings a fresh band."""
    from repro.channel.interference import MicrowaveOven
    router = RandomRouter(seed)
    client = StaticPosition(Position(0, 0))
    rng = router.stream("params")
    shared_24 = MicrowaveOven(
        router.stream("oven"),
        episode_rate_hz=1.0 / 40.0, episode_duration_s=25.0,
        penalty_db=30.0, floor_penalty_db=14.0)
    links = []
    for i in range(N_LINKS):
        on_24ghz = i < 2
        bad_frac = float(np.exp(rng.normal(np.log(0.02), 0.8)))
        mean_bad = float(rng.uniform(0.2, 0.8))
        mean_good = mean_bad * (1 - bad_frac) / max(bad_frac, 1e-4)
        distance = 4.0 + 4 * i   # RSSI ordering: 2.4 GHz links first
        links.append(WifiLink(
            LinkConfig(
                name=f"ap{i}", channel=(1 + 5 * i) if on_24ghz else 36 + i,
                band="2.4GHz" if on_24ghz else "5GHz",
                ap_position=Position(distance, float(i)),
                gilbert=GilbertParams(mean_good_s=mean_good,
                                      mean_bad_s=mean_bad,
                                      loss_good=0.0,
                                      loss_bad=float(rng.uniform(0.9, 1.0))),
                base_delay_s=0.0),
            router, mobility=client,
            interference=shared_24 if on_24ghz else None))
    return links


def test_ablation_number_of_links(benchmark):
    n_runs = scaled(10, 30)

    def run():
        runs = [render_multilink_run(build_links(seed), PROFILE)
                for seed in range(n_runs)]
        curve = diversity_gain_curve(
            runs, metric=lambda t: 100 * worst_window_loss(t))
        mbb = float(np.mean(
            [100 * worst_window_loss(make_before_break(r))
             for r in runs]))
        return curve, mbb

    curve, mbb = benchmark.pedantic(run, rounds=1, iterations=1)
    print("")
    for k in sorted(curve):
        print(f"  {k} link(s): mean worst-5s loss {curve[k]:6.2f}%")
    print(f"  make-before-break (1 active): {mbb:6.2f}%")

    # Monotone improvement with diminishing returns.
    assert curve[2] < curve[1]
    assert curve[1] - curve[2] >= curve[3] - curve[4] - 0.2
    # The second link captures the majority of the total diversity gain.
    total_gain = curve[1] - curve[N_LINKS]
    assert curve[1] - curve[2] > 0.5 * total_gain
    # Handoff helps but replication with the same two links helps more.
    assert curve[2] < mbb + 0.2

