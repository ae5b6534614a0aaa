"""Alternatives to cross-link replication: FEC coding and cross-technology
hedging (the paper's related-work baselines and future-work direction).

1. **FEC ([36]-style)**: XOR parity on a single link pays a constant 1/k
   airtime overhead yet cannot recover burst losses — cross-link
   replication must dominate it on bursty channels.
2. **WiFi + LTE hedging** (Section 4.4's future work): a cellular
   secondary provides diversity against WiFi-wide impairments (e.g. a
   microwave oven hitting every 2.4 GHz link), at higher latency.
"""

import numpy as np

from conftest import scaled

from repro.analysis.windows import worst_window_loss
from repro.channel.cellular import CellularLink
from repro.core.config import StreamProfile
from repro.core.fec import FecConfig, apply_fec, render_fec_run
from repro.core.packet import merge_traces
from repro.scenarios import build_scenario
from repro.sim.random import RandomRouter

PROFILE = StreamProfile(duration_s=60.0)


def test_ablation_fec_vs_cross_link(benchmark):
    n = scaled(12, 40)

    def run():
        fec_worst, cross_worst, fec_loss, cross_loss = [], [], [], []
        root = RandomRouter(21)
        for i in range(n):
            router = root.fork(f"fec-{i}")
            link_a, link_b = build_scenario("weak_link", router)
            data, parity = render_fec_run(link_a, PROFILE)
            fec_trace = apply_fec(data, parity, FecConfig(block_size=5))
            cross = merge_traces([data, link_b.generate_trace(PROFILE)])
            fec_worst.append(100 * worst_window_loss(fec_trace))
            cross_worst.append(100 * worst_window_loss(cross))
            fec_loss.append(fec_trace.loss_rate * 100)
            cross_loss.append(cross.loss_rate * 100)
        return (np.mean(fec_worst), np.mean(cross_worst),
                np.mean(fec_loss), np.mean(cross_loss))

    fec_w, cross_w, fec_l, cross_l = benchmark.pedantic(
        run, rounds=1, iterations=1)
    print(f"\nFEC(k=5, +20% airtime): worst-5s {fec_w:.1f}%  "
          f"loss {fec_l:.2f}%")
    print(f"cross-link (0.6% dup):  worst-5s {cross_w:.1f}%  "
          f"loss {cross_l:.2f}%")

    # Cross-link beats FEC despite FEC's constant 20% overhead.
    assert cross_w < fec_w
    assert cross_l < fec_l


def test_ablation_cross_technology(benchmark):
    n = scaled(8, 25)

    def run():
        wifi_only, with_lte = [], []
        root = RandomRouter(22)
        for i in range(n):
            router = root.fork(f"xtech-{i}")
            # Microwave scenario: BOTH WiFi links share the oven's fate...
            link_a, link_b = build_scenario("microwave", router)
            lte = CellularLink(router)
            trace_a = link_a.generate_trace(PROFILE)
            trace_b = link_b.generate_trace(PROFILE)
            wifi_cross = merge_traces([trace_a, trace_b])
            xtech = merge_traces([trace_a, lte.generate_trace(PROFILE)])
            wifi_only.append(100 * worst_window_loss(wifi_cross))
            with_lte.append(100 * worst_window_loss(xtech))
        return np.mean(wifi_only), np.mean(with_lte)

    wifi_cross, xtech = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nWiFi+WiFi cross-link under microwave: worst-5s "
          f"{wifi_cross:.1f}%")
    print(f"WiFi+LTE  cross-tech under microwave: worst-5s {xtech:.1f}%")

    # The cellular secondary dodges the WiFi-wide impairment.
    assert xtech < wifi_cross + 0.5
