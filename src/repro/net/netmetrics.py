"""Per-port statistics and rolling link metrics for the control plane.

The controller's view of the network is the classic SDN one: it never
sees individual packets, only *port counters* polled on an interval
(loss, delay, queue depth — the stats OpenFlow ``port_stats`` replies
carry).  This module provides the two halves of that view:

* :class:`PortStats` — cumulative counters a data-plane element (the
  AP radio egress, a wired hop) increments as packets pass;
* :class:`RollingLinkMetrics` — the controller-side rolling estimate,
  fed with per-poll counter deltas and smoothed with an EWMA so one
  quiet interval does not erase the memory of a bad link.

The QoE scorer maps a link's rolling (loss, delay) into an E-model MOS
(:meth:`RollingLinkMetrics.mos`) — the same G.107 machinery :mod:`repro.voice.quality`
uses to score whole calls, so a controller decision threshold and a
call's final score speak the same units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.voice.quality import emodel_r_factor, r_to_mos


@dataclass
class PortStats:
    """Cumulative counters for one data-plane port.

    ``sent``/``delivered``/``delay_sum_s`` cover every transmission the
    port carried (data and probes alike — the controller estimates the
    *link*, not the flow); ``data_sent`` counts only flow packets, so
    bandwidth-cost accounting can exclude probe overhead.
    """

    sent: int = 0
    delivered: int = 0
    delay_sum_s: float = 0.0
    data_sent: int = 0
    queue_depth: int = 0

    def record(self, delivered: bool, delay_s: float,
               data: bool = True) -> None:
        """Account one transmission outcome."""
        self.sent += 1
        if data:
            self.data_sent += 1
        if delivered:
            self.delivered += 1
            self.delay_sum_s += delay_s

    def counters(self) -> Tuple[int, int, float]:
        """The cumulative (sent, delivered, delay_sum_s) triple."""
        return (self.sent, self.delivered, self.delay_sum_s)


@dataclass
class PortSample:
    """One poll's counter delta for a port (what the controller sees)."""

    sent: int
    delivered: int
    delay_sum_s: float
    queue_depth: int

    @property
    def loss_rate(self) -> float:
        """Window loss fraction (0.0 when the window carried nothing)."""
        if self.sent == 0:
            return 0.0
        return 1.0 - self.delivered / self.sent

    @property
    def mean_delay_s(self) -> float:
        """Window mean one-way delay over delivered packets."""
        if self.delivered == 0:
            return 0.0
        return self.delay_sum_s / self.delivered


class PortStatsReader:
    """Delta extraction for one port: cumulative counters -> per-poll
    :class:`PortSample`.  Keeps the last-read counters so every poll
    sees exactly the window since the previous one."""

    def __init__(self, stats: PortStats):
        self._stats = stats
        self._last: Tuple[int, int, float] = (0, 0, 0.0)

    def poll(self) -> PortSample:
        """The counter delta since the previous :meth:`poll`."""
        current = self._stats.counters()
        sent = current[0] - self._last[0]
        delivered = current[1] - self._last[1]
        delay_sum = current[2] - self._last[2]
        self._last = current
        return PortSample(sent=sent, delivered=delivered,
                          delay_sum_s=delay_sum,
                          queue_depth=self._stats.queue_depth)


@dataclass
class RollingLinkMetrics:
    """EWMA-smoothed rolling estimate of one link's loss and delay.

    ``alpha`` weights the newest window; an empty window (no packets
    carried, no probes answered) leaves the estimate untouched rather
    than pulling it toward zero — silence is not evidence of health.
    """

    alpha: float = 0.4
    loss_rate: float = 0.0
    mean_delay_s: float = 0.0
    queue_depth: int = 0
    samples: int = field(default=0)

    def update(self, sample: PortSample) -> None:
        """Fold one poll window into the rolling estimate."""
        self.queue_depth = sample.queue_depth
        if sample.sent == 0:
            return
        if self.samples == 0:
            self.loss_rate = sample.loss_rate
            self.mean_delay_s = sample.mean_delay_s
        else:
            self.loss_rate += self.alpha * (sample.loss_rate
                                            - self.loss_rate)
            if sample.delivered > 0:
                self.mean_delay_s += self.alpha * (sample.mean_delay_s
                                                   - self.mean_delay_s)
        self.samples += 1

    def mos(self, extra_one_way_delay_s: float = 0.05) -> float:
        """E-model MOS of this link's rolling loss and one-way delay.

        The same G.107 R-factor the voice pipeline scores calls with
        (:mod:`repro.voice.quality`), at random-loss burstiness since
        poll counters carry no burst structure.
        """
        return r_to_mos(emodel_r_factor(
            self.loss_rate, self.mean_delay_s + extra_one_way_delay_s))
