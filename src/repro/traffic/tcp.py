"""A Reno-style TCP source: the competing iperf flow of Figure 10.

The model captures what matters for the coexistence experiment: an
ACK-clocked window protocol whose throughput tracks the availability of
the client's default (DEF) link.  When the DiversiFi NIC is off-channel
(switched to the secondary), the AP cannot deliver to the client, the ACK
clock stalls, and throughput dips — the effect the paper measures at an
average of 2.5%.

Mechanics implemented: slow start, congestion avoidance, fast retransmit
on 3 duplicate ACKs (with window halving), retransmission timeout with
window collapse, a finite tail-drop bottleneck queue at the AP, and
residual wireless loss.  Retransmission is go-back-N from the last
cumulative ACK, which is accurate enough at this queue depth.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.random import BufferedDraws

#: bottleneck rate of the DEF link as the iperf flow sees it
CAPACITY_BPS = 4.6e6
#: wired round trip behind the AP
BASE_RTT_S = 0.020
MSS_BYTES = 1460
#: tail-drop bottleneck queue at the AP, in segments
QUEUE_LIMIT = 64
RTO_S = 0.200
#: time one segment takes through the bottleneck
SERVICE_S = MSS_BYTES * 8.0 / CAPACITY_BPS


@dataclass
class TcpStats:
    """Outcome of one TCP run."""

    bytes_acked: int = 0
    segments_sent: int = 0
    retransmits: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    queue_drops: int = 0
    wireless_drops: int = 0
    duration_s: float = 0.0

    @property
    def throughput_bps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_acked * 8.0 / self.duration_s

    @property
    def throughput_mbps(self) -> float:
        return self.throughput_bps / 1e6


class TcpReno:
    """A greedy Reno sender over the client's DEF WiFi link.

    ``wireless_loss_prob`` is a probability or a callable returning the
    probability at the current time; ``rng`` must be the sender's own
    stream, because its loss coin is drawn from prefetched blocks.
    """

    def __init__(self, sim: Simulator, rng: np.random.Generator,
                 duration_s: float = 120.0,
                 radio_present=lambda: True,
                 wireless_loss_prob=0.002):
        self.sim = sim
        self._draws = BufferedDraws(rng)
        self.duration_s = duration_s
        self.radio_present = radio_present
        if callable(wireless_loss_prob):
            self._loss_prob = wireless_loss_prob
        else:
            loss_prob = float(wireless_loss_prob)
            self._loss_prob = lambda: loss_prob
        self.stats = TcpStats(duration_s=duration_s)

        self._cwnd = 2.0            # segments
        self._ssthresh = 64.0
        self._next_seq = 0          # next new segment to queue
        self._snd_una = 0           # lowest unacked
        self._dup_acks = 0
        self._queue: deque = deque()
        self._serving = False
        self._end_time = 0.0
        self._rto_event = None
        self._started = False
        self._in_recovery_until = -1

    # ------------------------------------------------------------------

    # tests observe slow-start growth; no public field has the window
    @property
    def cwnd_segments(self) -> float:  # reproflow: disable=RCH602
        return self._cwnd

    def start(self, start_time: float = 0.0) -> None:
        if self._started:
            raise RuntimeError("TCP source already started")
        self._started = True
        self._end_time = start_time + self.duration_s
        self.sim.call_at(start_time, self._pump)
        self._arm_rto()

    # ------------------------------------------------------------------
    # sending

    def _in_flight(self) -> int:
        return self._next_seq - self._snd_una

    def _pump(self) -> None:
        """Queue new segments while the window allows."""
        if self.sim.now >= self._end_time:
            return
        window = int(self._cwnd)
        snd_una = self._snd_una
        queue = self._queue
        first = next_seq = self._next_seq
        while next_seq - snd_una < window and len(queue) < QUEUE_LIMIT:
            queue.append(next_seq)
            next_seq += 1
        self._next_seq = next_seq
        self.stats.segments_sent += next_seq - first
        if next_seq - snd_una < window and len(queue) >= QUEUE_LIMIT:
            # Window wants more than the queue can hold: tail drop.  The
            # sender notices via dup-acks later; model by capping.
            self.stats.queue_drops += 1
        self._kick_service()

    def _kick_service(self) -> None:
        if not self._serving and self._queue:
            self._serving = True
            self.sim.call_in(0.0, self._serve)

    # The per-segment timers below use call_at(now + delay), the time
    # call_in(delay) would compute, without call_in's extra frame.

    def _serve(self) -> None:
        if not self._queue:
            self._serving = False
            return
        sim = self.sim
        now = sim.now
        if now >= self._end_time:
            self._serving = False
            return
        if not self.radio_present():
            # Client off-channel: the AP holds the frame; poll again soon.
            sim.call_in(0.001, self._serve)
            return
        seq = self._queue.popleft()
        served = now + SERVICE_S
        sim.call_at(served, self._delivered, seq)
        sim.call_at(served, self._serve)

    def _delivered(self, seq: int) -> None:
        if self._draws.random() < self._loss_prob():
            self.stats.wireless_drops += 1
            return  # receiver never sees it; dup-acks will follow
        sim = self.sim
        sim.call_at(sim.now + BASE_RTT_S / 2.0, self._ack_arrives, seq)

    # ------------------------------------------------------------------
    # ACK processing

    def _ack_arrives(self, seq: int) -> None:
        if seq < self._snd_una:
            return  # stale
        if seq == self._snd_una:
            cumulative_new = True
        else:
            # Out-of-order delivery relative to snd_una: receiver acks
            # cumulatively; a gap means duplicate ACKs.
            cumulative_new = False

        if cumulative_new:
            self._snd_una = seq + 1
            acked_bytes = MSS_BYTES
            self.stats.bytes_acked += acked_bytes
            self._dup_acks = 0
            if self._cwnd < self._ssthresh:
                self._cwnd += 1.0            # slow start
            else:
                self._cwnd += 1.0 / self._cwnd  # congestion avoidance
            self._arm_rto()
            self._pump()
        else:
            self._dup_acks += 1
            if (self._dup_acks >= 3
                    and self._snd_una > self._in_recovery_until):
                self._fast_retransmit()

    def _fast_retransmit(self) -> None:
        self.stats.fast_retransmits += 1
        self.stats.retransmits += 1
        self._ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = self._ssthresh
        self._dup_acks = 0
        self._in_recovery_until = self._next_seq
        # Go-back-N: rewind and resend from the hole.
        self._next_seq = self._snd_una
        self._queue.clear()
        self._pump()

    def _arm_rto(self) -> None:
        sim = self.sim
        if self._rto_event is not None:
            sim.cancel(self._rto_event)
        now = sim.now
        if now >= self._end_time:
            return
        self._rto_event = sim.call_at(now + RTO_S, self._rto_fired)

    def _rto_fired(self) -> None:
        if self.sim.now >= self._end_time:
            return
        if self._in_flight() == 0 and not self._queue:
            # Idle (window fully acked): nothing to recover.
            self._pump()
            self._arm_rto()
            return
        self.stats.timeouts += 1
        self.stats.retransmits += 1
        self._ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = 2.0
        self._dup_acks = 0
        self._next_seq = self._snd_una
        self._queue.clear()
        self._pump()
        self._arm_rto()
