"""The DiversiFi single-NIC client — Algorithm 1 of the paper.

The client keeps two associations alive through one physical NIC: the
*primary* (normally active) and the *secondary* (parked in PSM at its AP,
or backed by the middlebox).  Logic, per Algorithm 1:

* Receive the stream on the primary.  A packet is declared lost on the
  primary when a later sequence number arrives (gap detection) or when its
  expected arrival is ``PacketLossTimeout`` (= 2 x IPS) overdue.
* On loss, schedule a switch to the secondary **just in time** for the
  missing packet to reach the head of the secondary AP's short head-drop
  queue (``ExpectedTimeToReachHead = IPS * APQueueLen - LSL``), collect it,
  and switch back immediately — or after ``PacketLossTimeout`` if it never
  shows.
* Visit the secondary at least every ``AssociationKeepaliveTimeout``
  (30 s) for ``SecondaryResidencyTime`` (40 ms) to keep the association
  alive.

In middlebox mode the secondary AP is stock; the wake visit instead sends
a **start** message to the middlebox, which streams its buffer through the
secondary AP, and a **stop** on departure (Section 5.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

import numpy as np

from repro.core.config import (
    LINK_SWITCH_LATENCY_S,
    MAX_TOLERABLE_DELAY_S,
    SECONDARY_RESIDENCY_TIME_S,
    ClientConfig,
    StreamProfile,
)
from repro.core.packet import Packet, StreamTrace
from repro.core.types import ReplicaBuffer
from repro.obs.registry import LabelValue
from repro.obs.runtime import active_registry
from repro.obs.spans import Span, SpanTracker
from repro.sim.engine import Simulator
from repro.sim.tracing import EventLog
from repro.wifi.association import WifiManager

#: expected wired-path delay of a packet, added to its send time before
#: ``PacketLossTimeout`` starts to run
NOMINAL_DELAY_S = 0.005


@dataclass
class ClientStats:
    """Per-call client-side accounting (Sections 6.2/6.3)."""

    received_primary: int = 0
    received_secondary: int = 0
    duplicates: int = 0
    losses_declared: int = 0
    #: packets whose first on-time copy came via the secondary path
    recovered: int = 0
    recovery_switches: int = 0
    keepalive_switches: int = 0
    #: recovery delay samples: loss-declared -> first secondary arrival
    recovery_delays_s: List[float] = field(default_factory=list)


class DiversiFiClient:
    """Algorithm 1 on the event engine."""

    PRIMARY = "primary"
    SECONDARY = "secondary"

    def __init__(self, sim: Simulator, manager: WifiManager,
                 profile: StreamProfile, config: ClientConfig,
                 middlebox: Optional[ReplicaBuffer] = None,
                 enabled: bool = True,
                 event_log: Optional[EventLog] = None,
                 metric_labels: Optional[Dict[str, LabelValue]] = None):
        self.sim = sim
        self.manager = manager
        self.profile = profile
        self.config = config
        #: the flow ``run_session`` registers with the middlebox
        self.flow_id = "rt0"
        self.middlebox = middlebox
        #: with ``enabled=False`` the client never taps the secondary —
        #: the single-link baseline of Figure 8.
        self.enabled = enabled
        self.stats = ClientStats()
        self._event_log = event_log
        # The registry the runner installed for this task, if any (see
        # repro.obs.runtime).
        self._metrics = active_registry()
        self._metric_labels: Dict[str, LabelValue] = \
            dict(metric_labels or {})
        self._spans = SpanTracker(clock=lambda: self.sim.now,
                                  registry=self._metrics,
                                  event_log=event_log, source="client")
        self._visit_span: Optional[Span] = None

        n = profile.n_packets
        send_times = np.arange(n) * profile.inter_packet_spacing_s
        self.trace = StreamTrace(n_packets=n, send_times=send_times)
        self._send_times = send_times
        self._highest_seen = -1
        #: seq -> recovery deadline (send time + MaxTolerableDelay)
        self._pending_lost: Dict[int, float] = {}
        self._declared_lost: Set[int] = set()
        self._loss_declared_at: Dict[int, float] = {}
        self._on_secondary = False
        self._visit_planned = False
        self._return_event: Optional[List[Any]] = None
        self._last_secondary_visit = sim.now
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Activate on the primary and arm watchdogs."""
        if self._started:
            raise RuntimeError("client already started")
        self._started = True
        self.manager.activate(self.PRIMARY)
        if self.enabled:
            self._schedule_loss_checks()
            self._schedule_keepalive()

    def _schedule_loss_checks(self) -> None:
        # One overdue check per packet; cheap on the event heap and exact.
        for seq in range(self.profile.n_packets):
            check_at = (self._send_times[seq] + NOMINAL_DELAY_S
                        + self.config.packet_loss_timeout_s)
            self.sim.call_at(float(check_at), self._check_overdue, seq)

    def _schedule_keepalive(self) -> None:
        self.sim.call_in(self.config.association_keepalive_timeout_s,
                         self._keepalive_tick)

    # ------------------------------------------------------------------
    # receive path (installed as both APs' receiver callback)

    def on_receive(self, packet: Packet, arrival_time: float,
                   ap_name: str) -> None:
        """Deliver one packet copy to the application-side trace."""
        seq = packet.seq
        via_secondary = ap_name != self.PRIMARY
        first_copy = self.trace.record_arrival(
            seq, arrival_time, link=ap_name)
        if via_secondary:
            self.stats.received_secondary += 1
        else:
            self.stats.received_primary += 1
        if not first_copy:
            self.stats.duplicates += 1
            self._count("client.duplicates")

        if first_copy and via_secondary and seq in self._declared_lost:
            deadline = self._send_times[seq] + MAX_TOLERABLE_DELAY_S
            if arrival_time <= deadline + 1e-9:
                self.stats.recovered += 1
                self._count("client.recovered")
                self._log("recovered", f"seq={seq}")
            declared = self._loss_declared_at.get(seq)
            if declared is not None:
                self.stats.recovery_delays_s.append(
                    arrival_time - declared)
                if self._metrics is not None:
                    self._metrics.histogram(
                        "client.recovery_delay_s",
                        **self._metric_labels).observe(
                            arrival_time - declared)

        self._pending_lost.pop(seq, None)

        if not via_secondary and self.enabled:
            # Gap detection: everything between the highest seq seen and
            # this one is missing on the primary.
            for missing in range(self._highest_seen + 1, seq):
                self._declare_lost(missing)
        self._highest_seen = max(self._highest_seen, seq)

        if (self._on_secondary and not self._pending_lost
                and self.enabled):
            # LostPacketReceivedOnSecondary -> switch back immediately.
            self._return_to_primary()

    # ------------------------------------------------------------------
    # loss handling

    def _check_overdue(self, seq: int) -> None:
        if seq in self.trace.arrivals or seq in self._declared_lost:
            return
        self._declare_lost(seq)

    def _log(self, kind: str, detail: str = "") -> None:
        if self._event_log is not None:
            self._event_log.record(self.sim.now, "client", kind, detail)

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name, **self._metric_labels).inc()

    def _declare_lost(self, seq: int) -> None:
        if seq in self._declared_lost or seq in self.trace.arrivals:
            return
        self._log("loss-declared", f"seq={seq}")
        self._declared_lost.add(seq)
        self._loss_declared_at[seq] = self.sim.now
        self.stats.losses_declared += 1
        self._count("client.losses_declared")
        deadline = self._send_times[seq] + MAX_TOLERABLE_DELAY_S
        if self.sim.now > deadline:
            return  # nothing to gain any more
        self._pending_lost[seq] = float(deadline)
        self._plan_recovery_visit(seq)

    def _recovery_wake_time(self, seq: int) -> float:
        """When the radio should be awake on the secondary for ``seq``.

        The packet reaches the head of the secondary's head-drop queue of
        APQueueLen once its successors fill the queue; it is purged when
        packet seq+APQueueLen arrives.  Waking one inter-packet spacing
        before the purge catches it at the head.
        """
        queue_residency = (self.config.ap_queue_len
                           * self.config.inter_packet_spacing_s)
        margin = self.config.inter_packet_spacing_s * 0.75
        return float(self._send_times[seq]) + queue_residency - margin

    def _plan_recovery_visit(self, seq: int) -> None:
        if self._on_secondary or self._visit_planned:
            return  # the active/planned visit will collect it
        wake_at = self._recovery_wake_time(seq)
        begin_at = wake_at - LINK_SWITCH_LATENCY_S
        self._visit_planned = True
        if begin_at <= self.sim.now:
            self._begin_switch_to_secondary()
        else:
            self.sim.call_at(begin_at, self._begin_switch_to_secondary)

    def _begin_switch_to_secondary(self) -> None:
        if self._on_secondary:
            self._visit_planned = False
            return
        if not self._pending_lost:
            # Everything recovered on the primary in the meantime.
            self._visit_planned = False
            return
        self.stats.recovery_switches += 1
        self._count("client.recovery_switches")
        self._log("switch-to-secondary",
                  f"pending={len(self._pending_lost)}")
        if self._visit_span is None:
            # A keepalive switch may already be in flight (span open);
            # that visit doubles as the recovery visit.
            self._visit_span = self._spans.span(
                "client.secondary_visit", reason="recovery",
                **self._metric_labels)
        self.manager.switch_to(self.SECONDARY, self._on_secondary_awake)

    def _on_secondary_awake(self) -> None:
        self._visit_planned = False
        self._on_secondary = True
        self._last_secondary_visit = self.sim.now
        if self.middlebox is not None:
            self.middlebox.start(self.flow_id)
        if not self._pending_lost:
            self._return_to_primary()
            return
        # Hard return: PLT after waking, per Algorithm 1 line 12.
        stay_until = self.sim.now + self.config.packet_loss_timeout_s
        self._return_event = self.sim.call_at(
            stay_until, self._return_to_primary)

    def _return_to_primary(self) -> None:
        if not self._on_secondary:
            return
        self._on_secondary = False
        if self._return_event is not None:
            self.sim.cancel(self._return_event)
            self._return_event = None
        if self.middlebox is not None:
            self.middlebox.stop(self.flow_id)
        self._log("switch-to-primary")
        if self._visit_span is not None:
            self._visit_span.end()
            self._visit_span = None
        # Expire pending packets that can no longer make their deadline.
        horizon = self.sim.now + LINK_SWITCH_LATENCY_S
        self._pending_lost = {
            seq: dl for seq, dl in self._pending_lost.items()
            if dl > horizon}
        self.manager.switch_to(self.PRIMARY, self._on_primary_awake)

    def _on_primary_awake(self) -> None:
        if self._pending_lost and not self._visit_planned:
            next_seq = min(self._pending_lost)
            self._plan_recovery_visit(next_seq)

    # ------------------------------------------------------------------
    # keepalive

    def _keepalive_tick(self) -> None:
        idle = self.sim.now - self._last_secondary_visit
        if idle >= self.config.association_keepalive_timeout_s - 1e-9:
            if not self._on_secondary and not self._visit_planned:
                self.stats.keepalive_switches += 1
                self._count("client.keepalive_switches")
                self._log("keepalive-visit")
                if self._visit_span is None:
                    self._visit_span = self._spans.span(
                        "client.secondary_visit", reason="keepalive",
                        **self._metric_labels)
                self.manager.switch_to(self.SECONDARY,
                                       self._keepalive_awake)
        # Re-arm relative to the most recent visit.
        next_check = max(
            self.config.association_keepalive_timeout_s - idle,
            self.config.association_keepalive_timeout_s * 0.1)
        self.sim.call_in(next_check, self._keepalive_tick)

    def _keepalive_awake(self) -> None:
        self._on_secondary = True
        self._last_secondary_visit = self.sim.now
        if self.middlebox is not None:
            self.middlebox.start(self.flow_id)
        self._return_event = self.sim.call_in(
            SECONDARY_RESIDENCY_TIME_S, self._return_to_primary)
