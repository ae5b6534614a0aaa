"""End-to-end session orchestration: Figure 7's architectures, wired up.

:func:`run_session` assembles one simulated call:

* ``mode="diversifi-ap"``   — Figure 7(b): source replication, both copies
  over the LAN to their APs; the secondary AP is *customized* (head-drop,
  short settable queue).
* ``mode="diversifi-mbox"`` — Figure 7(c): an SDN switch replicates the
  flow, one copy to the primary AP, one to the middlebox; the secondary AP
  is stock and merely forwards what the middlebox streams.
* ``mode="primary-only"`` / ``mode="secondary-only"`` — single-link
  baselines (client pinned to one link, DiversiFi logic disabled).

The same ``seed`` yields statistically identical channels across modes, so
Figure 8's primary/secondary/DiversiFi comparison is run per location.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Tuple, Union

from repro.core.client import ClientStats, DiversiFiClient
from repro.core.config import (
    APConfig,
    ClientConfig,
    MiddleboxConfig,
    StreamProfile,
)
from repro.core.packet import LinkTrace, Packet, StreamTrace
from repro.net.lan import LanSegment
from repro.net.middlebox import Middlebox
from repro.net.sdn import FlowMatch, MatchAction, SdnSwitch
from repro.obs.runtime import active_registry
from repro.sim.engine import Simulator
from repro.sim.random import RandomRouter
from repro.sim.tracing import EventLog
from repro.traffic.voip import VoipSender
from repro.wifi.ap import AccessPoint
from repro.wifi.association import WifiManager


VALID_MODES = ("diversifi-ap", "diversifi-mbox",
               "primary-only", "secondary-only")


@dataclass
class SessionResult:
    """Everything one simulated call produced."""

    mode: str
    stream: StreamTrace
    client_stats: ClientStats
    primary_ap: AccessPoint
    secondary_ap: AccessPoint
    middlebox: Optional[Middlebox] = None
    switch_count: int = 0
    off_channel_time_s: float = 0.0
    #: stats of the competing TCP flow on DEF, when one was run
    tcp_stats: Optional[object] = None
    #: sanitizer fingerprint of the executed event sequence; set only when
    #: the session ran with ``REPRO_SANITIZE=1`` (see repro.sim.sanitize)
    determinism_digest: Optional[str] = None

    def effective_trace(self, deadline: float = 0.100) -> LinkTrace:
        """Receiver trace with the MaxTolerableDelay accounting."""
        return self.stream.effective_trace(deadline=deadline,
                                           name=self.mode)

    @property
    def secondary_air_transmissions(self) -> int:
        return self.secondary_ap.stats.air_transmissions

    @property
    def wasteful_duplicates(self) -> int:
        """Secondary air transmissions that did not recover a packet."""
        return max(self.secondary_air_transmissions
                   - self.client_stats.recovered, 0)

    def wasteful_duplication_rate(self) -> float:
        """Fraction of the stream duplicated unnecessarily (Section 6.3)."""
        if self.stream.n_packets == 0:
            return 0.0
        return self.wasteful_duplicates / self.stream.n_packets


def run_session(link_factory: Callable[[RandomRouter], Tuple[Any, Any]],
                mode: str = "diversifi-ap",
                profile: StreamProfile = StreamProfile(),
                client_config: Optional[ClientConfig] = None,
                ap_config: Optional[APConfig] = None,
                seed: int = 0,
                with_tcp: bool = False,
                event_log: Optional[EventLog] = None) -> SessionResult:
    """Simulate one call end to end and return its result.

    ``link_factory(rng_router)`` builds the (primary, secondary) WifiLink
    pair — e.g. ``repro.scenarios.build_office_pair``.

    Metrics go to the registry installed for this task
    (``repro.obs.runtime.active_registry``); every metric the session
    records carries a ``mode`` label so the Figure 8 architectures stay
    distinguishable after a batch merge.
    """
    if mode not in VALID_MODES:
        raise ValueError(f"unknown mode {mode!r}; pick from {VALID_MODES}")
    metrics = active_registry()
    metric_labels: dict = {"mode": mode}
    client_config = client_config or ClientConfig().for_profile(profile)
    ap_config = ap_config or APConfig(
        max_queue_len=client_config.ap_queue_len)

    sim = Simulator()
    router = RandomRouter(seed)
    link_primary, link_secondary = link_factory(router)

    if mode == "secondary-only":
        link_primary, link_secondary = link_secondary, link_primary

    single_link = mode in ("primary-only", "secondary-only")

    # --- access points -------------------------------------------------
    primary_ap = AccessPoint(sim, "primary", link_primary, ap_config)
    if mode == "diversifi-mbox":
        # Stock secondary AP: tail-drop, deep buffer (it sees no PSM
        # traffic anyway — the middlebox holds the replica).
        secondary_ap_config = replace(ap_config, drop_policy="tail",
                                      max_queue_len=64)
    else:
        secondary_ap_config = ap_config
    secondary_ap = AccessPoint(sim, "secondary", link_secondary,
                               secondary_ap_config)

    # --- client NIC and associations ------------------------------------
    manager = WifiManager(sim, router.stream("client.psm"))
    manager.create_adapter(DiversiFiClient.PRIMARY)
    manager.create_adapter(DiversiFiClient.SECONDARY)
    # The queue-length IE carries the experiment's AP buffer depth; a
    # customized (head-drop) AP honours it, a stock AP ignores it.
    manager.associate(DiversiFiClient.PRIMARY, primary_ap, channel=1,
                      requested_queue_len=ap_config.max_queue_len)
    manager.associate(DiversiFiClient.SECONDARY, secondary_ap, channel=11,
                      requested_queue_len=ap_config.max_queue_len)

    # --- wired side ------------------------------------------------------
    middlebox = None
    sender = VoipSender(sim, profile, flow_id="rt0")
    if mode == "diversifi-mbox":
        middlebox = Middlebox(sim, MiddleboxConfig(
            buffer_len=client_config.ap_queue_len))
        switch = SdnSwitch(sim)
        switch.attach_port("to-primary",
                           _lan_into(sim, router, primary_ap, "lan-p"))
        switch.attach_port("to-mbox",
                           _lan_into(sim, router, middlebox.replica_arrival,
                                     "lan-m", is_ap=False))
        switch.install_rule(MatchAction(
            match=FlowMatch(flow_id="rt0"),
            output_ports=["to-primary", "to-mbox"], priority=10))
        sender.attach(switch.ingress)
        middlebox.register_flow(
            "rt0", _lan_into(sim, router, secondary_ap, "lan-s"))
    else:
        sender.attach(_lan_into(sim, router, primary_ap, "lan-p"))
        if not single_link:
            sender.attach(_lan_into(sim, router, secondary_ap, "lan-s"))

    # --- client ----------------------------------------------------------
    client = DiversiFiClient(
        sim, manager, profile, client_config,
        middlebox=middlebox if mode == "diversifi-mbox" else None,
        enabled=not single_link, event_log=event_log,
        metric_labels=metric_labels)
    primary_ap.set_receiver(client.on_receive)
    secondary_ap.set_receiver(client.on_receive)

    # --- competing TCP flow on the DEF link (Figure 10) ------------------
    tcp = None
    if with_tcp:
        from repro.traffic.tcp import TcpReno
        # DEF shares the primary's channel: the flow stalls whenever the
        # radio is off-channel, and suffers the primary link's loss.
        tcp = TcpReno(
            sim, router.stream("tcp"),
            duration_s=profile.duration_s,
            radio_present=lambda: (
                manager.active_adapter == DiversiFiClient.PRIMARY),
            wireless_loss_prob=lambda: min(
                link_primary.attempt_loss_prob(sim.now), 0.5))
        tcp.start()

    client.start()
    sender.start()
    sim.run(until=profile.duration_s + 1.0)

    if metrics is not None:
        sim.record_metrics(metrics, **metric_labels)
        metrics.counter("session.runs", **metric_labels).inc()
        metrics.counter("session.switches",
                        **metric_labels).inc(manager.switch_count)
        metrics.histogram("session.off_channel_time_s",
                          **metric_labels).observe(
                              manager.off_channel_time_s)
        # Close the wake-ratio gauges at the end of the observation
        # period and fold them into the registry.
        manager.record_metrics(sim.now)

    return SessionResult(
        mode=mode, stream=client.trace, client_stats=client.stats,
        primary_ap=primary_ap, secondary_ap=secondary_ap,
        middlebox=middlebox,
        switch_count=manager.switch_count,
        off_channel_time_s=manager.off_channel_time_s,
        tcp_stats=tcp.stats if tcp is not None else None,
        determinism_digest=sim.determinism_digest())


def _lan_into(sim: Simulator, router: RandomRouter,
              target: Union[AccessPoint, Callable[[Packet], None]],
              name: str,
              is_ap: bool = True) -> Callable[[Packet], None]:
    """A LAN segment whose sink is an AP's wired ingress (or a callable)."""
    sink = target.wired_arrival if is_ap else target
    segment = LanSegment(sim, sink, router.stream(f"{name}.jitter"),
                         name=name)
    return segment.send
