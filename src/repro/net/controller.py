"""The QoE-driven SDN controller.

A control-plane process on the event engine, shaped like the QoE-routing
controllers of the related work: every ``poll_interval_s`` it

1. **probes** every candidate path (a few small transmissions per poll,
   so paths carrying no flow traffic still produce evidence),
2. **polls** per-port counters (loss, delay, queue depth) into
   :class:`~repro.net.netmetrics.RollingLinkMetrics`,
3. **scores** each path with the E-model MOS
   (:meth:`~repro.net.netmetrics.RollingLinkMetrics.mos`), and
4. **acts** through the ordinary :class:`~repro.net.sdn.SdnSwitch` /
   :class:`~repro.net.middlebox.Middlebox` APIs.

Three strategies share this loop — the head-to-head the evaluation runs:

* ``qoe-route`` — single active path, rerouted (with hysteresis) to the
  best-scoring candidate: dynamic selection, 1x bandwidth;
* ``hedge`` — DiversiFi-style: the flow rides the best path while a
  replica branch feeds the middlebox in front of the second-best path.
  The middlebox *suppresses duplicates* (buffers, forwards nothing)
  until the primary's rolling loss crosses a threshold, then the
  controller sends **start** and the buffered + live copies stream
  through the secondary AP until the primary recovers (**stop**);
* ``replicate`` — RAIL-style always-on replication over every path:
  maximum robustness, N x bandwidth, deduplicated at the client.

Controller decisions are observable: polls, reroutes, middlebox
start/stop and per-path MOS land in the active
:class:`~repro.obs.registry.MetricsRegistry` when one is collecting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.middlebox import Middlebox
from repro.net.netmetrics import PortStatsReader, RollingLinkMetrics
from repro.net.topology import Topology, TopologyPath
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.runtime import active_registry
from repro.sim.engine import Simulator

#: the three strategies the control plane can drive
CONTROLLER_MODES = ("qoe-route", "hedge", "replicate")


@dataclass(frozen=True)
class ControllerConfig:
    """The control loop's constants."""

    #: stats-poll / decision interval
    poll_interval_s: float = 0.5
    #: EWMA weight of the newest poll window
    ewma_alpha: float = 0.4
    #: MOS margin a challenger path must clear to trigger a reroute
    reroute_margin_mos: float = 0.12
    #: probe transmissions per path per poll
    probes_per_poll: int = 4
    probe_size_bytes: int = 64
    #: rolling primary loss that opens the middlebox valve (hedge mode)
    hedge_start_loss: float = 0.02
    #: rolling primary loss below which it closes again
    hedge_stop_loss: float = 0.005
    #: end-to-end delay beyond the WiFi hop folded into path MOS
    extra_one_way_delay_s: float = 0.05
    rule_priority: int = 10


@dataclass
class ControllerStats:
    """Control-plane accounting for one session."""

    polls: int = 0
    reroutes: int = 0
    probe_packets: int = 0
    mbox_starts: int = 0
    mbox_stops: int = 0
    #: path name -> last MOS (rendered by tests and the sweep driver)
    last_mos: Dict[str, float] = field(default_factory=dict)


class QoeController:
    """Periodic QoE-driven path control for one real-time flow."""

    def __init__(self, sim: Simulator, topology: Topology, flow_id: str,
                 mode: str, config: Optional[ControllerConfig] = None,
                 middlebox: Optional[Middlebox] = None):
        if mode not in CONTROLLER_MODES:
            raise ValueError(f"unknown controller mode {mode!r} "
                             f"(expected one of {CONTROLLER_MODES})")
        if mode == "hedge" and middlebox is None:
            raise ValueError("hedge mode needs a middlebox")
        self.sim = sim
        self.topology = topology
        self.flow_id = flow_id
        self.mode = mode
        self.config = config if config is not None else ControllerConfig()
        self.middlebox = middlebox
        self.stats = ControllerStats()
        self._paths: Tuple[TopologyPath, ...] = topology.paths
        if len(self._paths) < 2:
            raise ValueError("controller needs at least 2 candidate paths")
        self._metrics: Dict[str, RollingLinkMetrics] = {
            path.name: RollingLinkMetrics(alpha=self.config.ewma_alpha)
            for path in self._paths}
        self._readers: Dict[str, PortStatsReader] = {
            path.name: PortStatsReader(topology.radio(path.radio).stats)
            for path in self._paths}
        #: active path names, primary first
        self._active: Tuple[str, ...] = ()
        self._mbox_streaming = False
        # Instruments are resolved once (the poll loop is periodic).
        registry = active_registry()
        self._m_polls: Optional[Counter] = None
        self._m_reroutes: Optional[Counter] = None
        self._m_mbox_toggles: Optional[Counter] = None
        self._registry = registry
        if registry is not None:
            labels = {"mode": mode}
            self._m_polls = registry.counter("controller.polls", **labels)
            self._m_reroutes = registry.counter("controller.reroutes",
                                                **labels)
            self._m_mbox_toggles = registry.counter(
                "controller.mbox_toggles", **labels)

    # ---------------------------------------------------------- control

    def start(self) -> None:
        """Install the initial rules and begin the poll loop.

        Initial path preference is association-style: strongest RSSI
        first (ties break on path order), exactly how a client would
        pick before any loss evidence exists.
        """
        initial = self.initial_preference()
        if self.mode == "qoe-route":
            self._activate((initial[0],))
        elif self.mode == "hedge":
            self._activate(tuple(initial[:2]))
        else:  # replicate: all paths, always
            self._activate(tuple(initial))
        self.sim.call_in(self.config.poll_interval_s, self._poll)

    def initial_preference(self) -> Tuple[str, ...]:
        """Path names ordered by RSSI at t=0, strongest first."""
        rssi = {path.name:
                self.topology.radio(path.radio).link.rssi_dbm(0.0)
                for path in self._paths}
        order = {path.name: i for i, path in enumerate(self._paths)}
        return tuple(sorted(rssi,
                            key=lambda name: (-rssi[name], order[name])))

    # tests observe probe-fed metrics of idle paths; no public field has
    # them
    def path_metrics(  # reproflow: disable=RCH602
            self, name: str) -> RollingLinkMetrics:
        """The rolling metrics for one path (observability/tests)."""
        return self._metrics[name]

    # tests observe the controller's path choice; no public field has it
    @property
    def active_paths(self) -> Tuple[str, ...]:  # reproflow: disable=RCH602
        """Currently active path names, primary first."""
        return self._active

    # ------------------------------------------------------------- poll

    def _poll(self) -> None:
        self.stats.polls += 1
        if self._m_polls is not None:
            self._m_polls.inc()
        for path in self._paths:
            radio = self.topology.radio(path.radio)
            for _ in range(self.config.probes_per_poll):
                radio.probe(self.config.probe_size_bytes)
                self.stats.probe_packets += 1
            sample = self._readers[path.name].poll()
            self._metrics[path.name].update(sample)
        mos = {path.name: self._metrics[path.name].mos(
            self.config.extra_one_way_delay_s) for path in self._paths}
        self.stats.last_mos = mos
        if self._registry is not None:
            for name in sorted(mos):
                self._registry.gauge("controller.path_mos",
                                     mode=self.mode,
                                     path=name).set(round(mos[name], 4))
        if self.mode == "qoe-route":
            self._decide_route(mos)
        elif self.mode == "hedge":
            self._decide_hedge(mos)
        # replicate: nothing to decide — every path stays active.
        self.sim.call_in(self.config.poll_interval_s, self._poll)

    def _ranked(self, mos: Dict[str, float]) -> List[str]:
        """Path names best-first; ties break on path order (stable)."""
        order = {path.name: i for i, path in enumerate(self._paths)}
        return sorted(mos, key=lambda name: (-mos[name], order[name]))

    def _decide_route(self, mos: Dict[str, float]) -> None:
        current = self._active[0]
        best = self._ranked(mos)[0]
        if best != current and (mos[best]
                                > mos[current]
                                + self.config.reroute_margin_mos):
            self._activate((best,))
            self.stats.reroutes += 1
            if self._m_reroutes is not None:
                self._m_reroutes.inc()

    def _decide_hedge(self, mos: Dict[str, float]) -> None:
        # The hedge pair is static for the call (DiversiFi associates a
        # fixed primary + secondary); the poll loop only works the
        # duplicate-suppression valve: the middlebox streams while the
        # primary is actually losing packets, buffers otherwise.
        primary = self._active[0]
        loss = self._metrics[primary].loss_rate
        assert self.middlebox is not None
        if not self._mbox_streaming and loss >= self.config.hedge_start_loss:
            self.middlebox.start(self.flow_id)
            self._mbox_streaming = True
            self.stats.mbox_starts += 1
            if self._m_mbox_toggles is not None:
                self._m_mbox_toggles.inc()
        elif self._mbox_streaming and loss <= self.config.hedge_stop_loss:
            self.middlebox.stop(self.flow_id)
            self._mbox_streaming = False
            self.stats.mbox_stops += 1
            if self._m_mbox_toggles is not None:
                self._m_mbox_toggles.inc()

    # ------------------------------------------------------------ rules

    def _path_by_name(self, name: str) -> TopologyPath:
        for path in self._paths:
            if path.name == name:
                return path
        raise KeyError(name)

    def _activate(self, names: Tuple[str, ...]) -> None:
        """Install the data-plane rules for the named active paths."""
        self._active = names
        if self.mode == "hedge":
            self._install_hedge()
            return
        paths = [self._path_by_name(name) for name in names]
        self.topology.install_flow(self.flow_id, paths,
                                   priority=self.config.rule_priority)

    def _install_hedge(self) -> None:
        """Primary path + replica branch through the middlebox.

        The core switch replicates: one copy down the primary chain, one
        to the ``mbox`` port.  The middlebox's flow sink feeds the
        secondary edge switch, whose ordinary path rules carry released
        packets out of the secondary AP.
        """
        assert self.middlebox is not None
        primary = self._path_by_name(self._active[0])
        secondary = self._path_by_name(self._active[1])
        ingress = self.topology.ingress_switch
        # Rules for both chains; the core's computed port set is
        # overridden to (primary edge, middlebox port) so the replica
        # branch passes through the suppression buffer, not straight
        # down the secondary chain.
        override_ports = (primary.nodes[2], "mbox")
        self.topology.install_flow(
            self.flow_id, [primary, secondary],
            priority=self.config.rule_priority,
            overrides={ingress: override_ports})

    def register_hedge_flow(self) -> None:
        """Wire the middlebox for this flow (once, before :meth:`start`):
        a ``mbox`` port on the ingress switch and a flow sink into the
        secondary edge switch (the second-strongest path by initial
        RSSI, matching what :meth:`start` will activate)."""
        assert self.middlebox is not None
        secondary = self._path_by_name(self.initial_preference()[1])
        edge = secondary.nodes[2]
        self.topology.attach_sink_port(self.topology.ingress_switch,
                                       "mbox",
                                       self.middlebox.replica_arrival)
        self.middlebox.register_flow(
            self.flow_id, self.topology.switch(edge).ingress)
