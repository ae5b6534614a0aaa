"""Multi-switch topology graph for the QoE-driven control plane.

The paper's unmodified-AP deployment is one SDN switch feeding two APs.
This module generalizes that data plane to an *N-path topology*: a
server host behind a core :class:`~repro.net.sdn.SdnSwitch`, one edge
switch + AP chain per candidate path, and a client that can hear every
AP — the shape of the related QoE-routing controllers (three-path
topologies with per-link metric collection).

Everything is event-driven on one :class:`~repro.sim.engine.Simulator`:

* wired hops (:class:`WiredHop`) forward with a small fixed delay;
* the AP radio egress (:class:`RadioPort`) transmits each packet over a
  live :class:`~repro.channel.link.WifiLink` (MAC retries, fading,
  interference) and meters every outcome into
  :class:`~repro.net.netmetrics.PortStats` — the counters the
  controller polls;
* the client (:class:`ClientCapture`) deduplicates by sequence number
  and renders the received stream as a :class:`~repro.core.packet.LinkTrace`
  for the voice-quality pipeline.

Rules travel through the ordinary :class:`~repro.net.sdn.SdnSwitch`
API: :meth:`Topology.install_flow` computes the per-switch output-port
sets for a set of active paths (replicating where paths branch) and
installs/replaces match-action rules accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import StreamProfile
from repro.core.packet import LinkTrace, Packet
from repro.core.types import FloatArray
from repro.net.netmetrics import PortStats
from repro.net.sdn import FlowMatch, MatchAction, SdnSwitch
from repro.sim.engine import Simulator
from repro.channel.link import WifiLink

#: wired delay of every switch-to-switch and switch-to-AP hop
HOP_DELAY_S = 0.0005


@dataclass(frozen=True)
class TopologyPath:
    """One candidate server->client path through the graph.

    ``nodes`` is the full node sequence (``server`` .. ``client``);
    ``radio`` names the AP radio port that terminates it.
    """

    name: str
    nodes: Tuple[str, ...]
    radio: str

    @property
    def switches(self) -> Tuple[str, ...]:
        """The switch hops (every node except the two endpoints and the
        AP radio)."""
        return tuple(n for n in self.nodes[1:-1] if n != self.radio)


class WiredHop:
    """A fixed-delay wired link between two data-plane elements."""

    def __init__(self, sim: Simulator, sink: Callable[[Packet], None],
                 delay_s: float = 0.0005):
        self.sim = sim
        self.delay_s = delay_s
        self._sink = sink
        self.forwarded = 0

    def send(self, packet: Packet) -> None:
        """Forward ``packet`` after the wire delay."""
        self.forwarded += 1
        self.sim.call_in(self.delay_s, self._sink, packet)


class RadioPort:
    """AP egress onto one WiFi link toward the client.

    Each send consults the live channel (fading, Gilbert bursts, MAC
    retries) via :meth:`WifiLink.transmit` and either schedules the
    client-side delivery or drops.  Every outcome is metered into
    :class:`PortStats`; ``queue_depth`` tracks copies in flight (sent
    but not yet delivered), the AP-queue observable the controller
    polls.  Probes (:meth:`probe`) sample the same channel without
    delivering anywhere, so the controller keeps fresh metrics for
    paths that carry no flow traffic.
    """

    def __init__(self, sim: Simulator, link: WifiLink,
                 sink: Callable[[Packet], None], name: str = ""):
        self.sim = sim
        self.link = link
        self.name = name or link.name
        self._sink = sink
        self.stats = PortStats()

    def send(self, packet: Packet) -> None:
        """Transmit one flow packet over the air."""
        delivered, arrival = self.link.transmit(self.sim.now,
                                                packet.size_bytes)
        self.stats.record(delivered, arrival - self.sim.now, data=True)
        if delivered:
            self.stats.queue_depth += 1
            self.sim.call_at(arrival, self._deliver, packet)

    def probe(self, size_bytes: int = 64) -> None:
        """Transmit one controller probe (metered, never delivered)."""
        delivered, arrival = self.link.transmit(self.sim.now, size_bytes)
        self.stats.record(delivered, arrival - self.sim.now, data=False)

    def _deliver(self, packet: Packet) -> None:
        self.stats.queue_depth = max(self.stats.queue_depth - 1, 0)
        self._sink(packet)


class ClientCapture:
    """The client's receive side: earliest arrival per sequence number.

    Copies beyond the first are counted as duplicates (the wasteful-
    duplication cost of replication strategies) and discarded.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._arrivals: Dict[int, float] = {}
        self.duplicates = 0

    def sink(self, packet: Packet) -> None:
        """Accept one delivered copy."""
        if packet.seq in self._arrivals:
            self.duplicates += 1
            return
        self._arrivals[packet.seq] = self.sim.now

    def trace(self, profile: StreamProfile) -> LinkTrace:
        """Render received packets as a :class:`LinkTrace`."""
        n = profile.n_packets
        send_times: FloatArray = (np.arange(n)
                                  * profile.inter_packet_spacing_s)
        delivered = np.zeros(n, dtype=bool)
        delays = np.full(n, np.nan)
        for seq in sorted(self._arrivals):
            if 0 <= seq < n:
                delivered[seq] = True
                delays[seq] = self._arrivals[seq] - send_times[seq]
        return LinkTrace("client", send_times, delivered, delays)


class StreamSource:
    """The server-side media source: one packet every IPS seconds."""

    def __init__(self, sim: Simulator, sink: Callable[[Packet], None],
                 profile: StreamProfile, flow_id: str = "rt0"):
        self.sim = sim
        self.profile = profile
        self.flow_id = flow_id
        self._sink = sink
        self._next_seq = 0

    def start(self) -> None:
        """Schedule the stream (self-rescheduling, bounded heap)."""
        self.sim.call_at(0.0, self._emit)

    def _emit(self) -> None:
        packet = Packet(seq=self._next_seq, send_time=self.sim.now,
                        size_bytes=self.profile.packet_size_bytes,
                        flow_id=self.flow_id)
        self._sink(packet)
        self._next_seq += 1
        if self._next_seq < self.profile.n_packets:
            self.sim.call_in(self.profile.inter_packet_spacing_s,
                             self._emit)


class Topology:
    """A named graph of switches, wired hops and AP radio ports.

    Node names are unique; a switch's output port toward a neighbor is
    named after that neighbor, so a path's rule chain is derivable from
    its node sequence alone.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._switches: Dict[str, SdnSwitch] = {}
        self._radios: Dict[str, RadioPort] = {}
        self._paths: Tuple[TopologyPath, ...] = ()
        self.ingress_switch = ""

    # ------------------------------------------------------------ build

    def add_switch(self, name: str) -> SdnSwitch:
        """Create one SDN switch node."""
        if name in self._switches:
            raise ValueError(f"duplicate switch {name!r}")
        switch = SdnSwitch(self.sim, name=name)
        self._switches[name] = switch
        return switch

    def connect(self, src: str, dst: str) -> None:
        """Wire switch ``src`` to switch ``dst`` (port named ``dst``)."""
        hop = WiredHop(self.sim, self._switches[dst].ingress, HOP_DELAY_S)
        self._switches[src].attach_port(dst, hop.send)

    def attach_radio(self, switch: str, name: str, link: WifiLink,
                     client: ClientCapture) -> RadioPort:
        """Terminate ``switch`` with an AP radio port toward the client."""
        if name in self._radios:
            raise ValueError(f"duplicate radio {name!r}")
        radio = RadioPort(self.sim, link, client.sink, name=name)
        hop = WiredHop(self.sim, radio.send, HOP_DELAY_S)
        self._switches[switch].attach_port(name, hop.send)
        self._radios[name] = radio
        return radio

    def attach_sink_port(self, switch: str, port: str,
                         sink: Callable[[Packet], None]) -> None:
        """Attach an arbitrary sink (e.g. a middlebox) to a switch port."""
        self._switches[switch].attach_port(port, sink)

    # ---------------------------------------------------------- queries

    def switch(self, name: str) -> SdnSwitch:
        """The switch object for ``name``."""
        return self._switches[name]

    def radio(self, name: str) -> RadioPort:
        """The radio port for ``name``."""
        return self._radios[name]

    def radios(self) -> Tuple[RadioPort, ...]:
        """All radio ports, in name order."""
        return tuple(self._radios[name] for name in sorted(self._radios))

    @property
    def paths(self) -> Tuple[TopologyPath, ...]:
        """The candidate paths recorded by the builder."""
        return self._paths

    # ------------------------------------------------------ rule plumbing

    def ingress(self, packet: Packet) -> None:
        """Hand one server packet to the ingress switch."""
        self._switches[self.ingress_switch].ingress(packet)

    def port_map(self, paths: Sequence[TopologyPath]
                 ) -> Dict[str, Tuple[str, ...]]:
        """switch -> sorted output ports implied by the active paths."""
        ports: Dict[str, List[str]] = {}
        for path in paths:
            chain = [n for n in path.nodes[1:-1]]  # switches + radio
            for here, there in zip(chain, chain[1:]):
                outs = ports.setdefault(here, [])
                if there not in outs:
                    outs.append(there)
        return {switch: tuple(sorted(outs))
                for switch, outs in sorted(ports.items())}

    def install_flow(self, flow_id: str,
                     paths: Sequence[TopologyPath],
                     priority: int = 10,
                     overrides: Optional[Mapping[str, Sequence[str]]]
                     = None) -> None:
        """Install the flow's rules for the given active paths.

        Every switch touched by a previous install is wiped of this
        flow's exact-match rules first (wildcard rules survive, exactly
        like :meth:`SdnSwitch.remove_rules_for`).  ``overrides`` replaces
        the computed output-port set for named switches — the hook the
        controller uses to splice a middlebox port into a branch.
        """
        port_map: Dict[str, Tuple[str, ...]] = dict(self.port_map(paths))
        for switch, ports in sorted((overrides or {}).items()):
            port_map[switch] = tuple(ports)
        for name in sorted(self._switches):
            self._switches[name].remove_rules_for(flow_id)
        for name, ports in sorted(port_map.items()):
            self._switches[name].install_rule(MatchAction(
                FlowMatch(flow_id=flow_id), list(ports),
                priority=priority))


def build_npath_topology(sim: Simulator, links: Sequence[WifiLink],
                         client: ClientCapture) -> Topology:
    """The canonical N-path graph: server -> core -> edge_i -> ap_i ->
    client, one chain per WiFi link.

    Returns the topology with ``paths`` populated (one
    :class:`TopologyPath` per link, in link order) and the core switch
    set as the server's ingress.
    """
    if len(links) < 2:
        raise ValueError("an N-path topology needs at least 2 links")
    topo = Topology(sim)
    topo.add_switch("core")
    topo.ingress_switch = "core"
    paths: List[TopologyPath] = []
    for i, link in enumerate(links):
        edge = f"edge{i}"
        ap = f"ap{i}"
        topo.add_switch(edge)
        topo.connect("core", edge)
        topo.attach_radio(edge, ap, link, client)
        paths.append(TopologyPath(
            name=ap, nodes=("server", "core", edge, ap, "client"),
            radio=ap))
    topo._paths = tuple(paths)
    return topo
