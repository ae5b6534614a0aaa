"""An SDN-capable switch with match-action rules.

DiversiFi's middlebox architecture (Figure 7(c)) has the client install a
match-action rule — via a controller API like [23] — that replicates its
real-time downlink flow: one copy to the client via the primary AP, one to
the middlebox.  The switch here implements a miniature OpenFlow-style
pipeline: ordered rules with flow matches and output/replicate actions,
plus counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.packet import Packet
from repro.sim.engine import Simulator

#: per-packet forwarding delay of a switch
FORWARDING_DELAY_S = 0.0001


@dataclass(frozen=True)
class FlowMatch:
    """Fields a rule can match on (None = wildcard)."""

    flow_id: Optional[str] = None

    def matches(self, packet: Packet) -> bool:
        return self.flow_id is None or packet.flow_id == self.flow_id


@dataclass
class MatchAction:
    """One rule: match -> output to one or more ports."""

    match: FlowMatch
    output_ports: List[str]
    priority: int = 0
    packets_matched: int = 0


class SdnSwitch:
    """Ordered match-action forwarding with per-rule counters."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._ports: Dict[str, Callable[[Packet], None]] = {}
        self._rules: List[MatchAction] = []
        self.table_misses = 0

    def attach_port(self, port: str,
                    sink: Callable[[Packet], None]) -> None:
        """Connect a named output port to a sink callable."""
        self._ports[port] = sink

    def install_rule(self, rule: MatchAction) -> None:
        """Install a rule; higher priority wins, FIFO among equals."""
        for port in rule.output_ports:
            if port not in self._ports:
                raise ValueError(f"rule outputs to unknown port {port!r}")
        self._rules.append(rule)
        self._rules.sort(key=lambda r: -r.priority)

    def ingress(self, packet: Packet) -> None:
        """Process an arriving packet through the rule table.

        The replicate action forwards the packet to every port; table
        misses are dropped (counted), as DiversiFi's deployment installs a
        default rule for all other traffic — modelled by a wildcard rule.
        """
        for rule in self._rules:
            if rule.match.matches(packet):
                rule.packets_matched += 1
                for port in rule.output_ports:
                    self.sim.call_in(FORWARDING_DELAY_S,
                                     self._ports[port], packet)
                return
        self.table_misses += 1
