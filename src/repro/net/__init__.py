"""Wired-side network substrate and the QoE-driven control plane.

Data plane:

* :mod:`repro.net.lan` — enterprise LAN forwarding (switch fabric).
* :mod:`repro.net.sdn` — an SDN-capable switch with match-action rules,
  including the packet-replication action DiversiFi installs (Section
  5.2.3, [12]).
* :mod:`repro.net.middlebox` — the Click-style buffering middlebox of the
  "Unmodified AP" architecture (Section 5.3.2), with the start/stop
  retrieval protocol and the load-dependent latency of Section 6.4.

Control plane:

* :mod:`repro.net.topology` — multi-switch N-path topology graphs
  (server -> core -> edge_i -> ap_i -> client), event-driven.
* :mod:`repro.net.netmetrics` — per-port counters, rolling EWMA link
  metrics and the E-model QoE scorer the controller decides on.
* :mod:`repro.net.controller` — the periodic QoE controller driving
  per-flow rerouting, hedging with middlebox duplicate suppression, and
  RAIL-style always-on replication.
"""

from repro.net.controller import (
    CONTROLLER_MODES,
    ControllerConfig,
    ControllerStats,
    QoeController,
)
from repro.net.lan import LanSegment
from repro.net.middlebox import Middlebox, MiddleboxStats
from repro.net.netmetrics import (
    PortSample,
    PortStats,
    PortStatsReader,
    RollingLinkMetrics,
)
from repro.net.sdn import FlowMatch, MatchAction, SdnSwitch
from repro.net.topology import (
    ClientCapture,
    RadioPort,
    StreamSource,
    Topology,
    TopologyPath,
    WiredHop,
    build_npath_topology,
)

__all__ = [
    "CONTROLLER_MODES",
    "ClientCapture",
    "ControllerConfig",
    "ControllerStats",
    "FlowMatch",
    "LanSegment",
    "MatchAction",
    "Middlebox",
    "MiddleboxStats",
    "PortSample",
    "PortStats",
    "PortStatsReader",
    "QoeController",
    "RadioPort",
    "RollingLinkMetrics",
    "SdnSwitch",
    "StreamSource",
    "Topology",
    "TopologyPath",
    "WiredHop",
    "build_npath_topology",
]
