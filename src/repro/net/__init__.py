"""Wired-side network substrate of the two Section 5 architectures.

* :mod:`repro.net.lan` — enterprise LAN forwarding (switch fabric).
* :mod:`repro.net.sdn` — an SDN-capable switch with match-action rules,
  including the packet-replication action DiversiFi installs (Section
  5.2.3, [12]).
* :mod:`repro.net.middlebox` — the Click-style buffering middlebox of the
  "Unmodified AP" architecture (Section 5.3.2), with the start/stop
  retrieval protocol and the load-dependent latency of Section 6.4.
"""

from repro.net.lan import LanSegment
from repro.net.middlebox import Middlebox, MiddleboxStats
from repro.net.sdn import FlowMatch, MatchAction, SdnSwitch

__all__ = [
    "FlowMatch",
    "LanSegment",
    "MatchAction",
    "Middlebox",
    "MiddleboxStats",
    "SdnSwitch",
]
