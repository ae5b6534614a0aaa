"""DiversiFi core: packets, replication strategies, and the client.

This package holds the paper's primary contribution:

* :mod:`repro.core.packet` — packet and trace types shared by the whole
  stack.
* :mod:`repro.core.strategies` — the Section 4 strategy zoo evaluated on
  paired link traces: ``stronger``, ``better``, ``divert``, ``temporal``,
  ``cross-link``.
* :mod:`repro.core.client` — the single-NIC DiversiFi client (Algorithm 1).
* :mod:`repro.core.controller` — end-to-end session wiring for the
  "Customized AP" and "Middlebox" architectures of Figure 7.
* :mod:`repro.core.config` — every tunable in one place.
"""

from repro.core.config import ClientConfig, StreamProfile
from repro.core.fec import FecConfig, apply_fec, render_fec_run
from repro.core.multilink import (
    MultiLinkRun,
    best_of,
    diversity_gain_curve,
    make_before_break,
    render_multilink_run,
)
from repro.core.packet import LinkTrace, Packet, StreamTrace

__all__ = [
    "ClientConfig",
    "FecConfig",
    "LinkTrace",
    "MultiLinkRun",
    "Packet",
    "StreamProfile",
    "StreamTrace",
    "apply_fec",
    "best_of",
    "diversity_gain_curve",
    "make_before_break",
    "render_fec_run",
    "render_multilink_run",
]
