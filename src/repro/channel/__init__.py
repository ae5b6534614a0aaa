"""Wireless channel substrate.

Models that turn a link configuration into per-packet outcomes with the
statistics the paper's analysis rests on: bursty within-link loss
(Gilbert–Elliott), RSSI from path loss + shadowing, small-scale fading,
external interference (microwave ovens, congestion), and client mobility.

The composition point is :class:`repro.channel.link.WifiLink`, which renders
a whole call's worth of per-packet (delivered?, delay) outcomes, and
:func:`repro.channel.link.paired_links`, which builds two links with
controllable cross-correlation for the Section 4 experiments.
"""

from repro.channel.cellular import CellularLink
from repro.channel.gilbert import (
    GilbertElliott,
    GilbertParams,
    sample_loss_array,
)
from repro.channel.pathloss import LogDistancePathLoss, rssi_to_snr_db
from repro.channel.fading import RayleighFading, RicianFading
from repro.channel.interference import (
    CongestionProcess,
    MicrowaveOven,
    NullInterference,
)
from repro.channel.mobility import RandomWaypointMobility, StaticPosition
from repro.channel.link import LinkConfig, WifiLink, paired_links

__all__ = [
    "CellularLink",
    "CongestionProcess",
    "GilbertElliott",
    "GilbertParams",
    "sample_loss_array",
    "LinkConfig",
    "LogDistancePathLoss",
    "MicrowaveOven",
    "NullInterference",
    "RandomWaypointMobility",
    "RayleighFading",
    "RicianFading",
    "StaticPosition",
    "WifiLink",
    "paired_links",
    "rssi_to_snr_db",
]
