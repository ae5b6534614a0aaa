"""Every tunable of the DiversiFi system in one place.

Defaults are the paper's: Algorithm 1's constants, the G.711-like stream
profile of Section 4 (64 kbps, 160-byte packets, 20 ms spacing, 2-minute
calls), and the AP queue sizing rule APQueueLen = MaxTolerableDelay /
InterPktSpacing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class StreamProfile:
    """Characterizes a real-time stream (what RTP profile lookup yields)."""

    name: str = "g711"
    packet_size_bytes: int = 160
    inter_packet_spacing_s: float = 0.020
    duration_s: float = 120.0

    @property
    def n_packets(self) -> int:
        """Packets in one call (paper: 6000 for a 2-minute G.711 call)."""
        return int(round(self.duration_s / self.inter_packet_spacing_s))


#: Section 4's VoIP workload: 64 kbps, 160 B, 20 ms, 2 minutes.
G711_PROFILE = StreamProfile()

#: Section 4.5's high-rate workload: 5 Mbps, 1000 B packets, 1.6 ms spacing.
HIGH_RATE_PROFILE = StreamProfile(
    name="highrate", packet_size_bytes=1000,
    inter_packet_spacing_s=0.0016, duration_s=120.0)


def profile_for(highrate: bool,
                duration_s: Optional[float]) -> StreamProfile:
    """The Section 4 stream: the high-rate or G.711 profile, with an
    optional call-length override."""
    base = HIGH_RATE_PROFILE if highrate else G711_PROFILE
    if duration_s is None:
        return base
    return replace(base, duration_s=duration_s)


#: Algorithm 1's link switch latency, LSL (measured: 2.8 ms)
LINK_SWITCH_LATENCY_S = 0.0028
#: Algorithm 1's MaxTolerableDelay, MTD: the one-way delay budget for the
#: WiFi hop (paper: 100 ms)
MAX_TOLERABLE_DELAY_S = 0.100
#: Algorithm 1's secondary residency time, SRT
SECONDARY_RESIDENCY_TIME_S = 0.040
#: multiplier on IPS for the packet-loss timeout (PLT = 2 * IPS)
PACKET_LOSS_TIMEOUT_FACTOR = 2.0


@dataclass(frozen=True)
class ClientConfig:
    """Algorithm 1's constants (paper Section 5.3.1).

    Derived quantities (PacketLossTimeout, APQueueLen) are properties so
    that changing a base constant keeps them consistent.
    """

    inter_packet_spacing_s: float = 0.020       # IPS
    association_keepalive_timeout_s: float = 30.0  # AKT

    @property
    def packet_loss_timeout_s(self) -> float:
        """PLT = 2 * IPS (= 40 ms with defaults)."""
        return PACKET_LOSS_TIMEOUT_FACTOR * self.inter_packet_spacing_s

    @property
    def ap_queue_len(self) -> int:
        """APQL = MTD / IPS (= 5 with defaults)."""
        return int(round(MAX_TOLERABLE_DELAY_S
                         / self.inter_packet_spacing_s))

    def for_profile(self, profile: StreamProfile) -> "ClientConfig":
        """A config whose timing constants match a stream profile."""
        return ClientConfig(
            inter_packet_spacing_s=profile.inter_packet_spacing_s,
            association_keepalive_timeout_s=(
                self.association_keepalive_timeout_s))


@dataclass(frozen=True)
class APConfig:
    """Access-point buffering behaviour (Section 5.3.1)."""

    #: "head" (DiversiFi's customized AP) or "tail" (stock PSM buffering)
    drop_policy: str = "head"
    #: maximum PSM buffer length in packets (paper: 5 for VoIP;
    #: stock OpenWRT default is 64)
    max_queue_len: int = 5
    #: how many queued packets the AP hands to the hardware queue in one go
    #: when the client wakes; >1 models firmware that flushes several PS
    #: frames at once (a source of wasteful duplication, Section 5.3.1)
    hardware_queue_batch: int = 1


@dataclass(frozen=True)
class MiddleboxConfig:
    """Click-style middlebox behaviour (Sections 5.3.2 and 6.4)."""

    #: head-drop buffer depth per flow
    buffer_len: int = 5

