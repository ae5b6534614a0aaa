"""WifiLink: composition of propagation, fading, burst loss, interference
and MAC retransmission into per-packet outcomes.

One :class:`WifiLink` represents a client association to one AP on one
channel.  The Section 4 experiments render whole-call :class:`LinkTrace`
objects via :meth:`WifiLink.generate_trace`; the Section 6 event-driven
system uses :meth:`WifiLink.transmit` per packet.

Loss composition per MAC attempt at time t::

    SNR(t)   = SNR_rssi(position(t)) + fade(t) - interference_penalty(t)
    p_phy(t) = frame_error_prob(SNR(t), mcs)
    p(t)     = 1 - (1 - p_phy(t)) * (1 - p_gilbert(t))

The Gilbert–Elliott term models loss causes invisible to the SNR budget
(hidden terminals, collisions, firmware hiccups) and carries the burst
structure that Figure 4/5 measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple, Union

import numpy as np

from repro.channel.fading import (
    RayleighFading,
    RicianFading,
    SelectionDiversityFading,
)
from repro.channel.gilbert import GilbertElliott, GilbertParams
from repro.channel.interference import NullInterference
from repro.channel.mobility import Position, StaticPosition
from repro.channel.pathloss import LogDistancePathLoss, PathLossParams
from repro.core.packet import LinkTrace, render_trace
from repro.core.config import StreamProfile
from repro.wifi.mac import MacLayer
from repro.sim.random import RandomRouter
from repro.wifi.phy import (
    Mcs,
    PhyConfig,
    airtime_s,
    frame_error_prob,
    select_mcs,
)

#: how often rate control re-selects the MCS from the current mean SNR
#: (Minstrel-style long-term adaptation)
RATE_UPDATE_INTERVAL_S = 1.0


@dataclass
class LinkConfig:
    """Static description of one client–AP link."""

    name: str = "link"
    band: str = "2.4GHz"
    channel: int = 1
    ap_position: Position = field(default_factory=lambda: Position(1.0, 1.0))
    pathloss: PathLossParams = field(default_factory=PathLossParams)
    gilbert: GilbertParams = field(default_factory=GilbertParams)
    phy: PhyConfig = field(default_factory=PhyConfig)
    #: None -> Rayleigh fading; a K-factor in dB -> Rician
    rician_k_db: Optional[float] = None
    coherence_time_s: float = 0.050
    #: fixed wired-side + AP processing delay before the air interface
    base_delay_s: float = 0.004
    #: how often mobility re-rolls the shadowing term
    shadowing_update_s: float = 1.0
    #: redraw shadowing even for a static client (doors, people, carts —
    #: the environment moves even when the client does not)
    environment_drift: bool = False


class WifiLink:
    """A live link: stateful channel processes plus a MAC retry engine."""

    def __init__(self, config: LinkConfig, rng_router: RandomRouter,
                 mobility: Any = None, interference: Any = None) -> None:
        self.config = config
        self.name = config.name
        prefix = f"link.{config.name}"
        self._rng_loss = rng_router.stream(f"{prefix}.loss")
        self._rng_delay = rng_router.stream(f"{prefix}.delay")
        self._pathloss = LogDistancePathLoss(
            config.pathloss, rng_router.stream(f"{prefix}.shadow"))
        fading_rng = rng_router.stream(f"{prefix}.fading")
        self._fading: Union[RayleighFading, SelectionDiversityFading]
        if config.phy.n_spatial_branches > 1:
            self._fading = SelectionDiversityFading(
                fading_rng, config.phy.n_spatial_branches,
                config.coherence_time_s)
        elif config.rician_k_db is not None:
            self._fading = RicianFading(
                fading_rng, config.coherence_time_s, config.rician_k_db)
        else:
            self._fading = RayleighFading(
                fading_rng, config.coherence_time_s)
        self._gilbert = GilbertElliott(
            config.gilbert, rng_router.stream(f"{prefix}.gilbert"))
        self._mobility = mobility or StaticPosition(Position(10.0, 7.0))
        self._interference = interference or NullInterference()
        # A quiet channel adds no delay and no SNR penalty (x - 0.0 is
        # x), so the per-packet and per-attempt paths skip its calls.
        self._quiet = isinstance(self._interference, NullInterference)
        self._mac = MacLayer(rng_router.stream(f"{prefix}.mac"),
                             metric_labels={"link": config.name})
        self._last_shadow_update = 0.0
        # Channel processes require non-decreasing query times, but MAC
        # retry bursts for one packet can overrun the next packet's send
        # time.  The query clock monotonicizes: a query "in the past" is
        # answered with the current channel state (the skew is < a few ms,
        # far below every process's coherence timescale).
        self._query_clock = 0.0
        # Rate adaptation off the initial average SNR; re-run periodically.
        initial_snr_db = float(self.mean_snr_db(0.0))
        self._mcs = select_mcs(initial_snr_db)
        self._last_rate_update = 0.0
        # The per-attempt airtime, for the MCS and frame size it was
        # last computed for.
        self._airtime_for: Tuple[Optional[Mcs], int] = (None, 0)
        self._airtime_s = 0.0
        # A static client's slow SNR changes only when shadowing is
        # redrawn.  Without environment drift that never happens, so the
        # SNR is one number for the whole call; with drift it is cached
        # per shadowing value.  attempt_loss_prob reuses either instead
        # of recomputing path loss; a moving client takes the full path.
        static = isinstance(self._mobility, StaticPosition)
        self._static_snr_db: Optional[float] = (
            initial_snr_db
            if static and not config.environment_drift else None)
        self._drift_distance_m: Optional[float] = (
            self.distance_m(0.0)
            if static and config.environment_drift else None)
        self._drift_shadowing_db = self._pathloss.shadowing_db
        self._drift_snr_db = initial_snr_db

    def _clock(self, time: float) -> float:
        if time > self._query_clock:
            self._query_clock = time
        return self._query_clock

    # ------------------------------------------------------------------
    # observables

    def distance_m(self, time: float) -> float:
        """Current AP–client distance."""
        return self._mobility.distance_at(self._clock(time),
                                          self.config.ap_position)

    def rssi_dbm(self, time: float) -> float:
        """What the OS sees — drives the ``stronger`` selection policy."""
        self._maybe_update_shadowing(time)
        return self._pathloss.rssi_dbm(self.distance_m(time))

    def mean_snr_db(self, time: float) -> float:
        """Slow (RSSI-derived) SNR, before fading and interference."""
        self._maybe_update_shadowing(time)
        return self._pathloss.snr_db(self.distance_m(time))

    @property
    def mcs(self) -> Mcs:
        """The currently selected modulation-and-coding scheme."""
        return self._mcs

    # ------------------------------------------------------------------
    # channel evolution

    def _maybe_update_shadowing(self, time: float) -> None:
        moving = self._mobility.is_moving or self.config.environment_drift
        if (moving and time - self._last_shadow_update
                >= self.config.shadowing_update_s):
            self._pathloss.redraw_shadowing()
            self._last_shadow_update = time

    def _drift_snr(self, time: float, distance_m: float) -> float:
        """Slow SNR of a static client in a drifting environment."""
        self._maybe_update_shadowing(time)
        shadowing_db = self._pathloss.shadowing_db
        if shadowing_db != self._drift_shadowing_db:
            self._drift_shadowing_db = shadowing_db
            self._drift_snr_db = float(self._pathloss.snr_db(distance_m))
        return self._drift_snr_db

    def attempt_loss_prob(self, time: float) -> float:
        """Per-MAC-attempt loss probability at ``time``."""
        # The query clock and the rate-control check, inlined: this runs
        # once per MAC attempt.
        if time > self._query_clock:
            self._query_clock = time
        else:
            time = self._query_clock
        if time - self._last_rate_update >= RATE_UPDATE_INTERVAL_S:
            self._mcs = select_mcs(self.mean_snr_db(time))
            self._last_rate_update = time
        mean_snr_db = self._static_snr_db
        if mean_snr_db is None:
            if self._drift_distance_m is not None:
                mean_snr_db = self._drift_snr(time, self._drift_distance_m)
            else:
                mean_snr_db = float(self.mean_snr_db(time))
        # The instantaneous SNR: slow SNR + fade - interference penalty.
        snr = mean_snr_db + self._fading.fade_db(time)
        if not self._quiet:
            snr -= self._interference.snr_penalty_db(time)
        p_phy = frame_error_prob(snr, self._mcs)
        p_ge = self._gilbert.loss_probability(time)
        return 1.0 - (1.0 - p_phy) * (1.0 - p_ge)

    # ------------------------------------------------------------------
    # transmission

    def transmit(self, send_time: float,
                 size_bytes: int) -> Tuple[bool, float]:
        """Send one packet copy: ``(delivered, arrival_time)``.

        ``send_time`` is when the packet reaches the AP's transmit queue
        for this client (wired-side delay already included by the caller
        for system-mode runs; trace mode adds ``base_delay_s`` here).
        The arrival time of a lost copy is NaN.
        """
        air_start = send_time + self.config.base_delay_s
        if not self._quiet:
            air_start += self._interference.extra_delay_s(
                send_time, self._rng_delay)
        if self._airtime_for != (self._mcs, size_bytes):
            self._airtime_for = (self._mcs, size_bytes)
            self._airtime_s = airtime_s(size_bytes, self._mcs)
        delivered, _, service_time_s = self._mac.transmit(
            air_start, self.attempt_loss_prob, self._airtime_s)
        if not delivered:
            return False, math.nan
        return True, air_start + service_time_s

    def generate_trace(self, profile: StreamProfile) -> LinkTrace:
        """Render a whole call's outcomes as a :class:`LinkTrace`."""
        send_times = (np.arange(profile.n_packets)
                      * profile.inter_packet_spacing_s)
        return render_trace(self, self.name, send_times,
                            profile.packet_size_bytes)


def paired_links(config_a: LinkConfig, config_b: LinkConfig,
                 rng_router: RandomRouter,
                 mobility: Any = None, shared_interference: Any = None,
                 interference_a: Any = None, interference_b: Any = None
                 ) -> Tuple["WifiLink", "WifiLink"]:
    """Two links for one client, as in the two-NIC experiments.

    ``shared_interference`` (e.g. one :class:`MicrowaveOven` hitting both
    2.4 GHz channels) induces cross-link loss correlation; per-link
    interference keeps them independent.  A shared mobility model moves the
    client relative to both APs at once.
    """
    def combine(own: Any) -> Any:
        if shared_interference is None and own is None:
            return None
        if shared_interference is None:
            return own
        if own is None:
            return shared_interference
        from repro.channel.interference import CompositeInterference
        return CompositeInterference(shared_interference, own)

    link_a = WifiLink(config_a, rng_router, mobility=mobility,
                      interference=combine(interference_a))
    link_b = WifiLink(config_b, rng_router, mobility=mobility,
                      interference=combine(interference_b))
    return link_a, link_b
