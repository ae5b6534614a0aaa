"""Multi-link association: virtual adapters and the switching NIC.

MultiNet-style virtualization (Chandra et al. [18]): one physical NIC
exposes several virtual station adapters, each with its own MAC address and
AP association.  Only one adapter is *active* (radio tuned to its channel)
at a time; the others are parked in PSM at their APs.

:class:`WifiManager` orchestrates switches: PSM-sleep on the current AP,
retune the radio, PSM-wake on the target — the paper's measured 2.8 ms
link-switch latency, broken down per Table 3 (2.3 ms switching + 0.5 ms
null frames).

The DiversiFi client (``repro.core.client``) drives this manager; the
association-request queue-length IE of Section 5.3.1 is modelled by
passing the desired PSM queue length when an adapter associates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs.registry import TimeWeightedGauge
from repro.obs.runtime import active_registry
from repro.sim.engine import Simulator
from repro.wifi.psm import CHANNEL_SWITCH_S, PowerSaveClient


@dataclass
class Association:
    """One virtual adapter's association with one AP."""

    adapter_name: str
    ap: object
    channel: int
    #: queue length requested via the association-request IE (None = stock)
    requested_queue_len: Optional[int] = None
    psm: Optional[PowerSaveClient] = None


@dataclass
class VirtualAdapter:
    """A software station interface with its own MAC address."""

    name: str
    mac_address: str
    association: Optional[Association] = None


class WifiManager:
    """The client's single physical NIC and its virtual adapters."""

    def __init__(self, sim: Simulator, rng):
        self.sim = sim
        self._rng = rng
        self.adapters: Dict[str, VirtualAdapter] = {}
        self._active: Optional[str] = None
        self._switching = False
        #: switch count + cumulative off-channel time (Figure 10 accounting)
        self.switch_count = 0
        self.off_channel_time_s = 0.0
        self._mac_counter = 0
        self._metrics = active_registry()
        # Session-local awake gauges (0/1 indicator; time-weighted mean =
        # the PSM wake ratio).  Kept off the registry until
        # :meth:`record_metrics` because each session's simulator clock
        # restarts at zero — registering the gauge directly would trip
        # the monotone-time check when one task runs several sessions.
        self._awake: Dict[str, TimeWeightedGauge] = {}

    def _awake_gauge(self, adapter_name: str
                     ) -> Optional[TimeWeightedGauge]:
        if self._metrics is None:
            return None
        gauge = self._awake.get(adapter_name)
        if gauge is None:
            gauge = TimeWeightedGauge()
            self._awake[adapter_name] = gauge
        return gauge

    def _mark_awake(self, adapter_name: str, awake: bool) -> None:
        gauge = self._awake_gauge(adapter_name)
        if gauge is not None:
            gauge.set(self.sim.now, 1.0 if awake else 0.0)

    def record_metrics(self, close_time: float) -> None:
        """Close this session's awake gauges and fold them into the
        registry (``wifi.awake{adapter=...}``); additive across runs."""
        if self._metrics is None:
            return
        for name in sorted(self._awake):
            local = self._awake[name]
            local.close(close_time)
            self._metrics.time_gauge("wifi.awake",
                                     adapter=name).merge(local)
        self._awake.clear()

    # ------------------------------------------------------------------

    def create_adapter(self, name: str) -> VirtualAdapter:
        """Create a virtual station interface (unique MAC)."""
        if name in self.adapters:
            raise ValueError(f"adapter {name!r} already exists")
        self._mac_counter += 1
        mac = f"02:00:00:00:00:{self._mac_counter:02x}"
        adapter = VirtualAdapter(name=name, mac_address=mac)
        self.adapters[name] = adapter
        return adapter

    def associate(self, adapter_name: str, ap, channel: int,
                  requested_queue_len: Optional[int] = None) -> Association:
        """Associate an adapter with an AP.

        ``requested_queue_len`` models the unused-IE signalling of the
        desired PSM buffer depth (applied only by customized APs).
        """
        adapter = self.adapters[adapter_name]
        psm = PowerSaveClient(
            self.sim, ap, self._rng,
            metric_labels={"adapter": adapter_name})
        association = Association(
            adapter_name=adapter_name, ap=ap, channel=channel,
            requested_queue_len=requested_queue_len, psm=psm)
        adapter.association = association
        if requested_queue_len is not None and hasattr(ap, "config"):
            # Customized APs honour the IE; stock APs ignore it.
            if getattr(ap.config, "drop_policy", "tail") == "head":
                ap.config = type(ap.config)(
                    drop_policy=ap.config.drop_policy,
                    max_queue_len=requested_queue_len,
                    hardware_queue_batch=ap.config.hardware_queue_batch)
        # Newly associated adapters start asleep unless made active.
        ap.client_sleep()
        return association

    # ------------------------------------------------------------------

    @property
    def active_adapter(self) -> Optional[str]:
        """Name of the adapter the radio is currently tuned to."""
        return self._active

    def activate(self, adapter_name: str) -> None:
        """Initial activation without a switch handshake (call once)."""
        association = self._require_association(adapter_name)
        self._active = adapter_name
        association.ap.client_wake()
        # Anchor every adapter's awake gauge here so the wake-ratio
        # observation period spans the whole session.
        for name, adapter in sorted(self.adapters.items()):
            if adapter.association is not None:
                self._mark_awake(name, name == adapter_name)

    def _require_association(self, adapter_name: str) -> Association:
        adapter = self.adapters.get(adapter_name)
        if adapter is None or adapter.association is None:
            raise ValueError(f"adapter {adapter_name!r} is not associated")
        return adapter.association

    def switch_to(self, adapter_name: str,
                  done_callback: Callable[[], None] = None) -> bool:
        """Switch the radio to another adapter's link.

        Sequence: PSM-sleep on the current AP, retune (2.3 ms), PSM-wake on
        the target AP.  Returns False (and does nothing) if a switch is
        already in flight or the target is already active.
        """
        if self._switching or adapter_name == self._active:
            return False
        target = self._require_association(adapter_name)
        self._switching = True
        self.switch_count += 1
        if self._metrics is not None:
            self._metrics.counter("wifi.switches",
                                  to=adapter_name).inc()
        switch_start = self.sim.now
        previous = self._active
        current = (self._require_association(self._active)
                   if self._active else None)

        def after_wake():
            self._switching = False
            self.off_channel_time_s += self.sim.now - switch_start
            self._mark_awake(adapter_name, True)
            if done_callback is not None:
                done_callback()

        def after_retune():
            self._active = adapter_name
            target.psm.send_wake(after_wake)

        def after_sleep():
            # Radio leaves the old channel: neither AP can reach us.
            self._active = None
            if previous is not None:
                self._mark_awake(previous, False)
            self.sim.call_in(CHANNEL_SWITCH_S, after_retune)

        if current is not None:
            current.psm.send_sleep(after_sleep)
        else:
            after_sleep()
        return True
