"""Beacons, TIM elements, and standard beacon-driven PSM retrieval.

Stock 802.11 power save works at *beacon granularity*: the AP announces
buffered frames for sleeping stations in the Traffic Indication Map (TIM)
of each beacon (default interval 102.4 ms); a station wakes for beacons,
sees its bit set, and polls the frames down.

That granularity is exactly why DiversiFi cannot just lean on standard
PSM: a packet missed on the primary link would, via beacon-driven
retrieval, arrive on average ~half a beacon interval later — already
outside the 100 ms MaxTolerableDelay budget.  DiversiFi's client instead
switches *just in time* using its own knowledge of the stream cadence
(Algorithm 1).  The :class:`StandardPsmClient` here is the baseline that
quantifies the difference (see ``benchmarks/test_ablation_psm.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.sim.engine import Simulator

#: the 802.11 default beacon interval (100 TU of 1024 us)
BEACON_INTERVAL_S = 0.1024
#: how long a polling station stays awake after a TIM-set beacon
DRAIN_WINDOW_S = 0.010


@dataclass
class Beacon:
    """One beacon frame (the fields the PSM machinery needs)."""

    timestamp: float
    #: TIM: does the AP hold buffered frames for this station?
    tim_set: bool
    sequence: int = 0


class BeaconScheduler:
    """Emits beacons for one AP every ``BEACON_INTERVAL_S``, from t=0.

    Subscribers receive :class:`Beacon` objects; the TIM bit reflects the
    AP's PSM buffer occupancy at transmission time.
    """

    def __init__(self, sim: Simulator, ap):
        self.sim = sim
        self.ap = ap
        self.beacons_sent = 0
        self._subscribers: List[Callable[[Beacon], None]] = []
        self._running = False

    def subscribe(self, callback: Callable[[Beacon], None]) -> None:
        self._subscribers.append(callback)

    def start(self) -> None:
        if self._running:
            raise RuntimeError("beacon scheduler already started")
        self._running = True
        self.sim.call_in(0.0, self._tick)

    def _tick(self) -> None:
        beacon = Beacon(timestamp=self.sim.now,
                        tim_set=self.ap.psm_queue_len > 0,
                        sequence=self.beacons_sent)
        self.beacons_sent += 1
        for subscriber in self._subscribers:
            subscriber(beacon)
        self.sim.call_in(BEACON_INTERVAL_S, self._tick)


class StandardPsmClient:
    """A station that retrieves buffered frames via beacon TIM + polling.

    On a TIM-set beacon the station wakes the AP (PS-Poll equivalent),
    receives the buffered frames, and goes back to sleep one
    ``DRAIN_WINDOW_S`` later.  Retrieval latency is therefore bounded
    below by the residual wait to the next beacon.
    """

    def __init__(self, sim: Simulator, ap, scheduler: BeaconScheduler):
        self.sim = sim
        self.ap = ap
        self.polls = 0
        self._draining = False
        ap.client_sleep()
        scheduler.subscribe(self._on_beacon)

    def _on_beacon(self, beacon: Beacon) -> None:
        if not beacon.tim_set or self._draining:
            return
        self.polls += 1
        self._draining = True
        self.ap.client_wake()

        def back_to_sleep():
            self.ap.client_sleep()
            self._draining = False

        self.sim.call_in(DRAIN_WINDOW_S, back_to_sleep)
