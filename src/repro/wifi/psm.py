"""802.11 power-save-mode signalling from the client side.

DiversiFi keeps its secondary association alive by parking it in PSM and
waking it only to retrieve lost packets (or for periodic keepalives).  The
sleep/wake handshake is a Null-Data frame with the Power Management bit
set/cleared; the paper's client adds 5 driver-level retries because a lost
sleep frame would leave the AP believing the client is still listening
(Section 5.4's ath9k bug fix).

The model charges a per-frame exchange time and, with small probability,
retries; total sleep + channel-switch + wake adds up to the paper's
measured 2.8 ms link-switch latency.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.obs.registry import Counter, LabelValue
from repro.obs.runtime import active_registry
from repro.sim.engine import Simulator


#: one null-frame + ACK exchange
FRAME_EXCHANGE_S = 0.0003
#: probability one exchange fails and is retried
FRAME_LOSS_PROB = 0.05
#: driver-level retries before giving up (paper: 5)
MAX_RETRIES = 5
#: radio retune time between channels (paper measurement: 2.3 ms)
CHANNEL_SWITCH_S = 0.0023


class PowerSaveClient:
    """Issues sleep/wake null frames for one association."""

    def __init__(self, sim: Simulator, ap, rng: np.random.Generator,
                 metric_labels: Optional[Dict[str, LabelValue]] = None):
        self.sim = sim
        self.ap = ap
        self._rng = rng
        #: exchanges attempted (observability)
        self.exchanges = 0
        self.retries = 0
        registry = active_registry()
        self._m_exchanges: Optional[Counter] = None
        self._m_retries: Optional[Counter] = None
        if registry is not None:
            labels = dict(metric_labels or {})
            self._m_exchanges = registry.counter("psm.exchanges", **labels)
            self._m_retries = registry.counter("psm.retries", **labels)

    def _exchange_duration(self) -> float:
        """Time to complete one null-frame exchange including retries."""
        duration = 0.0
        for attempt in range(MAX_RETRIES + 1):
            self.exchanges += 1
            if self._m_exchanges is not None:
                self._m_exchanges.inc()
            duration += FRAME_EXCHANGE_S
            if self._rng.random() >= FRAME_LOSS_PROB:
                return duration
            self.retries += 1
            if self._m_retries is not None:
                self._m_retries.inc()
        # All retries failed; the AP state is now stale.  The caller treats
        # this as a completed (slow) exchange — the paper's bug fix makes
        # this vanishingly rare.
        return duration

    def send_sleep(self, done_callback) -> None:
        """Tell the AP we are going to sleep; callback when ACKed."""
        duration = self._exchange_duration()

        def complete():
            self.ap.client_sleep()
            done_callback()

        self.sim.call_in(duration, complete)

    def send_wake(self, done_callback) -> None:
        """Tell the AP we are awake; callback when ACKed."""
        duration = self._exchange_duration()

        def complete():
            self.ap.client_wake()
            done_callback()

        self.sim.call_in(duration, complete)
