"""BSSID scanning primitives.

Used by the Section 3.3 availability study: a scan yields the set of BSS
entries the client could *connect to* (i.e. networks it has credentials
for), from which the study counts BSSIDs and distinct channels — the bars
and dashes of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class BssEntry:
    """One beacon heard during a scan."""

    bssid: str
    ssid: str
    channel: int
    band: str
    rssi_dbm: float


@dataclass
class ScanResult:
    """The outcome of one scan at one location."""

    location: str
    #: the connectable networks heard (the client holds credentials)
    entries: List[BssEntry]

    @property
    def n_bssids(self) -> int:
        """Count of connectable BSSIDs (Figure 1 bars)."""
        return len({e.bssid for e in self.entries})

    @property
    def n_channels(self) -> int:
        """Count of distinct channels among connectable BSSIDs (dashes) —
        discounts virtual APs that share a radio."""
        return len({e.channel for e in self.entries})