"""The BSSID availability site survey (Section 3.3, Figure 1).

The paper scanned connectable networks at enterprise and public venues in
Bengaluru, Seattle and Singapore, counting (a) BSSIDs the client had
credentials for and (b) distinct channels among them (to discount virtual
APs sharing one radio).  Findings: 6 BSSIDs at the median (2..13 across
locations, 6 even in-flight); 4 distinct channels at the median (2..9).
In the residential-heavy NetTest population, only ~30% of homes saw more
than one connectable BSSID.

The model generates per-venue AP deployments from venue-class densities:
enterprises deploy many APs of one ESS across channels; hotels/malls run
managed deployments with virtual APs; homes usually have a single AP
(sometimes dual-band).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.sim.random import RandomRouter
from repro.wifi.scan import BssEntry, ScanResult

#: 2.4 GHz non-overlapping + common 5 GHz channels used by deployments
_CHANNELS_24 = [1, 6, 11]
_CHANNELS_5 = [36, 40, 44, 48, 149, 153, 157, 161]


@dataclass(frozen=True)
class VenueClass:
    """AP-count and channel-spread statistics for one kind of venue."""

    name: str
    min_aps: int
    max_aps: int
    #: probability an AP is dual-band (adds a 5 GHz BSSID)
    dual_band_prob: float
    #: probability each AP also broadcasts a second (virtual) SSID
    virtual_ap_prob: float


VENUE_CLASSES = {
    "office": VenueClass("office", 3, 6, 0.6, 0.3),
    "campus": VenueClass("campus", 4, 7, 0.5, 0.2),
    "hotel": VenueClass("hotel", 2, 5, 0.5, 0.5),
    "mall": VenueClass("mall", 2, 5, 0.4, 0.5),
    "apartment": VenueClass("apartment", 2, 4, 0.5, 0.2),
    "airport": VenueClass("airport", 2, 6, 0.5, 0.4),
    "conference": VenueClass("conference", 3, 7, 0.6, 0.3),
    "downtown": VenueClass("downtown", 2, 3, 0.4, 0.3),
    "inflight": VenueClass("inflight", 2, 3, 0.0, 0.9),
    "home": VenueClass("home", 1, 1, 0.25, 0.05),
}


@dataclass
class SurveyLocation:
    """One surveyed location."""

    label: str
    city: str
    venue_class: str


#: the survey route: 16 locations across the three cities
#: residential clients the multi-BSSID fraction is measured over
N_HOMES = 500

SURVEY_LOCATIONS: Sequence[SurveyLocation] = (
    SurveyLocation("BLR office 1", "Bengaluru", "office"),
    SurveyLocation("BLR office 2", "Bengaluru", "office"),
    SurveyLocation("BLR apartment", "Bengaluru", "apartment"),
    SurveyLocation("BLR mall", "Bengaluru", "mall"),
    SurveyLocation("BLR conference", "Bengaluru", "conference"),
    SurveyLocation("BLR downtown", "Bengaluru", "downtown"),
    SurveyLocation("SEA office", "Seattle", "office"),
    SurveyLocation("SEA campus", "Seattle", "campus"),
    SurveyLocation("SEA hotel", "Seattle", "hotel"),
    SurveyLocation("SEA mall", "Seattle", "mall"),
    SurveyLocation("SEA airport", "Seattle", "airport"),
    SurveyLocation("SIN office", "Singapore", "office"),
    SurveyLocation("SIN serviced apt", "Singapore", "apartment"),
    SurveyLocation("SIN hotel", "Singapore", "hotel"),
    SurveyLocation("SIN downtown", "Singapore", "downtown"),
    SurveyLocation("In-flight", "-", "inflight"),
)


def _scan_venue(venue: VenueClass, rng: np.random.Generator,
                location: str) -> ScanResult:
    """Generate one location's connectable scan."""
    n_aps = int(rng.integers(venue.min_aps, venue.max_aps + 1))
    entries: List[BssEntry] = []
    bssid_counter = 0
    for ap in range(n_aps):
        channel_24 = int(rng.choice(_CHANNELS_24))
        rssi = float(rng.uniform(-80.0, -45.0))

        def add(channel: int, band: str) -> None:
            nonlocal bssid_counter
            bssid_counter += 1
            entries.append(BssEntry(
                bssid=f"{location[:2]}:{bssid_counter:02x}",
                ssid=f"{venue.name}-net", channel=channel, band=band,
                rssi_dbm=rssi + float(rng.normal(0, 2.0))))

        add(channel_24, "2.4GHz")
        if rng.random() < venue.virtual_ap_prob:
            # A virtual AP shares the same radio (same channel).
            add(channel_24, "2.4GHz")
        if rng.random() < venue.dual_band_prob:
            add(int(rng.choice(_CHANNELS_5)), "5GHz")
    return ScanResult(location, entries)


def run_site_survey(seed: int = 0
                    ) -> List[Tuple[SurveyLocation, ScanResult]]:
    """Scan every survey location (Figure 1's bars and dashes)."""
    router = RandomRouter(seed)
    results: List[Tuple[SurveyLocation, ScanResult]] = []
    for i, location in enumerate(SURVEY_LOCATIONS):
        rng = router.stream(f"scan.{i}.{location.label}")
        venue = VENUE_CLASSES[location.venue_class]
        results.append((location, _scan_venue(venue, rng, location.label)))
    return results


def residential_multi_bssid_fraction(seed: int = 0) -> float:
    """Fraction of (NetTest-style) residential clients with more than one
    connectable BSSID over ``N_HOMES`` homes — the paper found ~30%."""
    router = RandomRouter(seed)
    home = VENUE_CLASSES["home"]
    multi = 0
    for i in range(N_HOMES):
        rng = router.stream(f"home.{i}")
        scan = _scan_venue(home, rng, f"home{i}")
        if scan.n_bssids > 1:
            multi += 1
    return multi / N_HOMES
