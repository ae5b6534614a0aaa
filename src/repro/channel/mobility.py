"""Client mobility models.

Mobility changes the AP–client distance over time (hence RSSI, hence loss)
and re-rolls shadowing as the client moves past obstructions.  The paper's
"client mobility" impairment scenario (Figure 6) uses random-waypoint walks
through the office floor; the 2-AP office setup of Section 6 places APs at
diagonal corners of a 30 m x 15 m floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class Position:
    """A 2-D point on the floor plan, metres."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return float(np.hypot(self.x - other.x, self.y - other.y))


class StaticPosition:
    """A client that stays put."""

    def __init__(self, position: Position):
        self._position = position

    def position_at(self, time: float) -> Position:
        return self._position

    def distance_at(self, time: float, point: Position) -> float:
        """Distance from the client to ``point`` at ``time``."""
        return self._position.distance_to(point)

    @property
    def is_moving(self) -> bool:
        return False


class RandomWaypointMobility:
    """Random-waypoint walk inside a rectangular floor.

    The client picks a uniform destination, walks at a uniform speed in
    [v_min, v_max], pauses, repeats.  Positions are queried lazily at
    non-decreasing times.
    """

    def __init__(self, rng: np.random.Generator,
                 floor: Tuple[float, float] = (30.0, 15.0),
                 speed_range: Tuple[float, float] = (0.5, 1.5),
                 pause_s: float = 2.0):
        self._rng = rng
        self.floor = floor
        self.speed_range = speed_range
        self.pause_s = pause_s
        self._time = 0.0
        self._position = self._random_point()
        self._begin_leg()

    @property
    def is_moving(self) -> bool:
        return True

    def _random_point(self) -> Position:
        return Position(float(self._rng.uniform(0, self.floor[0])),
                        float(self._rng.uniform(0, self.floor[1])))

    def _begin_leg(self) -> None:
        self._target = self._random_point()
        self._speed = float(self._rng.uniform(*self.speed_range))
        distance = self._position.distance_to(self._target)
        self._leg_start = self._time
        self._leg_end = self._time + distance / max(self._speed, 1e-9)
        self._pause_until = self._leg_end + self.pause_s
        self._leg_origin = self._position

    def position_at(self, time: float) -> Position:
        """Client position at ``time``.

        Queries slightly in the past (two links sharing one walk ask at
        interleaved times) are clamped to the walk's current time — the
        skew is milliseconds against legs lasting tens of seconds.
        """
        return Position(*self._coords_at(time))

    def distance_at(self, time: float, point: Position) -> float:
        """Distance from the client to ``point`` at ``time``: the float
        ``position_at(time).distance_to(point)`` returns, without building
        a :class:`Position` (a link asks once per MAC attempt)."""
        x, y = self._coords_at(time)
        return float(np.hypot(x - point.x, y - point.y))

    def _coords_at(self, time: float) -> Tuple[float, float]:
        time = max(time, self._time)
        while time >= self._pause_until:
            self._position = self._target
            self._time = self._pause_until
            self._begin_leg()
        self._time = max(self._time, time)
        target = self._target
        if time >= self._leg_end:
            return target.x, target.y
        origin = self._leg_origin
        frac = ((time - self._leg_start)
                / max(self._leg_end - self._leg_start, 1e-12))
        frac = min(max(frac, 0.0), 1.0)
        return (origin.x + frac * (target.x - origin.x),
                origin.y + frac * (target.y - origin.y))


#: the Section 6 office: APs at diagonal ends of a 30 m x 15 m floor
OFFICE_FLOOR = (30.0, 15.0)
OFFICE_AP_PRIMARY = Position(1.0, 1.0)
OFFICE_AP_SECONDARY = Position(29.0, 14.0)
