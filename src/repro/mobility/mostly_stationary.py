"""Mostly-stationary mobility: a commuting minority in a still crowd.

The event engine's headline workload (E19): the overwhelming majority
of objects never move — parked vehicles, dormant sensors, idle users —
while a small fraction *commutes*: random-waypoint trips confined to a
shared duty-cycle window (``active_ticks`` out of every ``period``).
Outside the window everyone is parked, so entire stretches of ticks are
provably silent; the synchronous loop still charges every object on
every one of them, while the event engine skips them outright. The
window is synchronized across movers on purpose — staggered pauses
would leave some object mid-trip on almost every tick, and one moving
reporter is enough to force a full tick.

Both populations have vectorized fast-fleet kernels (the commuting
minority via ``_CommuteKernel``, whose parked phase is a single window
test); randomness is drawn only at waypoint arrivals, in ascending
object id, so the model is scalar/fast bit-identical like every other.
"""

from __future__ import annotations

import random
from typing import Tuple

from repro.errors import MobilityError
from repro.geometry import Rect, translate_toward
from repro.mobility.base import MobilityModel, Mover
from repro.mobility.stationary import StationaryMover

__all__ = ["CommuteMover", "MostlyStationaryModel"]


class CommuteMover(Mover):
    """Random-waypoint trips gated by a shared duty-cycle window.

    For the first ``active_ticks`` of every ``period`` ticks the object
    glides toward its current waypoint (drawing the next trip from the
    shared RNG stream on arrival, exactly like
    :class:`~repro.mobility.random_waypoint.RandomWaypointMover`);
    for the rest it is parked mid-trip. All movers share the window
    phase (every mover starts at phase 0), which is what makes the
    quiet stretch of each cycle fleet-wide.
    """

    def __init__(
        self,
        universe: Rect,
        speed_min: float,
        speed_max: float,
        period: int,
        active_ticks: int,
    ) -> None:
        super().__init__(universe, max_speed=speed_max)
        self.speed_min = speed_min
        self.speed_max = speed_max
        self.period = period
        self.active_ticks = active_ticks
        self._target: Tuple[float, float] = (0.0, 0.0)
        self._speed = 0.0
        self._t = 0  # steps taken; phase = _t % period, shared by design

    def _new_trip(self, rng: random.Random) -> None:
        u = self.universe
        self._target = (
            rng.uniform(u.xmin, u.xmax),
            rng.uniform(u.ymin, u.ymax),
        )
        self._speed = rng.uniform(self.speed_min, self.speed_max)

    def start(self, rng: random.Random) -> Tuple[float, float]:
        u = self.universe
        pos = (rng.uniform(u.xmin, u.xmax), rng.uniform(u.ymin, u.ymax))
        self._new_trip(rng)
        return pos

    # reach: a scalar Fleet's step, the per-object model FastFleet must
    # equal; FastFleet draws commute arrivals in its kernel instead
    def step(
        self, x: float, y: float, rng: random.Random
    ) -> Tuple[float, float]:
        phase = self._t % self.period
        self._t += 1
        if phase >= self.active_ticks:
            return (x, y)  # parked until the window comes around
        nx, ny = translate_toward(
            x, y, self._target[0], self._target[1], self._speed
        )
        if (nx, ny) == self._target:
            self._new_trip(rng)
        return (nx, ny)


class MostlyStationaryModel(MobilityModel):
    """Factory mixing stationary objects with commuting movers.

    Parameters
    ----------
    universe:
        The bounded region objects live in.
    speed_min, speed_max:
        Per-trip speed range of the moving minority.
    moving_fraction:
        Probability that an object moves at all (seeded per object from
        the fleet's RNG stream, so the mix is deterministic per seed).
    period, active_ticks:
        The shared duty cycle: movers travel during the first
        ``active_ticks`` of every ``period`` ticks and are parked for
        the rest. ``active_ticks == period`` degenerates to continuous
        (pause-free) random-waypoint motion.
    """

    def __init__(
        self,
        universe: Rect,
        speed_min: float = 25.0,
        speed_max: float = 50.0,
        moving_fraction: float = 0.02,
        period: int = 200,
        active_ticks: int = 40,
    ) -> None:
        super().__init__(universe)
        if speed_min < 0 or speed_max < speed_min:
            raise MobilityError(
                f"invalid speed range [{speed_min}, {speed_max}]"
            )
        if not 0.0 <= moving_fraction <= 1.0:
            raise MobilityError(
                f"moving_fraction must be in [0, 1], got {moving_fraction}"
            )
        if period < 1:
            raise MobilityError(f"period must be >= 1, got {period}")
        if not 1 <= active_ticks <= period:
            raise MobilityError(
                f"active_ticks must be in [1, period={period}], "
                f"got {active_ticks}"
            )
        self.speed_min = float(speed_min)
        self.speed_max = float(speed_max)
        self.moving_fraction = float(moving_fraction)
        self.period = int(period)
        self.active_ticks = int(active_ticks)

    @property
    def max_speed(self) -> float:
        return self.speed_max

    def make_mover(self, rng: random.Random) -> Mover:
        if rng.random() < self.moving_fraction:
            return CommuteMover(
                self.universe,
                self.speed_min,
                self.speed_max,
                self.period,
                self.active_ticks,
            )
        u = self.universe
        return StationaryMover(
            u,
            rng.uniform(u.xmin, u.xmax),
            rng.uniform(u.ymin, u.ymax),
        )
