"""The fleet: all mobile objects of a simulation, advanced in lockstep.

Object ids are dense integers ``0..n-1``; :attr:`Fleet.positions` is
indexable by object id. The fleet is the *ground truth* of the
simulation — protocol layers only ever see positions through messages.

The fleet enforces two safety properties every tick, because protocol
correctness depends on them:

* every position stays inside the universe;
* no object moves farther than its mover's declared ``max_speed``
  (plus a small float tolerance).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import MobilityError
from repro.geometry import Rect, dist
from repro.mobility.base import MobilityModel, Mover

__all__ = ["Fleet"]

_SPEED_TOLERANCE = 1e-6


class Fleet:
    """All moving objects, advanced one synchronous tick at a time."""

    def __init__(self, movers: Sequence[Mover], seed: int = 0) -> None:
        if not movers:
            raise MobilityError("fleet needs at least one mover")
        universe = movers[0].universe
        for m in movers:
            if m.universe != universe:
                raise MobilityError("all movers must share one universe")
        self.universe: Rect = universe
        self._movers: List[Mover] = list(movers)
        # Computed once: the fleet-wide bound is consulted by builders
        # and band-width planning on every construction, and per-mover
        # speeds are immutable after construction.
        self._speeds: List[float] = [m.max_speed for m in self._movers]
        self._max_speed: float = max(self._speeds)
        self._rng = random.Random(seed)
        self.tick: int = 0
        self.positions: List[Tuple[float, float]] = []
        for m in self._movers:
            pos = m.start(self._rng)
            if not universe.contains_point(pos[0], pos[1]):
                raise MobilityError(
                    f"mover produced start {pos} outside universe {universe}"
                )
            self.positions.append(pos)

    @classmethod
    def from_model(
        cls,
        model: MobilityModel,
        n: int,
        seed: int = 0,
        extra_movers: Optional[Sequence[Mover]] = None,
    ) -> "Fleet":
        """Build a fleet of ``n`` objects from one model.

        ``extra_movers`` are appended after the ``n`` model-driven
        objects and receive the next ids — used to add query focal
        objects with their own motion (e.g. a different speed class).
        """
        if n < 1:
            raise MobilityError(f"fleet size must be >= 1, got {n}")
        rng = random.Random(seed)
        movers: List[Mover] = [model.make_mover(rng) for _ in range(n)]
        if extra_movers:
            movers.extend(extra_movers)
        return cls(movers, seed=seed)

    @property
    def n(self) -> int:
        """Number of objects in the fleet."""
        return len(self._movers)

    @property
    def max_speed(self) -> float:
        """Fleet-wide per-tick displacement bound (protocol margin V)."""
        return self._max_speed

    def max_speed_of(self, oid: int) -> float:
        """Per-tick displacement bound of one object."""
        return self._speeds[oid]

    def position_of(self, oid: int) -> Tuple[float, float]:
        """Ground-truth position of object ``oid`` at the current tick."""
        return self.positions[oid]

    def advance(self) -> None:
        """Move every object one tick, enforcing the safety properties."""
        rng = self._rng
        universe = self.universe
        for oid, mover in enumerate(self._movers):
            x, y = self.positions[oid]
            nx, ny = mover.step(x, y, rng)
            if not universe.contains_point(nx, ny):
                raise MobilityError(
                    f"object {oid} left universe: ({nx}, {ny})"
                )
            moved = dist(x, y, nx, ny)
            if moved > mover.max_speed + _SPEED_TOLERANCE:
                raise MobilityError(
                    f"object {oid} moved {moved:.6f} > declared "
                    f"max_speed {mover.max_speed:.6f}"
                )
            self.positions[oid] = (nx, ny)
        self.tick += 1
