"""Safe regions installed on mobile nodes by the DKNN protocol.

A safe region is a predicate over an object's *own* position. While the
predicate holds the object stays silent; the first tick it fails, the
object reports a violation to the server. Three kinds exist:

* :class:`AnswerBand` — installed on current answer objects: "stay within
  distance ``radius`` of the anchor".
* :class:`OutsiderBand` — installed on informed non-answer candidates:
  "stay farther than ``radius`` from the anchor".
* :class:`QuerySafeCircle` — installed on the query's focal node: "stay
  within distance ``radius`` of the anchor" (the anchor is the query
  position at installation time).

All anchors are the query position ``q0`` frozen at installation, so a
region never has to be updated while the query drifts inside its own
safe circle: the band radii already include the ``s`` drift margin (see
``repro.core.regions``).
"""

from __future__ import annotations

from repro.errors import GeometryError

__all__ = ["SafeRegion", "AnswerBand", "OutsiderBand", "QuerySafeCircle"]

#: Relative slack on band predicates. Installations place objects
#: *exactly* on band boundaries (the effective margin is gap-capped, so
#: the k-th answer sits at radius ``t - s_eff == d_k`` in real
#: arithmetic); without slack, one ulp of float disagreement between
#: the install-time ``hypot`` and the check-time ``dx*dx + dy*dy``
#: triggers a spurious violation every tick. The slack is far below any
#: real per-tick displacement, so genuine crossings still report
#: immediately; its worst-case effect on answer validity is a relative
#: error of ~1e-9 in the distance ordering (see metrics.accuracy).
REGION_EPS = 1e-9
_SQ_SLACK_HI = (1.0 + REGION_EPS) ** 2
_SQ_SLACK_LO = (1.0 - REGION_EPS) ** 2


class SafeRegion:
    """Base class: an anchored distance predicate over a position."""

    __slots__ = ("ax", "ay", "radius")

    def __init__(self, ax: float, ay: float, radius: float) -> None:
        if radius < 0:
            raise GeometryError(f"negative safe-region radius {radius}")
        object.__setattr__(self, "ax", float(ax))
        object.__setattr__(self, "ay", float(ay))
        object.__setattr__(self, "radius", float(radius))

    # reach: guards immutability; nothing in the product assigns to a region
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    # reach: value equality, which node-equivalence checks compare
    # regions by; the product never compares two regions
    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.ax, self.ay, self.radius) == (
            other.ax,
            other.ay,
            other.radius,
        )

    # reach: pairs with __eq__ (defining __eq__ alone makes it unhashable)
    def __hash__(self) -> int:
        return hash((type(self).__name__, self.ax, self.ay, self.radius))

    # reach: for debugging output; no product report prints a region
    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(anchor=({self.ax:g}, {self.ay:g}), "
            f"radius={self.radius:g})"
        )

    # reach: abstract; every installed region is a subclass
    def contains(self, x: float, y: float) -> bool:
        """True while the object at ``(x, y)`` may stay silent."""
        raise NotImplementedError

    def violated(self, x: float, y: float) -> bool:
        """True the moment the object must report."""
        return not self.contains(x, y)


class AnswerBand(SafeRegion):
    """Stay *within* ``radius`` of the anchor (inclusive, with slack)."""

    __slots__ = ()

    def contains(self, x: float, y: float) -> bool:
        dx = x - self.ax
        dy = y - self.ay
        return dx * dx + dy * dy <= self.radius * self.radius * _SQ_SLACK_HI


class OutsiderBand(SafeRegion):
    """Stay *beyond* ``radius`` of the anchor (inclusive, with slack)."""

    __slots__ = ()

    def contains(self, x: float, y: float) -> bool:
        dx = x - self.ax
        dy = y - self.ay
        return dx * dx + dy * dy >= self.radius * self.radius * _SQ_SLACK_LO


class QuerySafeCircle(SafeRegion):
    """Query focal node: stay within ``radius`` of the install position."""

    __slots__ = ()

    def contains(self, x: float, y: float) -> bool:
        dx = x - self.ax
        dy = y - self.ay
        return dx * dx + dy * dy <= self.radius * self.radius * _SQ_SLACK_HI
