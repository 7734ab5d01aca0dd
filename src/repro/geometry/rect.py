"""Axis-aligned rectangles: the universe every layer is bounded by."""

from __future__ import annotations

from typing import Tuple

from repro.errors import GeometryError

__all__ = ["Rect"]


class Rect:
    """A closed axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``.

    Degenerate (zero-area) rectangles are allowed; inverted ones are not.
    """

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float) -> None:
        if xmin > xmax or ymin > ymax:
            raise GeometryError(
                f"inverted rect [{xmin}, {xmax}] x [{ymin}, {ymax}]"
            )
        object.__setattr__(self, "xmin", float(xmin))
        object.__setattr__(self, "ymin", float(ymin))
        object.__setattr__(self, "xmax", float(xmax))
        object.__setattr__(self, "ymax", float(ymax))

    # reach: guards immutability; nothing in the product assigns to a Rect
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Rect is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return (self.xmin, self.ymin, self.xmax, self.ymax) == (
            other.xmin,
            other.ymin,
            other.xmax,
            other.ymax,
        )

    # reach: pairs with __eq__ (defining __eq__ alone makes Rect unhashable)
    def __hash__(self) -> int:
        return hash((self.xmin, self.ymin, self.xmax, self.ymax))

    # reach: formats the universe in out-of-universe error messages
    def __repr__(self) -> str:
        return (
            f"Rect({self.xmin:g}, {self.ymin:g}, {self.xmax:g}, {self.ymax:g})"
        )

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def contains_point(self, x: float, y: float) -> bool:
        """True if ``(x, y)`` lies in the closed rectangle."""
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def clamp_point(self, x: float, y: float) -> Tuple[float, float]:
        """The point of the rectangle nearest to ``(x, y)``."""
        cx = min(max(x, self.xmin), self.xmax)
        cy = min(max(y, self.ymin), self.ymax)
        return (cx, cy)
