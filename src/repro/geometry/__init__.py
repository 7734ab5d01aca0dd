"""Geometry kernel: rectangles, distances, safe regions."""

from repro.geometry.point import dist, translate_toward
from repro.geometry.rect import Rect
from repro.geometry.region import (
    AnswerBand,
    OutsiderBand,
    QuerySafeCircle,
    SafeRegion,
)

__all__ = [
    "Rect",
    "SafeRegion",
    "AnswerBand",
    "OutsiderBand",
    "QuerySafeCircle",
    "dist",
    "translate_toward",
]
