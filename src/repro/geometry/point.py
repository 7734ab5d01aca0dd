"""Distance algebra on bare ``(x, y)`` float pairs.

The simulator has no point class: every layer passes coordinates as
plain floats (scalar paths) or numpy columns (vectorized paths), and
the functions here are the scalar recipes the columns must reproduce.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.errors import GeometryError

__all__ = ["dist", "translate_toward"]


def dist(x1: float, y1: float, x2: float, y2: float) -> float:
    """Euclidean distance between ``(x1, y1)`` and ``(x2, y2)``.

    Computed as ``sqrt(dx*dx + dy*dy)`` rather than ``math.hypot``:
    multiply, add and sqrt are IEEE-754 correctly rounded, so numpy
    reproduces this bit-for-bit, which the vectorized fast path
    (``repro.mobility.soa``, ``repro.core.fastpath``) relies on.
    ``math.hypot`` uses a corrected algorithm that differs from
    ``np.hypot`` in the last ulp for ~1% of inputs. Coordinates in this
    library are far from the ~1e154 overflow threshold of the squared
    form.
    """
    dx = x1 - x2
    dy = y1 - y2
    return math.sqrt(dx * dx + dy * dy)


def translate_toward(
    x: float, y: float, tx: float, ty: float, step: float
) -> Tuple[float, float]:
    """Move ``(x, y)`` toward ``(tx, ty)`` by at most ``step``.

    If the target is closer than ``step``, lands exactly on the target.
    ``step`` must be non-negative.
    """
    if step < 0:
        raise GeometryError(f"negative step {step}")
    d = dist(x, y, tx, ty)
    if d <= step or d == 0.0:
        return (tx, ty)
    f = step / d
    return (x + (tx - x) * f, y + (ty - y) * f)
