"""Property-based tests for the geometry kernel."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    AnswerBand,
    OutsiderBand,
    Rect,
    dist,
    translate_toward,
)

coord = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
radius = st.floats(min_value=0, max_value=1e6, allow_nan=False)
step = st.floats(min_value=0, max_value=1e6, allow_nan=False)


@given(coord, coord, coord, coord)
def test_dist_is_symmetric_and_nonnegative(x1, y1, x2, y2):
    d = dist(x1, y1, x2, y2)
    assert d >= 0
    assert d == dist(x2, y2, x1, y1)


@given(coord, coord, coord, coord, coord, coord)
def test_triangle_inequality(x1, y1, x2, y2, x3, y3):
    d12 = dist(x1, y1, x2, y2)
    d23 = dist(x2, y2, x3, y3)
    d13 = dist(x1, y1, x3, y3)
    assert d13 <= d12 + d23 + 1e-6 * (1 + d13)


@given(coord, coord, coord, coord, step)
def test_translate_toward_never_overshoots(x, y, tx, ty, s):
    nx, ny = translate_toward(x, y, tx, ty, s)
    moved = dist(x, y, nx, ny)
    assert moved <= s + 1e-6 * (1 + s)
    # And never moves farther from the target than it started.
    assert dist(nx, ny, tx, ty) <= dist(x, y, tx, ty) + 1e-9


rect_strategy = st.tuples(coord, coord, radius, radius).map(
    lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3])
)


@given(rect_strategy, coord, coord)
def test_rect_clamp_point_achieves_min_dist(rect, x, y):
    cx, cy = rect.clamp_point(x, y)
    assert rect.contains_point(cx, cy)
    # the distance to the rectangle, one axis gap at a time
    gx = max(rect.xmin - x, 0.0, x - rect.xmax)
    gy = max(rect.ymin - y, 0.0, y - rect.ymax)
    assert math.isclose(
        dist(x, y, cx, cy), math.hypot(gx, gy), rel_tol=1e-9, abs_tol=1e-9
    )


@given(coord, coord, radius, coord, coord)
def test_answer_outsider_bands_cover_plane(ax, ay, r, x, y):
    """Every point satisfies at least one of the two band predicates."""
    a = AnswerBand(ax, ay, r)
    o = OutsiderBand(ax, ay, r)
    assert a.contains(x, y) or o.contains(x, y)
