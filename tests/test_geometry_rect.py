"""Unit tests for repro.geometry.rect."""

import pytest

from repro.errors import GeometryError
from repro.geometry import Rect


class TestConstruction:
    def test_inverted_x_raises(self):
        with pytest.raises(GeometryError):
            Rect(5, 0, 1, 10)

    def test_inverted_y_raises(self):
        with pytest.raises(GeometryError):
            Rect(0, 10, 10, 5)

    def test_degenerate_allowed(self):
        r = Rect(3, 3, 3, 3)
        assert (r.width, r.height) == (0.0, 0.0)

    def test_immutable(self):
        r = Rect(0, 0, 1, 1)
        with pytest.raises(AttributeError):
            r.xmin = -1

    def test_equality_and_hash(self):
        assert Rect(0, 0, 1, 1) == Rect(0, 0, 1, 1)
        assert len({Rect(0, 0, 1, 1), Rect(0, 0, 1, 1)}) == 1


class TestMeasures:
    def test_width_height(self):
        r = Rect(1, 2, 4, 8)
        assert (r.width, r.height) == (3, 6)


class TestPredicates:
    def test_contains_point_inside(self):
        assert Rect(0, 0, 10, 10).contains_point(5, 5)

    def test_contains_point_boundary(self):
        assert Rect(0, 0, 10, 10).contains_point(10, 0)

    def test_contains_point_outside(self):
        assert not Rect(0, 0, 10, 10).contains_point(10.001, 5)


class TestConstructive:
    def test_clamp_point_inside(self):
        assert Rect(0, 0, 10, 10).clamp_point(3, 4) == (3, 4)

    def test_clamp_point_outside(self):
        assert Rect(0, 0, 10, 10).clamp_point(-5, 20) == (0, 10)
