"""Unit tests for repro.geometry.point."""

import math

import pytest

from repro.errors import GeometryError
from repro.geometry import dist, translate_toward


class TestDistances:
    def test_dist_simple(self):
        assert dist(0, 0, 3, 4) == 5.0

    def test_dist_zero(self):
        assert dist(7.5, -2.0, 7.5, -2.0) == 0.0

    def test_dist_symmetry(self):
        assert dist(1, 2, 5, 9) == dist(5, 9, 1, 2)

    def test_dist_negative_coordinates(self):
        assert dist(-3, -4, 0, 0) == 5.0


class TestTranslateToward:
    def test_lands_on_target_when_close(self):
        assert translate_toward(0, 0, 1, 0, 5) == (1.0, 0.0)

    def test_partial_step(self):
        x, y = translate_toward(0, 0, 10, 0, 4)
        assert (x, y) == (4.0, 0.0)

    def test_step_preserves_direction(self):
        x, y = translate_toward(0, 0, 3, 4, 2.5)
        assert math.hypot(x, y) == pytest.approx(2.5)
        assert y / x == pytest.approx(4 / 3)

    def test_zero_distance_target(self):
        assert translate_toward(2, 2, 2, 2, 1.0) == (2.0, 2.0)

    def test_negative_step_raises(self):
        with pytest.raises(GeometryError):
            translate_toward(0, 0, 1, 1, -0.5)
