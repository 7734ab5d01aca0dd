"""Unit tests for safe regions (repro.geometry.region)."""

import pytest

from repro.errors import GeometryError
from repro.geometry import AnswerBand, OutsiderBand, QuerySafeCircle, dist


class TestAnswerBand:
    def test_contains_within_radius(self):
        band = AnswerBand(0, 0, 10)
        assert band.contains(6, 8)  # exactly on the boundary
        assert band.contains(0, 0)

    def test_violated_outside(self):
        band = AnswerBand(0, 0, 10)
        assert band.violated(6.01, 8)


class TestOutsiderBand:
    def test_contains_beyond_radius(self):
        band = OutsiderBand(0, 0, 10)
        assert band.contains(6, 8)  # boundary is safe
        assert band.contains(100, 0)

    def test_violated_inside(self):
        band = OutsiderBand(0, 0, 10)
        assert band.violated(5, 5)

    def test_opposite_of_answer_band_in_interior(self):
        a = AnswerBand(0, 0, 10)
        o = OutsiderBand(0, 0, 10)
        for p in [(1, 1), (20, 0), (0, -30)]:
            if dist(0, 0, *p) != 10:
                assert a.contains(*p) != o.contains(*p)


class TestQuerySafeCircle:
    def test_contains_within(self):
        circle = QuerySafeCircle(5, 5, 3)
        assert circle.contains(7, 5)

    def test_violated_beyond(self):
        circle = QuerySafeCircle(5, 5, 3)
        assert circle.violated(9, 5)


class TestCommon:
    def test_negative_radius_raises(self):
        with pytest.raises(GeometryError):
            AnswerBand(0, 0, -1)

    def test_immutable(self):
        band = AnswerBand(0, 0, 1)
        with pytest.raises(AttributeError):
            band.radius = 2

    def test_equality_is_type_sensitive(self):
        assert AnswerBand(0, 0, 1) == AnswerBand(0, 0, 1)
        assert AnswerBand(0, 0, 1) != OutsiderBand(0, 0, 1)

    def test_hash_distinguishes_types(self):
        regions = {AnswerBand(0, 0, 1), OutsiderBand(0, 0, 1)}
        assert len(regions) == 2

    def test_repr_contains_radius(self):
        assert "radius=7" in repr(AnswerBand(0, 0, 7))
