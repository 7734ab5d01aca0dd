"""Unit tests for grid kNN / range search against the brute oracle."""

import random

import pytest

from repro.errors import IndexError_
from repro.geometry import Rect
from repro.index import UniformGrid, brute_knn, brute_knn_ids, brute_range
from repro.index.knn import knn_search
from tests.per_query import range_search
from repro.metrics.cost import CostMeter


def _populate(universe, n, seed, cells=16):
    rng = random.Random(seed)
    positions = [
        (rng.uniform(universe.xmin, universe.xmax),
         rng.uniform(universe.ymin, universe.ymax))
        for _ in range(n)
    ]
    grid = UniformGrid(universe, cells)
    for oid, (x, y) in enumerate(positions):
        grid.insert(oid, x, y)
    return grid, positions


class TestKnnBasics:
    def test_k_must_be_positive(self, universe):
        grid, _ = _populate(universe, 10, 0)
        with pytest.raises(IndexError_):
            knn_search(grid, 0, 0, 0)

    def test_empty_grid_returns_empty(self, universe):
        grid = UniformGrid(universe, 8)
        assert knn_search(grid, 5000, 5000, 3) == []

    def test_fewer_objects_than_k(self, universe):
        grid, positions = _populate(universe, 4, 1)
        result = knn_search(grid, 5000, 5000, 10)
        assert sorted(oid for _, oid in result) == [0, 1, 2, 3]

    def test_single_object(self, universe):
        grid = UniformGrid(universe, 8)
        grid.insert(7, 1234, 5678)
        assert [oid for _, oid in knn_search(grid, 0, 0, 1)] == [7]

    def test_exclude_removes_candidates(self, universe):
        grid, positions = _populate(universe, 20, 2)
        full = brute_knn_ids(positions, 5000, 5000, 3)
        excl = knn_search(grid, 5000, 5000, 3, exclude=frozenset(full[:1]))
        assert full[0] not in [oid for _, oid in excl]

    def test_query_outside_universe_is_clamped(self, universe):
        grid, positions = _populate(universe, 30, 3)
        result = knn_search(grid, -500, -500, 5)
        expected = brute_knn_ids(positions, -500, -500, 5)
        assert [oid for _, oid in result] == expected

    def test_result_is_sorted_by_distance_then_id(self, universe):
        grid, _ = _populate(universe, 50, 4)
        result = knn_search(grid, 5000, 5000, 10)
        assert result == sorted(result)

    def test_ties_broken_by_id(self, universe):
        grid = UniformGrid(universe, 8)
        grid.insert(5, 1000, 0)
        grid.insert(2, 0, 1000)
        result = knn_search(grid, 0, 0, 1)
        assert [oid for _, oid in result] == [2]


class TestKnnMatchesBruteForce:
    @pytest.mark.parametrize("n,cells", [(30, 4), (200, 16), (500, 48)])
    def test_random_queries(self, universe, n, cells):
        grid, positions = _populate(universe, n, seed=n, cells=cells)
        rng = random.Random(n + 1)
        for _ in range(50):
            qx = rng.uniform(0, 10_000)
            qy = rng.uniform(0, 10_000)
            k = rng.randint(1, 15)
            got = [oid for _, oid in knn_search(grid, qx, qy, k)]
            want = brute_knn_ids(positions, qx, qy, k)
            assert got == want

    def test_clustered_points(self, universe):
        rng = random.Random(5)
        grid = UniformGrid(universe, 20)
        positions = []
        for oid in range(200):
            cx, cy = (2000, 2000) if oid % 2 else (8000, 8000)
            p = (cx + rng.uniform(-100, 100), cy + rng.uniform(-100, 100))
            grid.insert(oid, *p)
            positions.append(p)
        got = [oid for _, oid in knn_search(grid, 2000, 2000, 7)]
        assert got == brute_knn_ids(positions, 2000, 2000, 7)


class TestRangeSearch:
    def test_negative_radius_raises(self, universe):
        grid, _ = _populate(universe, 10, 0)
        with pytest.raises(IndexError_):
            range_search(grid, 0, 0, -1)

    def test_matches_brute_force(self, universe):
        grid, positions = _populate(universe, 300, 9)
        rng = random.Random(10)
        for _ in range(40):
            cx, cy = rng.uniform(0, 10_000), rng.uniform(0, 10_000)
            r = rng.uniform(0, 3000)
            got = [oid for _, oid in range_search(grid, cx, cy, r)]
            want = [oid for _, oid in brute_range(positions, cx, cy, r)]
            assert got == want

    def test_zero_radius(self, universe):
        grid = UniformGrid(universe, 8)
        grid.insert(1, 500, 500)
        assert [oid for _, oid in range_search(grid, 500, 500, 0)] == [1]
        assert range_search(grid, 501, 500, 0) == []


class TestBruteForce:
    def test_brute_knn_requires_positive_k(self):
        with pytest.raises(IndexError_):
            brute_knn([(0.0, 0.0)], 0, 0, 0)

    def test_brute_range_requires_nonnegative_radius(self):
        with pytest.raises(IndexError_):
            brute_range([(0.0, 0.0)], 0, 0, -1)

    def test_brute_knn_exclusion(self):
        positions = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        assert brute_knn_ids(positions, 0, 0, 2, exclude={0}) == [1, 2]


class TestSearchCostAccounting:
    def test_knn_charges_meter(self, universe):
        meter = CostMeter()
        grid, _ = _populate(universe, 100, 11)
        knn_search(grid, 5000, 5000, 5, meter=meter)
        assert meter.of(CostMeter.DIST_CALC) > 0
        assert meter.of(CostMeter.CELL_VISIT) > 0

    def test_knn_visits_few_cells_for_small_k(self, universe):
        meter = CostMeter()
        grid, _ = _populate(universe, 2000, 12, cells=32)
        knn_search(grid, 5000, 5000, 3, meter=meter)
        assert meter.of(CostMeter.CELL_VISIT) < 32 * 32 / 4
