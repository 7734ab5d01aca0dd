"""Unit tests for the uniform grid index."""

import math

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.geometry import Rect
from repro.index import UniformGrid
from repro.metrics.cost import CostMeter


@pytest.fixture
def grid(universe):
    return UniformGrid(universe, 10)


class TestConstruction:
    def test_zero_cells_raises(self, universe):
        with pytest.raises(IndexError_):
            UniformGrid(universe, 0)

    def test_degenerate_universe_raises(self):
        with pytest.raises(IndexError_):
            UniformGrid(Rect(0, 0, 0, 10), 4)


class TestCellGeometry:
    def test_cell_of_interior(self, grid):
        assert grid.cell_of(500, 500) == (0, 0)
        assert grid.cell_of(1500, 2500) == (1, 2)

    def test_cell_of_max_boundary_clamps(self, grid):
        assert grid.cell_of(10_000, 10_000) == (9, 9)

    def test_cell_of_outside_raises(self, grid):
        with pytest.raises(IndexError_):
            grid.cell_of(-1, 0)

    def test_cell_min_dist_zero_inside(self, grid):
        assert grid.cell_min_dist((0, 0), 500, 500) == 0.0

    def test_cell_min_dist_matches_rect(self, grid):
        """The distance to the cell's rectangle, 1000 units a side."""
        for ci, cj in [(0, 0), (3, 7), (9, 9)]:
            lo_x, lo_y = ci * 1000.0, cj * 1000.0
            for x, y in [(0, 0), (5000, 5000), (9999, 1)]:
                gx = max(lo_x - x, 0.0, x - (lo_x + 1000.0))
                gy = max(lo_y - y, 0.0, y - (lo_y + 1000.0))
                assert grid.cell_min_dist((ci, cj), x, y) == pytest.approx(
                    math.hypot(gx, gy)
                )


def _cell(grid, x, y):
    """The ids in the cell holding ``(x, y)``."""
    return set(grid._store.cell(grid._lin_of(x, y)).tolist())


class TestMaintenance:
    def test_insert_and_lookup(self, grid):
        grid.insert(1, 100, 200)
        assert 1 in grid
        assert grid.position_of(1) == (100, 200)

    def test_duplicate_insert_raises(self, grid):
        grid.insert(1, 100, 200)
        with pytest.raises(IndexError_):
            grid.insert(1, 300, 300)

    def test_update_within_cell(self, grid):
        grid.insert(1, 100, 100)
        grid.update(1, 150, 150)
        assert grid.position_of(1) == (150, 150)
        assert _cell(grid, 500, 500) == {1}

    def test_update_across_cells(self, grid):
        grid.insert(1, 100, 100)
        grid.update(1, 5500, 100)
        assert _cell(grid, 500, 500) == set()
        assert _cell(grid, 5500, 500) == {1}

    def test_update_absent_raises(self, grid):
        with pytest.raises(IndexError_):
            grid.update(1, 0, 0)

    def test_empty_buckets_are_pruned(self, grid):
        grid.insert(1, 100, 100)
        grid.update(1, 9500, 9500)
        assert grid._store.gather(np.array([0])).tolist() == []

    def test_ids_iteration(self, grid):
        for i in range(5):
            grid.insert(i, i * 1000.0 + 1, 50)
        assert set(grid.ids()) == set(range(5))


class TestCircleCover:
    def test_cells_intersecting_circle_covers_members(self, grid):
        cells = set(grid.cells_intersecting_circle(5000, 5000, 1500))
        assert grid.cell_of(5000, 5000) in cells
        assert grid.cell_of(6400, 5000) in cells
        assert grid.cell_of(8000, 8000) not in cells

    def test_negative_radius_raises(self, grid):
        with pytest.raises(IndexError_):
            list(grid.cells_intersecting_circle(0, 0, -1))

    def test_zero_radius_returns_containing_cell(self, grid):
        cells = list(grid.cells_intersecting_circle(5500, 5500, 0))
        assert grid.cell_of(5500, 5500) in cells


class TestMetering:
    def test_updates_charge_meter(self, universe):
        meter = CostMeter()
        grid = UniformGrid(universe, 10, meter=meter)
        grid.insert(1, 0, 0)
        grid.update(1, 50, 50)
        at = np.array([60.0, 70.0])
        grid.update_batch(np.array([1, 2]), at, at)  # one known, one new
        assert meter.of(CostMeter.INDEX_UPDATE) == 4
