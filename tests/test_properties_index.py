"""Property-based tests: grid search equals brute force, always."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.index import (
    UniformGrid,
    brute_knn_ids,
    brute_range,
    knn_search,
    range_search,
)

UNIVERSE = Rect(0, 0, 1000, 1000)

point = st.tuples(
    st.floats(min_value=0, max_value=1000, allow_nan=False),
    st.floats(min_value=0, max_value=1000, allow_nan=False),
)
points = st.lists(point, min_size=0, max_size=60)
query = st.tuples(
    st.floats(min_value=-200, max_value=1200, allow_nan=False),
    st.floats(min_value=-200, max_value=1200, allow_nan=False),
)
cells = st.integers(min_value=1, max_value=25)
k_value = st.integers(min_value=1, max_value=12)


def _grid(ps, n_cells):
    grid = UniformGrid(UNIVERSE, n_cells)
    for oid, (x, y) in enumerate(ps):
        grid.insert(oid, x, y)
    return grid


@given(points, query, k_value, cells)
@settings(max_examples=150, deadline=None)
def test_knn_matches_brute_force(ps, q, k, n_cells):
    grid = _grid(ps, n_cells)
    got = [oid for _, oid in knn_search(grid, q[0], q[1], k)]
    want = brute_knn_ids(ps, q[0], q[1], k)
    assert got == want


@given(points, query, k_value, cells, st.sets(st.integers(0, 59)))
@settings(max_examples=80, deadline=None)
def test_knn_with_exclusion_matches_brute_force(ps, q, k, n_cells, exclude):
    grid = _grid(ps, n_cells)
    got = [oid for _, oid in knn_search(grid, q[0], q[1], k, exclude=exclude)]
    want = brute_knn_ids(ps, q[0], q[1], k, exclude=exclude)
    assert got == want


@given(
    points,
    query,
    st.floats(min_value=0, max_value=1500, allow_nan=False),
    cells,
)
@settings(max_examples=150, deadline=None)
def test_range_matches_brute_force(ps, q, r, n_cells):
    grid = _grid(ps, n_cells)
    got = [oid for _, oid in range_search(grid, q[0], q[1], r)]
    want = [oid for _, oid in brute_range(ps, q[0], q[1], r)]
    assert got == want


@given(points, cells, st.lists(point, min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_knn_correct_after_updates(ps, n_cells, moves):
    """Move objects around, then re-verify search correctness."""
    if not ps:
        return
    grid = _grid(ps, n_cells)
    positions = list(ps)
    for i, (nx, ny) in enumerate(moves):
        oid = i % len(positions)
        grid.update(oid, nx, ny)
        positions[oid] = (nx, ny)
    got = [oid for _, oid in knn_search(grid, 500, 500, 5)]
    assert got == brute_knn_ids(positions, 500, 500, 5)


@given(points, cells)
@settings(max_examples=60, deadline=None)
def test_grid_length_tracks_population(ps, n_cells):
    grid = _grid(ps, n_cells)
    n = len(ps)
    assert len(list(grid.ids())) == n
    # everyone into the corner cell: still n members, all in that cell
    grid.update_batch(np.arange(n), np.zeros(n), np.zeros(n))
    assert len(list(grid.ids())) == n
    assert sorted(grid.box_members(0.0, 0.0, 0.0).tolist()) == list(range(n))
