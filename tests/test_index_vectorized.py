"""Property tests: the numpy engines equal the scalar ones to the ulp.

Both the brute-force oracle (``repro.index.bruteforce``) and the grid
(``bulk_load``/``rebuild``) auto-dispatch between a scalar loop and a
vectorized engine. The two must agree *exactly* — same distances bit
for bit, same ``(distance, oid)`` tie-breaks, same ``exclude``
semantics — because answers from either engine are compared against
client band decisions made with the shared sqrt recipe. Duplicate
coordinates are generated on purpose: ties are where a wrong sort key
or an unstable partition shows up.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.geometry import Rect
from repro.index import UniformGrid, knn_search, range_search
from repro.index.bruteforce import (
    brute_knn_np,
    brute_knn_scalar,
    brute_range_np,
    brute_range_scalar,
)
from repro.metrics.accuracy import is_valid_knn
from repro.metrics.cost import CostMeter
from repro.server import ObjectTable

UNIVERSE = Rect(0, 0, 1000, 1000)

# A few fixed coordinates mixed with free floats forces duplicate
# points (distance ties) into most examples.
coord = st.one_of(
    st.sampled_from([0.0, 250.0, 500.0, 500.0000000001, 1000.0]),
    st.floats(min_value=0, max_value=1000, allow_nan=False),
)
point = st.tuples(coord, coord)
points = st.lists(point, min_size=1, max_size=90)
query = st.tuples(
    st.floats(min_value=-200, max_value=1200, allow_nan=False),
    st.floats(min_value=-200, max_value=1200, allow_nan=False),
)
k_value = st.integers(min_value=1, max_value=15)
excludes = st.sets(st.integers(0, 89))


@given(points, query, k_value, excludes)
@settings(max_examples=150, deadline=None)
def test_brute_knn_engines_agree(ps, q, k, exclude):
    scalar = brute_knn_scalar(ps, q[0], q[1], k, exclude)
    vector = brute_knn_np(ps, q[0], q[1], k, exclude)
    assert vector == scalar  # bitwise: distances are floats


@given(
    points,
    query,
    st.floats(min_value=0, max_value=1500, allow_nan=False),
    excludes,
)
@settings(max_examples=150, deadline=None)
def test_brute_range_engines_agree(ps, q, r, exclude):
    scalar = brute_range_scalar(ps, q[0], q[1], r, exclude)
    vector = brute_range_np(ps, q[0], q[1], r, exclude)
    assert vector == scalar


@given(points, query, k_value)
@settings(max_examples=100, deadline=None)
def test_is_valid_knn_engines_agree(ps, q, k):
    """The validity verdict must not depend on the population size.

    ``is_valid_knn`` switches engines on fleet size; replicating the
    population past the threshold must keep the verdict for an answer
    drawn from the scalar oracle.
    """
    answer = {oid for _, oid in brute_knn_scalar(ps, q[0], q[1], k)}
    small = is_valid_knn(ps, q[0], q[1], k, answer)
    assert small
    if len(answer) < k:
        return  # padding would make a short answer legitimately invalid
    big_ps = ps + [(2_000_000.0 + i, 2_000_000.0) for i in range(80)]
    assert is_valid_knn(big_ps, q[0], q[1], k, answer)


# -- grid bulk operations ----------------------------------------------------


cells = st.integers(min_value=1, max_value=25)


def _snapshot(grid):
    return (
        {cell: frozenset(ids) for cell, ids in grid._buckets.items() if ids},
        dict(grid._positions),
        dict(grid._cells),
    )


@given(points, cells)
@settings(max_examples=120, deadline=None)
def test_bulk_load_matches_incremental_inserts(ps, n_cells):
    xs = np.array([p[0] for p in ps])
    ys = np.array([p[1] for p in ps])
    oids = np.arange(len(ps))

    incremental = UniformGrid(UNIVERSE, n_cells)
    for oid, (x, y) in enumerate(ps):
        incremental.insert(oid, x, y)

    bulk = UniformGrid(UNIVERSE, n_cells)
    bulk.bulk_load(oids, xs, ys)
    assert _snapshot(bulk) == _snapshot(incremental)

    rebuilt = UniformGrid(UNIVERSE, n_cells)
    rebuilt.insert(999, 1.0, 1.0)  # pre-existing content must vanish
    rebuilt.rebuild(oids, xs, ys)
    assert _snapshot(rebuilt) == _snapshot(incremental)


@given(points, cells)
@settings(max_examples=60, deadline=None)
def test_bulk_load_charges_like_inserts(ps, n_cells):
    m1, m2 = CostMeter(), CostMeter()
    incremental = UniformGrid(UNIVERSE, n_cells, meter=m1)
    for oid, (x, y) in enumerate(ps):
        incremental.insert(oid, x, y)
    bulk = UniformGrid(UNIVERSE, n_cells, meter=m2)
    bulk.bulk_load(
        np.arange(len(ps)),
        np.array([p[0] for p in ps]),
        np.array([p[1] for p in ps]),
    )
    assert m1.units == m2.units


def test_bulk_load_rejects_bad_input_without_mutating():
    grid = UniformGrid(UNIVERSE, 8)
    grid.insert(5, 10.0, 10.0)
    for oids, xs, ys in [
        ([1, 2], [1.0], [1.0, 2.0]),  # length mismatch
        ([1, 1], [1.0, 2.0], [1.0, 2.0]),  # duplicate ids
        ([1, 5], [1.0, 2.0], [1.0, 2.0]),  # id already indexed
        ([1, 2], [1.0, 5000.0], [1.0, 2.0]),  # outside universe
    ]:
        try:
            grid.bulk_load(np.array(oids), np.array(xs), np.array(ys))
        except Exception:
            pass
        else:  # pragma: no cover
            raise AssertionError(f"bulk_load accepted {oids}/{xs}/{ys}")
        assert len(grid) == 1 and grid.position_of(5) == (10.0, 10.0)


# -- dense backend vs dict backend -------------------------------------------
#
# One random operation sequence drives a dict-backed and a dense
# UniformGrid (grid operations) and a dict-backed and a dense
# ObjectTable (table operations). After every operation each pair must
# hold the same buckets, positions and dead-reckoning columns, answer
# every search identically and have charged the same units per
# category; an operation that raises must raise on both backends and
# change neither.

GRID_OPS = ("insert", "update", "upsert", "remove", "update_batch")
oid_st = st.integers(min_value=0, max_value=40)
# Mostly inside the universe, sometimes just outside it.
wild = st.one_of(coord, st.sampled_from([-0.5, 1000.5]))
row = st.tuples(oid_st, wild, wild)
op_st = st.one_of(
    st.tuples(st.sampled_from(["insert", "update", "upsert", "report"]), row),
    st.tuples(st.sampled_from(["remove", "forget"]), oid_st),
    st.tuples(
        st.sampled_from(["update_batch", "report_batch"]),
        st.lists(row, max_size=12, unique_by=lambda r: r[0]),
    ),
    st.tuples(st.just("tick"), st.just(None)),
)
search_st = st.tuples(
    query,
    st.one_of(st.just(0.0), st.floats(min_value=0, max_value=1500)),
    st.integers(min_value=1, max_value=60),  # k, often > population
    st.one_of(st.just(frozenset()), st.frozensets(oid_st, max_size=4)),
)


def _grid_state(grid):
    ids = sorted(grid.ids())
    return {
        "len": len(grid),
        "cells": {
            (ci, cj): frozenset(grid.objects_in_cell((ci, cj)))
            for ci in range(grid.cells)
            for cj in range(grid.cells)
            if grid.objects_in_cell((ci, cj))
        },
        "nonempty": set(grid.nonempty_cells()),
        "pos": {o: grid.position_of(o) for o in ids},
        "pos_arrays": [
            a.tolist() for a in grid.positions_of(np.array(ids, dtype=np.int64))
        ],
    }


def _table_state(table, tick):
    ids = sorted(table.ids())
    return {
        "grid": _grid_state(table.grid),
        "len": len(table),
        "prev": {o: table.previous_position(o) for o in ids},
        "rtick": {o: table.report_tick_of(o) for o in ids},
        "fresh": {
            o: (table.is_fresh(o, tick), table.is_fresh(o, tick - 1))
            for o in range(45)
        },
        "stale": table.stale(np.arange(45), tick).tolist(),
    }


def _apply(target, op, arg, tick):
    """One operation on a grid (GRID_OPS) or a table (the rest); the
    dict backend spells a batch call as one scalar call per row."""
    if op in ("update_batch", "report_batch"):
        ids, xs, ys = (
            [np.array(c) for c in zip(*arg)] if arg else [np.zeros(0)] * 3
        )
        ids = ids.astype(np.int64)
        if target._dense:
            if op == "update_batch":
                target.update_batch(ids, xs, ys)
            else:
                target.report_batch(ids, xs, ys, tick)
        elif not all(UNIVERSE.contains_point(x, y) for _, x, y in arg):
            # The batch calls validate every row before writing any.
            raise IndexError_("batch row outside universe")
        else:
            for o, x, y in arg:
                if op == "update_batch":
                    target.upsert(o, x, y)
                else:
                    target.report(o, x, y, tick)
    elif op == "report":
        target.report(*arg, tick)
    elif op in ("remove", "forget"):
        getattr(target, op)(arg)
    else:
        getattr(target, op)(*arg)


@given(
    st.integers(min_value=1, max_value=9),
    st.lists(op_st, min_size=1, max_size=30),
    st.lists(search_st, min_size=1, max_size=3),
)
@settings(max_examples=120, deadline=None)
def test_dense_backend_matches_dict_backend(n_cells, ops, searches):
    meters = [CostMeter() for _ in range(4)]
    grids = [UniformGrid(UNIVERSE, n_cells, meter=m) for m in meters[:2]]
    tables = [
        ObjectTable(UNIVERSE, n_cells, theta=10.0, meter=m) for m in meters[2:]
    ]
    # Capacity hints below the id range: the columns must grow.
    grids[1].enable_dense(4)
    tables[1].enable_dense(4)
    tick = 1
    for op, arg in ops:
        if op == "tick":
            tick += 1
            continue
        if op in GRID_OPS:
            pair, pair_meters = grids, meters[:2]
            state = _grid_state
        else:
            pair, pair_meters = tables, meters[2:]
            state = lambda t: _table_state(t, tick)  # noqa: E731
        before = [state(t) for t in pair]
        units = [m.units.copy() for m in pair_meters]
        raised = []
        for target in pair:
            try:
                _apply(target, op, arg, tick)
                raised.append(False)
            except IndexError_:
                raised.append(True)
        assert raised[0] == raised[1], (op, arg)
        after = [state(t) for t in pair]
        assert after[0] == after[1], (op, arg)
        if raised[0]:
            assert after == before, (op, arg)
            assert [m.units for m in pair_meters] == units
        for plain, dense, m_plain, m_dense in (
            (grids[0], grids[1], meters[0], meters[1]),
            (tables[0].grid, tables[1].grid, meters[2], meters[3]),
        ):
            for (qx, qy), r, k, exclude in searches:
                assert range_search(
                    dense, qx, qy, r, exclude=exclude
                ) == range_search(plain, qx, qy, r, exclude=exclude)
                assert +m_plain.units == +m_dense.units
                assert knn_search(
                    dense, qx, qy, k, exclude=exclude
                ) == knn_search(plain, qx, qy, k, exclude=exclude)
                assert +m_plain.units == +m_dense.units


def test_dense_backend_rejects_bad_input_without_mutating():
    table = ObjectTable(UNIVERSE, 8, theta=10.0, meter=CostMeter())
    table.enable_dense(4)
    table.report(5, 10.0, 10.0, tick=1)
    grid = table.grid
    state, units = _table_state(table, 1), table.meter.units.copy()
    one = np.array([1.0])
    for call in (
        lambda: grid.insert(-1, 1.0, 1.0),  # negative oid
        lambda: grid.insert(5, 1.0, 1.0),  # duplicate id
        lambda: table.report(-3, 1.0, 1.0, 1),
        lambda: grid.update_batch(np.array([-2]), one, one),
        lambda: grid.update_batch(np.array([1, 2]), one, one),  # lengths
        lambda: table.report_batch(np.array([1, 2]), one, one, 1),
        lambda: grid.update_batch(np.array([5]), one, np.array([1000.5])),
        lambda: grid.positions_of(np.array([5, 6])),  # 6 absent
        lambda: grid.positions_of(np.array([5, -1])),
        lambda: grid.positions_of(np.array([5, 10**9])),
        lambda: range_search(grid, 1.0, 1.0, -1.0),
        lambda: knn_search(grid, 1.0, 1.0, 0),
    ):
        with pytest.raises(IndexError_):
            call()
        assert _table_state(table, 1) == state
        assert table.meter.units == units
