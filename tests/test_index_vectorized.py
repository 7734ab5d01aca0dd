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

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.geometry import Rect
from repro.index import UniformGrid, knn_search, range_search
from repro.index.knn import range_search_arrays
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


def _check_store(grid):
    """The dense cell store's own invariant: every present oid sits
    exactly once in ``members``, inside the written part of the region
    of ``_dcell[oid]``, with ``slot[oid]`` pointing at it."""
    store, dcell = grid._store, grid._dcell
    n_cells = grid.cells * grid.cells
    present = np.flatnonzero(dcell >= 0)
    assert len(grid) == present.shape[0]
    live_at = np.flatnonzero(store.members >= 0)
    assert sorted(store.members[live_at].tolist()) == present.tolist()
    slots = store.slot[present]
    assert (store.members[slots] == present).all()
    lins = dcell[present]
    assert (store.start[lins] <= slots).all()
    assert (slots < store.fill[lins]).all()
    assert (store.start[:-1] <= store.fill).all()
    assert (store.fill <= store.start[1:]).all()
    assert store.start[-1] == store.members.shape[0]
    region = np.searchsorted(store.start, live_at, side="right") - 1
    assert (
        np.bincount(region, minlength=n_cells).tolist()
        == np.bincount(lins, minlength=n_cells).tolist()
    )


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
        _check_store(grids[1])
        _check_store(tables[1].grid)
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


# -- the dense cell store under churn ----------------------------------------
#
# The sequences above rarely fill a region. These aim every row at one
# of three cells and move many ids per step, so tombstones pile up,
# regions overflow and the whole table is re-laid; the grid starts as a
# populated dict grid (enable_dense migrates it, with a capacity hint
# below the id range) and the steps include rebuild, remove followed by
# re-insert, and batches mixing new and known ids.

anchor = st.sampled_from(
    [(10.0, 10.0), (990.0, 10.0), (500.0, 990.0), (10.0, 10.5)]
)
churn_oid = st.integers(min_value=0, max_value=70)
churn_rows = st.lists(
    st.tuples(churn_oid, anchor), max_size=40, unique_by=lambda r: r[0]
)
churn_op = st.one_of(
    st.tuples(st.sampled_from(["update_batch", "rebuild"]), churn_rows),
    st.tuples(st.just("upsert"), st.tuples(churn_oid, anchor)),
    st.tuples(st.just("remove"), churn_oid),
)


def _columns(rows):
    return (
        np.array([o for o, _ in rows], dtype=np.int64),
        np.array([x for _, (x, _) in rows], dtype=np.float64),
        np.array([y for _, (_, y) in rows], dtype=np.float64),
    )


@given(
    st.integers(min_value=2, max_value=6),
    churn_rows,
    st.lists(churn_op, min_size=1, max_size=40),
)
@settings(max_examples=80, deadline=None)
def test_dense_store_matches_dict_backend_under_churn(n_cells, seed, ops):
    meters = [CostMeter(), CostMeter()]
    plain, dense = (UniformGrid(UNIVERSE, n_cells, meter=m) for m in meters)
    for grid in (plain, dense):
        for oid, (x, y) in seed:
            grid.insert(oid, x, y)
    dense.enable_dense(4)
    _check_store(dense)
    assert _grid_state(dense) == _grid_state(plain)
    for op, arg in ops:
        raised = []
        for grid in (plain, dense):
            try:
                if op == "rebuild":
                    grid.rebuild(*_columns(arg))
                elif op == "update_batch" and grid is dense:
                    grid.update_batch(*_columns(arg))
                elif op == "update_batch":
                    for oid, (x, y) in arg:
                        grid.upsert(oid, x, y)
                elif op == "upsert":
                    grid.upsert(arg[0], *arg[1])
                else:
                    grid.remove(arg)
                raised.append(False)
            except IndexError_:
                raised.append(True)
        assert raised[0] == raised[1], (op, arg)
        _check_store(dense)
        assert _grid_state(dense) == _grid_state(plain), (op, arg)
        assert meters[0].units == meters[1].units
    for qx, qy in ((10.0, 10.0), (600.0, 400.0)):
        assert range_search(dense, qx, qy, 700.0) == range_search(
            plain, qx, qy, 700.0
        )
        assert knn_search(dense, qx, qy, 9) == knn_search(plain, qx, qy, 9)
    assert +meters[0].units == +meters[1].units


def test_dense_store_relays_when_a_region_overflows():
    """200 ids shuttle between two cells of a 4x4 grid: every round
    leaves 200 tombstones behind, so regions overflow and the table is
    re-laid again and again — without ever growing past its bound."""
    grid = UniformGrid(UNIVERSE, 4, meter=CostMeter())
    grid.enable_dense(8)  # ids grow past the hint
    oids = np.arange(200, dtype=np.int64)
    here, there = np.full(200, 10.0), np.full(200, 990.0)
    relays, layout = 0, grid._store.members
    for round_ in range(30):
        xs = here if round_ % 2 else there
        old, new = grid.update_batch(oids, xs, xs)
        assert (old == (-1 if round_ == 0 else 15 * (round_ % 2))).all()
        assert (new == 15 * (1 - round_ % 2)).all()
        _check_store(grid)
        if grid._store.members is not layout:
            relays, layout = relays + 1, grid._store.members
        # 2.5 slots per member + the per-cell share and constant
        assert grid._store.members.shape[0] <= 2.5 * 200 + 16 * (200 // 16 + 9)
    assert relays > 3
    assert grid.objects_in_cell((0, 0)) == set(range(200))
    assert grid.nonempty_cells() == [(0, 0)]
    # remove, then re-insert the same id somewhere else
    grid.remove(7)
    assert 7 not in grid.objects_in_cell((0, 0))
    grid.insert(7, 990.0, 990.0)
    assert grid.objects_in_cell((3, 3)) == {7}
    _check_store(grid)


def test_update_batch_rejects_duplicate_ids_without_mutating():
    table = ObjectTable(UNIVERSE, 8, theta=10.0, meter=CostMeter())
    table.enable_dense(4)
    for oid in range(6):
        table.report(oid, 10.0 + oid, 10.0, tick=1)
    grid = table.grid
    state, units = _table_state(table, 1), table.meter.units.copy()
    members = grid._store.members.copy()
    slots = grid._store.slot.copy()
    far = np.array([900.0, 500.0, 900.0])
    for call in (
        # id 2 leaves its cell for two different cells
        lambda: grid.update_batch(np.array([2, 3, 2]), far, far),
        lambda: table.report_batch(np.array([2, 3, 2]), far, far, 2),
        # a new id twice
        lambda: grid.update_batch(np.array([9, 9]), far[:2], far[:2]),
    ):
        with pytest.raises(IndexError_, match="duplicate"):
            call()
        assert _table_state(table, 1) == state
        assert table.meter.units == units
        assert (grid._store.members == members).all()
        assert (grid._store.slot[:6] == slots[:6]).all()
        _check_store(grid)


# -- count-based regressions (no timers) -------------------------------------


def _count_calls(fn):
    """Python + C calls made while ``fn()`` runs."""
    n = 0

    def prof(frame, event, arg):
        nonlocal n
        if event in ("call", "c_call"):
            n += 1

    sys.setprofile(prof)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return n


def test_update_batch_call_count_is_independent_of_movers():
    """One dense ``update_batch`` makes the same number of calls for
    1 000 and for 20 000 cell-changing rows (the set buckets made two
    per mover)."""
    n = 50_000
    rng = np.random.default_rng(5)
    grid = UniformGrid(UNIVERSE, 32, meter=CostMeter())
    grid.enable_dense(n)
    xs, ys = rng.uniform(0, 1000, n), rng.uniform(0, 1000, n)
    grid.bulk_load(np.arange(n), xs, ys)
    side = 1000 / 32
    counts = []
    for movers in (1_000, 20_000):
        # Push `movers` rows one cell to the right (wrapping inside the
        # universe); the rest report where they are.
        xs = xs.copy()
        xs[:movers] = (xs[:movers] + side) % 1000
        layout = grid._store.members
        result = []
        counts.append(
            _count_calls(
                lambda: result.extend(
                    grid.update_batch(np.arange(n), xs, ys)
                )
            )
        )
        old, new = result
        assert np.count_nonzero(old != new) >= movers * 0.95
        assert grid._store.members is layout  # no re-layout hid in it
    _check_store(grid)
    assert counts[0] == counts[1]
    assert counts[0] < 100


def test_range_search_makes_no_per_cell_calls():
    """A dense range search over a 5x5 cell box costs the same calls as
    one over a single cell (the set buckets fed one ``fromiter`` input
    per cell)."""
    n = 20_000
    rng = np.random.default_rng(6)
    grid = UniformGrid(UNIVERSE, 32, meter=CostMeter())
    grid.enable_dense(n)
    grid.bulk_load(
        np.arange(n), rng.uniform(0, 1000, n), rng.uniform(0, 1000, n)
    )
    side = 1000 / 32
    cx = cy = 16.5 * side  # a cell centre
    calls = {}
    for name, r in (("one", side / 4), ("box", 2.4 * side)):
        before = grid.meter.units[CostMeter.CELL_VISIT]
        calls[name] = _count_calls(
            lambda: range_search_arrays(grid, cx, cy, r)
        )
        visited = grid.meter.units[CostMeter.CELL_VISIT] - before
        assert visited == (1 if name == "one" else 25)
    # 24 more cells, not one call more per cell (numpy's own wrappers
    # differ by a couple of calls between array sizes)
    assert abs(calls["box"] - calls["one"]) <= 4
    assert calls["box"] < 60
