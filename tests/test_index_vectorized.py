"""Property tests: the numpy engines equal the scalar ones to the ulp.

The brute-force oracle (``repro.index.bruteforce``) auto-dispatches
between a scalar loop and a vectorized engine, and the grid's
``update_batch`` stands for its scalar writes. Each pair must agree
*exactly* — same distances bit for bit, same ``(distance, oid)``
tie-breaks, same ``exclude`` semantics — because answers from either
engine are compared against client band decisions made with the
shared sqrt recipe. Duplicate coordinates are generated on purpose:
ties are where a wrong sort key or an unstable partition shows up.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.geometry import Rect
from repro.index import UniformGrid
from repro.index.grid import axis_gap
import repro.index.knn as knn
from repro.index.knn import (
    _SMALL,
    BREAK_EVEN,
    _rank,
    knn_search,
    knn_search_many,
    range_search_arrays,
    range_search_many,
)
from repro.index.bruteforce import (
    brute_knn,
    brute_knn_np,
    brute_knn_scalar,
    brute_range,
    brute_range_np,
    brute_range_scalar,
)
from repro.metrics.accuracy import is_valid_knn
from repro.metrics.cost import CostMeter
from repro.server import ObjectTable
from tests.per_query import range_search

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


# -- grid and table vs a plain-Python model -----------------------------------
#
# One random operation sequence drives a UniformGrid (grid operations)
# and an ObjectTable (table operations), each next to a model made of
# dicts: oid -> position (the cell comes from ``cell_of``) and, for the
# table, oid -> fresh tick. After every operation grid and table must
# hold what the model holds, the
# cell store must satisfy its invariant, searches must answer like
# ``repro.index.bruteforce`` over the model, and the meter must have
# been charged exactly the units the model predicts; an operation the
# model says is invalid must raise, change nothing and charge nothing.

GRID_OPS = ("insert", "update", "update_batch")
oid_st = st.integers(min_value=0, max_value=40)
# Mostly inside the universe, sometimes just outside it.
wild = st.one_of(coord, st.sampled_from([-0.5, 1000.5]))
row = st.tuples(oid_st, wild, wild)
op_st = st.one_of(
    st.tuples(st.sampled_from(["insert", "update", "report"]), row),
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


def _cells(grid):
    """``(ci, cj)`` -> member ids of every cell that has one, read off
    the cell store."""
    cells = {}
    for lin in range(grid.cells * grid.cells):
        members = grid._store.gather(np.array([lin])).tolist()
        if members:
            cells[divmod(lin, grid.cells)] = frozenset(members)
    return cells


def _grid_state(grid):
    ids = sorted(grid.ids())
    return {
        "cells": _cells(grid),
        "pos": {o: grid.position_of(o) for o in ids},
        "pos_arrays": [
            a.tolist() for a in grid.positions_of(np.array(ids, dtype=np.int64))
        ],
    }


def _check_store(grid):
    """The cell store's own invariant: every present oid sits exactly
    once in ``members``, inside the written part of the region of
    ``_dcell[oid]``, with ``slot[oid]`` pointing at it, and ``live``
    counts each region's members."""
    store, dcell = grid._store, grid._dcell
    n_cells = grid.cells * grid.cells
    present = np.flatnonzero(dcell >= 0)
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
        == store.live.tolist()
    )


def _table_state(table, tick):
    return {
        "grid": _grid_state(table.grid),
        "fresh": {
            o: (table.is_fresh(o, tick), table.is_fresh(o, tick - 1))
            for o in range(45)
        },
        "stale": table.stale(np.arange(45), tick).tolist(),
    }


class _GridModel:
    """oid -> position; everything else is derived from it."""

    def __init__(self, grid):
        self.grid = grid  # for the geometry only: cell_of, box, ...
        self.pos = {}

    def rows(self, op, arg):
        """The rows ``op`` writes, or None if it must raise."""
        rows = arg if op in ("update_batch", "report_batch") else [arg]
        if not all(UNIVERSE.contains_point(x, y) for _, x, y in rows):
            return None  # a batch validates every row before writing any
        if op == "insert" and arg[0] in self.pos:
            return None
        if op == "update" and arg[0] not in self.pos:
            return None
        return rows

    def write(self, rows):
        for oid, x, y in rows:
            self.pos[oid] = (x, y)

    def state(self):
        ids = sorted(self.pos)
        by_cell = {}
        for oid in ids:
            by_cell.setdefault(self.grid.cell_of(*self.pos[oid]), set()).add(oid)
        return {
            "cells": {c: frozenset(m) for c, m in by_cell.items()},
            "pos": {o: self.pos[o] for o in ids},
            "pos_arrays": [
                [self.pos[o][0] for o in ids], [self.pos[o][1] for o in ids]
            ],
        }

    def _brute(self, fn, qx, qy, arg, exclude):
        # The oracle wants positions indexed by id: rank the present
        # ids (ascending, so index ties break like oid ties).
        ids = sorted(self.pos)
        hits = fn(
            [self.pos[o] for o in ids], qx, qy, arg,
            {i for i, o in enumerate(ids) if o in exclude},
        )
        return [(d, ids[i]) for d, i in hits]

    def knn(self, qx, qy, k, exclude):
        return self._brute(brute_knn, qx, qy, k, exclude)

    def range(self, qx, qy, r, exclude):
        return self._brute(brute_range, qx, qy, r, exclude)

    def range_charges(self, qx, qy, r, exclude):
        """CELL_VISIT per bounding-box cell, DIST_CALC per non-excluded
        member of a cell the disk reaches."""
        grid = self.grid
        lo_i, hi_i, lo_j, hi_j = grid.box(qx, qy, r)
        scored = sum(
            oid not in exclude
            and grid.cell_min_dist(grid.cell_of(x, y), qx, qy) <= r
            for oid, (x, y) in self.pos.items()
        )
        return {
            CostMeter.CELL_VISIT: (hi_i - lo_i + 1) * (hi_j - lo_j + 1),
            CostMeter.DIST_CALC: scored,
        }


class _TableModel:
    def __init__(self, table):
        self.grid = _GridModel(table.grid)
        self.fresh = {}

    def write(self, rows, tick):
        for oid, _, _ in rows:
            self.fresh[oid] = tick  # a report is fresh at its tick
        self.grid.write(rows)

    def state(self, tick):
        at = self.fresh.get
        return {
            "grid": self.grid.state(),
            "fresh": {o: (at(o) == tick, at(o) == tick - 1) for o in range(45)},
            "stale": [o for o in range(45) if at(o) != tick],
        }


def _apply(target, op, arg, tick):
    """One operation on a grid (GRID_OPS) or a table (the rest)."""
    if op in ("update_batch", "report_batch"):
        ids, xs, ys = (
            [np.array(c) for c in zip(*arg)] if arg else [np.zeros(0)] * 3
        )
        ids = ids.astype(np.int64)
        if op == "update_batch":
            target.update_batch(ids, xs, ys)
        else:
            target.report_batch(ids, xs, ys, tick)
    elif op == "report":
        target.report(*arg, tick)
    else:
        getattr(target, op)(*arg)


def _units(meter):
    return +meter.units  # drops zero entries


@given(
    st.integers(min_value=1, max_value=9),
    st.lists(op_st, min_size=1, max_size=30),
    st.lists(search_st, min_size=1, max_size=3),
)
@settings(max_examples=120, deadline=None)
def test_grid_and_table_match_python_model(n_cells, ops, searches):
    grid = UniformGrid(UNIVERSE, n_cells, meter=CostMeter())
    table = ObjectTable(UNIVERSE, n_cells, theta=10.0, meter=CostMeter())
    # Capacity hints below the id range: the columns must grow.
    grid.reserve(4)
    table.reserve(4)
    grid_model, table_model = _GridModel(grid), _TableModel(table)
    tick = 1
    for op, arg in ops:
        if op == "tick":
            tick += 1
            continue
        on_grid = op in GRID_OPS
        target = grid if on_grid else table
        model = grid_model if on_grid else table_model.grid
        expected = _units(target.meter)
        rows = model.rows(op, arg)
        if rows is None:
            # Neither model nor bill is touched, so the checks below
            # are "nothing changed, nothing charged".
            with pytest.raises(IndexError_):
                _apply(target, op, arg, tick)
        else:
            _apply(target, op, arg, tick)
            # one INDEX_UPDATE per row written, moved or not; a report
            # also books one BOOKKEEPING per row
            expected[CostMeter.INDEX_UPDATE] += len(rows)
            if on_grid:
                model.write(rows)
            else:
                table_model.write(rows, tick)
                expected[CostMeter.BOOKKEEPING] += len(rows)
        assert _units(target.meter) == +expected, (op, arg)
        assert _grid_state(grid) == grid_model.state(), (op, arg)
        assert _table_state(table, tick) == table_model.state(tick), (op, arg)
        _check_store(grid)
        _check_store(table.grid)
        for real, m in ((grid, grid_model), (table.grid, table_model.grid)):
            for (qx, qy), r, k, exclude in searches:
                billed = _units(real.meter)
                billed.update(m.range_charges(qx, qy, r, exclude))
                assert range_search(
                    real, qx, qy, r, exclude=exclude
                ) == m.range(qx, qy, r, exclude)
                assert _units(real.meter) == +billed
                assert knn_search(
                    real, qx, qy, k, exclude=exclude
                ) == m.knn(qx, qy, k, exclude)


def test_dense_backend_rejects_bad_input_without_mutating():
    table = ObjectTable(UNIVERSE, 8, theta=10.0, meter=CostMeter())
    table.reserve(4)
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


# -- knn_search charges, pinned ------------------------------------------------
#
# Which cells a best-first search pushes and opens is not derivable
# from the model, so its HEAP_OP / CELL_VISIT / DIST_CALC totals are
# pinned per seed instead: the literals below were produced by the
# set-bucket grid this layout replaced (parent of the commit that
# removed it), four searches per seeded grid.


def _seeded_knn_charges(seed):
    rng = np.random.default_rng(seed)
    n_cells = int(rng.integers(1, 13))
    n = int(rng.integers(0, 140))
    if seed % 2:  # clustered: rings must expand past empty cells
        pts = np.clip(rng.normal(rng.uniform(0, 1000, 2), 60.0, (n, 2)), 0, 1000)
    else:
        pts = rng.uniform(0, 1000, (n, 2))
    meter = CostMeter()
    grid = UniformGrid(UNIVERSE, n_cells, meter=meter)
    for oid, (x, y) in enumerate(pts.tolist()):
        grid.insert(oid, x, y)
    searches = []
    for _ in range(4):
        qx, qy = rng.uniform(-200, 1200, 2).tolist()
        k = int(rng.integers(1, 20))
        exclude = frozenset(rng.integers(0, 140, int(rng.integers(0, 3))).tolist())
        got = knn_search(grid, qx, qy, k, exclude=exclude)
        assert got == brute_knn(pts.tolist(), qx, qy, k, exclude)
        searches.append((qx, qy, k, exclude))
    return grid, searches, _knn_units(meter)


_KNN_CATEGORIES = (CostMeter.HEAP_OP, CostMeter.CELL_VISIT, CostMeter.DIST_CALC)


def _knn_units(meter):
    return tuple(meter.units[c] for c in _KNN_CATEGORIES)


KNN_CHARGES = {
    0: (183, 67, 57),
    1: (234, 111, 230),
    2: (449, 178, 48),
    3: (761, 371, 43),
    4: (101, 35, 71),
    5: (327, 125, 135),
    6: (99, 36, 74),
    7: (735, 322, 152),
    8: (261, 101, 67),
    9: (153, 55, 450),
    10: (101, 33, 45),
    11: (29, 13, 66),
    12: (255, 102, 54),
    13: (675, 317, 138),
    14: (20, 4, 115),
    15: (412, 167, 143),
    16: (119, 40, 63),
    17: (288, 119, 100),
    18: (309, 119, 54),
    19: (252, 112, 150),
    20: (416, 180, 65),
    21: (94, 37, 367),
    22: (338, 129, 64),
    23: (8, 4, 384),
}


@pytest.mark.parametrize("seed", sorted(KNN_CHARGES))
def test_knn_search_charges_are_pinned(seed, monkeypatch):
    """The literals pin ``knn_search``; the same four searches as one
    pass (which ``knn_search_many`` runs from ``BREAK_EVEN`` rows on:
    forced here) must charge what they charged. The sets differ by row,
    so each keeps its smallest member as the row's own excluded id here
    — where that changes no set of the seed, the one-pass total is held
    to the literal itself."""
    grid, searches, units = _seeded_knn_charges(seed)
    assert units == KNN_CHARGES[seed]
    one = [frozenset(sorted(ex)[:1]) for _, _, _, ex in searches]
    per_query = CostMeter()
    for (qx, qy, k, _), ex in zip(searches, one):
        knn_search(grid, qx, qy, k, exclude=ex, meter=per_query)
    many = CostMeter()
    monkeypatch.setattr(knn, "BREAK_EVEN", 1)
    knn_search_many(
        grid,
        np.array([qx for qx, _, _, _ in searches]),
        np.array([qy for _, qy, _, _ in searches]),
        np.array([k for _, _, k, _ in searches]),
        np.array([min(ex, default=-1) for ex in one]),
        meter=many,
    )
    assert _knn_units(many) == _knn_units(per_query)
    if all(ex == full for ex, (_, _, _, full) in zip(one, searches)):
        assert _knn_units(many) == KNN_CHARGES[seed]


def test_some_pinned_seed_holds_the_many_row_kernel_to_the_literals():
    assert any(
        all(len(ex) <= 1 for _, _, _, ex in _seeded_knn_charges(seed)[1])
        for seed in KNN_CHARGES
    )


# -- many-row searches against the per-query functions ------------------------
#
# Lattice coordinates (multiples of 64 on a 1024 universe) put objects
# and query points on cell borders, on the universe border and at
# exactly equal distances; free floats cover the rest. Churn leaves
# tombstones in the store before anything is searched.

WIDE = Rect(0, 0, 1024, 1024)
lattice = st.integers(0, 16).map(lambda i: 64.0 * i)
wide_coord = st.one_of(
    lattice, st.floats(min_value=0, max_value=1024, allow_nan=False)
)
wide_point = st.tuples(wide_coord, wide_coord)
query_coord = st.one_of(
    st.integers(-2, 18).map(lambda i: 64.0 * i),
    st.floats(min_value=-150, max_value=1200, allow_nan=False),
)
radius = st.one_of(
    st.sampled_from([0.0, 64.0, 128.0, 64.0 * 2**0.5, 320.0]),
    st.floats(min_value=0, max_value=1500, allow_nan=False),
)
#: a search row: query point (or, with ``own`` set, the position of that
#: object, which the row then excludes), k, excluded id, range radius.
search_row = st.tuples(
    st.tuples(query_coord, query_coord),
    st.one_of(st.none(), st.integers(0, 79)),
    st.integers(1, 20),
    st.integers(-1, 79),
    radius,
)


def _row_columns(grid, rows):
    qx, qy, ks, ex, rs = [], [], [], [], []
    for (x, y), own, k, excluded, r in rows:
        if own is not None and own in grid:
            (x, y), excluded = grid.position_of(own), own
        qx.append(x), qy.append(y), ks.append(k), ex.append(excluded)
        rs.append(r)
    return (np.array(qx), np.array(qy), np.array(ks), np.array(ex),
            np.array(rs))


@given(
    st.sampled_from([1, 2, 3, 8, 64]),
    st.lists(wide_point, max_size=80),
    st.lists(st.tuples(st.integers(0, 79), wide_point), max_size=40),
    # row counts either side of the break-even
    st.sampled_from([1, 2, BREAK_EVEN - 1, BREAK_EVEN, 3 * BREAK_EVEN]).flatmap(
        lambda n: st.lists(search_row, min_size=n, max_size=n)
    ),
    st.one_of(st.just(frozenset()), st.frozensets(st.integers(0, 79))),
)
@settings(max_examples=120, deadline=None)
def test_many_row_searches_match_per_query_row_by_row(
    n_cells, pts, churn, rows, shared
):
    """The entries, on row counts either side of ``BREAK_EVEN`` and
    with and without ids every row skips, answer and charge each row
    as the per-query search does."""
    grid = UniformGrid(WIDE, n_cells, meter=CostMeter())
    for oid, (x, y) in enumerate(pts):
        grid.insert(oid, x, y)
    for oid, to in churn:  # leave tombstones behind
        if oid in grid:
            grid.update(oid, *to)
    if n_cells == 64:
        # a per-query search may open all 4096 cells
        rows = rows[:BREAK_EVEN]
    qx, qy, ks, ex, rs = _row_columns(grid, rows)
    skipped = np.array(sorted(shared), dtype=np.int64)
    many = CostMeter()
    near = knn_search_many(grid, qx, qy, ks, ex, skipped, meter=many)
    inside = range_search_many(grid, qx, qy, rs, ex, skipped, meter=many)
    total = CostMeter()
    for i in range(len(rows)):
        exclude = shared | {o for o in (int(ex[i]),) if o >= 0}
        q = (float(qx[i]), float(qy[i]))
        # kNN: the row, then every category it would have charged
        one = CostMeter()
        want = knn_search(grid, *q, int(ks[i]), exclude=exclude, meter=one)
        lo, hi = near.seg[i], near.seg[i + 1]
        assert list(zip(near.d[lo:hi].tolist(), near.oid[lo:hi].tolist())) == want
        assert {c: int(col[i]) for c, col in near.charges.items()} == {
            c: one.units[c] for c in _KNN_CATEGORIES
        }
        total.merge(one)
        one = CostMeter()
        want_d, want_ids = range_search_arrays(
            grid, *q, float(rs[i]), exclude=exclude, meter=one
        )
        lo, hi = inside.seg[i], inside.seg[i + 1]
        assert inside.d[lo:hi].tolist() == want_d.tolist()
        assert inside.oid[lo:hi].tolist() == want_ids.tolist()
        assert {c: int(col[i]) for c, col in inside.charges.items()} == {
            c: one.units[c] for c in (CostMeter.CELL_VISIT, CostMeter.DIST_CALC)
        }
        total.merge(one)
    # and the meters got the column sums, minting the same entries
    assert dict(many.units) == dict(total.units)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 7),  # row: some rows empty, some single
            st.sampled_from([0.0, 1.0, 2.5, 2.5000000000000004, 7.0]),
            st.integers(0, 30),
        ),
        max_size=60,
    ),
    st.sampled_from([1, -1, 40_000]),  # rows reversed / past int16
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_rank_is_the_three_key_lexsort(members, stride, tie_free, padded):
    """``_rank`` equals ``np.lexsort((ids, d, row))`` exactly: ties in
    distance inside a row fall back to the lexsort, equal distances in
    different rows do not tie, and the values-only form sorts the same
    values. Padded past ``_SMALL`` members, the argsort-and-check path
    runs; the filler's quarter steps tie with the drawn distances."""
    if padded:
        members = members + [
            (i % 9, i * 0.25, i) for i in range(_SMALL + 40)
        ]
    row = np.array([r for r, _, _ in members], dtype=np.int64)
    row = row * stride if stride > 0 else row.max(initial=0) - row
    d = np.array([x for _, x, _ in members], dtype=np.float64)
    ids = np.array([o for _, _, o in members], dtype=np.int64)
    if tie_free:
        d = d + np.arange(d.shape[0]) * 1e-3
    want = np.lexsort((ids, d, row))
    assert _rank(d, ids, row).tolist() == want.tolist()
    assert d[_rank(d, row=row)].tolist() == d[want].tolist()
    one = np.lexsort((ids, d))
    assert _rank(d, ids).tolist() == one.tolist()


def test_many_row_charges_follow_from_the_kth_distance_alone(monkeypatch):
    """The closed form, on a case where the bound the kernel ranges
    inside is *not* the k-th distance: 10-unit cells, the query in the
    middle of cell (4, 4), k = 2. Its own cell holds one object, the
    3x3 square around it a second one 20.5 away — the bound — but an
    object outside the square is 15.5 away, so d_k = 15.5. Eight cells
    lie between the two (min-distance 15.81) and one of them is
    occupied: a kernel that charged by its bound would open them and
    score that member, and push ring 3 (bound 20 <= 20.5)."""
    grid = UniformGrid(Rect(0, 0, 90, 90), 9, meter=CostMeter())
    for oid, (x, y) in enumerate(
        [(45.0, 46.0), (30.5, 30.5), (45.0, 60.5), (25.0, 38.0)]
    ):
        grid.insert(oid, x, y)
    qx, qy, k = 45.0, 45.0, 2
    d_k = 15.5
    per_cell = {
        (ci, cj): grid.cell_min_dist((ci, cj), qx, qy)
        for ci in range(9) for cj in range(9)
    }
    members = _cells(grid)

    def closed_form(radius):
        opened = [c for c, m in per_cell.items() if m <= radius]
        rings = max(r for r in range(10) if (r - 1) * 10.0 <= radius)
        pushed = sum(
            1 for ci, cj in per_cell if max(abs(ci - 4), abs(cj - 4)) <= rings
        )
        scored = sum(len(members.get(c, ())) for c in opened)
        return (pushed + len(opened), len(opened), scored)

    assert closed_form(d_k) == (25 + 13, 13, 3)
    assert closed_form(20.5) == (49 + 21, 21, 4)  # what the bound would give
    one = CostMeter()
    assert [o for _, o in knn_search(grid, qx, qy, k, meter=one)] == [0, 2]
    assert _knn_units(one) == closed_form(d_k)
    many = CostMeter()
    monkeypatch.setattr(knn, "BREAK_EVEN", 1)  # one row, one pass
    rows = knn_search_many(
        grid, np.array([qx]), np.array([qy]), k, np.array([-1]), meter=many
    )
    assert rows.oid.tolist() == [0, 2] and rows.d.tolist() == [1.0, d_k]
    assert _knn_units(many) == closed_form(d_k)


def test_many_row_search_opens_the_cell_whose_edge_ties_with_the_kth(monkeypatch):
    """An object on a cell border, exactly d_k from the query: the cell
    on the far side of the border has min-distance d_k too and the
    best-first search opens it (``<=``). The float bounding box of the
    disk starts *at* the border — ``900 - d_k`` is 896 whether d_k is
    4.0 or a few ulps more — so the kernel has to look one cell past
    its box."""
    grid = UniformGrid(Rect(0, 0, 1024, 1024), 8, meter=CostMeter())
    grid.insert(0, 896.0, 4.0)  # on the border of cells 6 | 7
    grid.insert(1, 890.0, 4.0)  # in cell 6, whose edge is 4.0 away too
    assert grid.box(900.0, 4.0, 4.0)[0] == 7
    one, many = CostMeter(), CostMeter()
    knn_search(grid, 900.0, 4.0, 1, meter=one)
    monkeypatch.setattr(knn, "BREAK_EVEN", 1)  # one row, one pass
    knn_search_many(
        grid, np.array([900.0]), np.array([4.0]), 1, np.array([-1]), meter=many
    )
    assert _knn_units(one) == _knn_units(many)
    assert many.units[CostMeter.DIST_CALC] == 2  # cell 6 was opened


def test_a_point_on_the_far_edge_lies_inside_its_cell(monkeypatch):
    """``1000 / 6 * 5 + 1000 / 6`` rounds below 1000, yet ``cell_of``
    puts a point at 1000 in the last cell. The last column's edge is
    the universe's, so that cell is 0 away from the point, and the
    many-row kNN finds the object that coincides with its query there
    (its bound is 0: a cell 1e-13 away was left out of the range pass,
    and the row came back empty)."""
    grid = UniformGrid(Rect(0, 0, 1000, 1000), 6, meter=CostMeter())
    for oid, at in enumerate([(750.0, 1000.0), (750.0, 1000.0), (0.0, 500.0)]):
        grid.insert(oid, *at)
    assert 1000 / 6 * 5 + 1000 / 6 < 1000
    assert grid.cell_min_dist(grid.cell_of(750.0, 1000.0), 750.0, 1000.0) == 0
    one, many = CostMeter(), CostMeter()
    want = knn_search(grid, 750.0, 1000.0, 1, exclude={0}, meter=one)
    monkeypatch.setattr(knn, "BREAK_EVEN", 1)  # one row, one pass
    rows = knn_search_many(
        grid, np.array([750.0]), np.array([1000.0]), 1, np.array([0]),
        meter=many,
    )
    assert rows.lists() == [want] == [[(0.0, 1)]]
    assert _knn_units(one) == _knn_units(many)


@pytest.mark.parametrize("size", [1000.0, 800.0, 3.0, 20000.0])
@pytest.mark.parametrize("cells", [1, 6, 7, 32, 129])
def test_every_coordinate_lies_inside_its_column(size, cells):
    """At a column edge ``lo + c * side`` and ``cell_of``'s division
    can round apart by an ulp; the edges move out wherever they do, so
    the gap from a coordinate to its own column is 0 (and nowhere else
    do they move)."""
    grid = UniformGrid(Rect(0, 0, size, size), cells)
    side = size / cells
    lower, upper = grid._xe
    for c in range(cells + 1):
        edge = c * side
        for x in (math.nextafter(edge, -math.inf), edge,
                  math.nextafter(edge, math.inf)):
            if 0 <= x <= size:
                col = grid.cell_of(x, 0.0)[0]
                assert axis_gap(grid._xe, x, col) == 0.0, (c, x)
    ulp = math.ulp(size)
    for c in range(cells):
        assert 0 <= c * side - lower[c] <= 2 * ulp
        assert 0 <= upper[c] - (c * side + side) <= 2 * ulp


def test_a_column_edge_at_zero_is_found():
    """A universe from -1000 to 1000 in two columns has its middle edge
    at 0, where the ulps are subnormal: the edges are still found (a
    walk one ulp at a time never gets there), and every coordinate
    around it lies inside its column."""
    grid = UniformGrid(Rect(-1000, -1000, 1000, 1000), 2)
    for x in (-1e-13, math.nextafter(0.0, -math.inf), 0.0, 1e-300, 1e-13):
        col = grid.cell_of(x, 0.0)[0]
        assert axis_gap(grid._xe, x, col) == 0.0, x


# -- the cell store under churn ----------------------------------------------
#
# The sequences above rarely fill a region. These aim every row at one
# of three cells and move many ids per step, so tombstones pile up,
# regions overflow and the whole table is re-laid; the grid is seeded
# by scalar inserts from a capacity hint below the id range, and the
# steps mix scalar writes (insert or update, whichever applies) with
# batches of new and known ids.

anchor = st.sampled_from(
    [(10.0, 10.0), (990.0, 10.0), (500.0, 990.0), (10.0, 10.5)]
)
churn_oid = st.integers(min_value=0, max_value=70)
churn_rows = st.lists(
    st.tuples(churn_oid, anchor), max_size=40, unique_by=lambda r: r[0]
)
churn_op = st.one_of(
    st.tuples(st.just("update_batch"), churn_rows),
    st.tuples(st.just("write"), st.tuples(churn_oid, anchor)),
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
def test_cell_store_matches_python_model_under_churn(n_cells, seed, ops):
    grid = UniformGrid(UNIVERSE, n_cells, meter=CostMeter())
    grid.reserve(4)
    model = _GridModel(grid)
    for oid, (x, y) in seed:
        grid.insert(oid, x, y)
        model.pos[oid] = (x, y)
    _check_store(grid)
    assert _grid_state(grid) == model.state()
    written = len(seed)
    for op, arg in ops:
        if op == "write":
            oid, (x, y) = arg
            (grid.update if oid in model.pos else grid.insert)(oid, x, y)
            model.pos[oid] = (x, y)
            written += 1
        else:
            grid.update_batch(*_columns(arg))
            model.pos.update(arg)
            written += len(arg)
        _check_store(grid)
        assert _grid_state(grid) == model.state(), (op, arg)
        # INDEX_UPDATE per row written, and nothing else
        assert grid.meter.total == grid.meter.of(CostMeter.INDEX_UPDATE) == written
    for qx, qy in ((10.0, 10.0), (600.0, 400.0)):
        assert range_search(grid, qx, qy, 700.0) == model.range(
            qx, qy, 700.0, frozenset()
        )
        assert knn_search(grid, qx, qy, 9) == model.knn(qx, qy, 9, frozenset())


def test_dense_store_relays_when_a_region_overflows():
    """200 ids shuttle between two cells of a 4x4 grid: every round
    leaves 200 tombstones behind, so regions overflow and the table is
    re-laid again and again — without ever growing past its bound."""
    grid = UniformGrid(UNIVERSE, 4, meter=CostMeter())
    grid.reserve(8)  # ids grow past the hint
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
    assert _cells(grid) == {(0, 0): frozenset(range(200))}
    # one scalar move across the grid
    grid.update(7, 990.0, 990.0)
    assert _cells(grid) == {
        (0, 0): frozenset(range(200)) - {7}, (3, 3): frozenset({7}),
    }
    _check_store(grid)


def test_update_batch_rejects_duplicate_ids_without_mutating():
    table = ObjectTable(UNIVERSE, 8, theta=10.0, meter=CostMeter())
    table.reserve(4)
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
    grid.reserve(n)
    xs, ys = rng.uniform(0, 1000, n), rng.uniform(0, 1000, n)
    grid.update_batch(np.arange(n), xs, ys)
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
    grid.reserve(n)
    grid.update_batch(
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
