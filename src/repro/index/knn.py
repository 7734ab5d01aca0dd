"""Grid-based best-first kNN and range search, one query or many.

``knn_search`` is the CPM-style expanding search: cells enter a min-heap
keyed by their minimum distance to the query point, generated lazily in
square rings around the query cell; a cell is only opened while some
unopened cell could still beat the current k-th candidate. The search
is exact (verified against brute force by property tests).

Both searches read the grid's columns directly: a cell opens as an id
array out of the cell store and its distances are one array pass, so
the per-member work is numpy's, and the :class:`CostMeter` charges are
counts taken from array lengths.

**One entry per question.** ``knn_search_many`` (the ``k`` nearest),
``range_search_many`` (everything within a radius) and
``range_search_written`` (the same, looking only at what was written
since a mark) each take any number of rows — a query point or disk,
the row's own excluded id, and optionally ids every row skips — and
return :class:`Rows`: each row's result *and* each row's charges. How
to answer is the entry's choice, from the row count. Below
:data:`BREAK_EVEN` rows it searches row by row (``knn_search`` /
``range_search_arrays``, which are also the oracle the one-pass
kernels are tested against); at or above it, one pass over the
columns — every row's cell box expanded into one flat (row, cell)
list, one gather, one distance pass, one ranking — whose results and
charges equal the per-row search's. A pass costs a few dozen numpy
calls whatever it is given, so it wins once enough rows share that
constant and loses below it. Measured per row (µs, one pass against
row by row): one row, kNN 220-380 against 34-180 and a range scan
100-130 against 39-50; eight rows, kNN 44 against 48 on a uniform grid
of 49 objects a cell and 86 against 198 on drifting hotspots, a range
scan 20-64 against 41-60; sixty-one rows on the hotspots, kNN 49
against 192 and a range scan 13-30 against 44-54. The break-even is
2-8 rows, latest where cells are evenly full.

**The charges of a best-first search, in closed form.** The one-pass
kNN never runs a heap: it finds an upper bound on each row's k-th
distance, ranks everything inside the bounds, and then *derives* what
``knn_search`` would have charged from the final k-th distance ``d_k``
alone (``inf`` when fewer than ``k`` are eligible):

* ``popped`` = in-grid cells with ``cell_min_dist <= d_k``;
* ``pushed`` = in-grid cells of rings ``0..R``, ``R`` the largest ring
  whose bound ``(R - 1) * min_side <= d_k`` — the scalar code's float
  multiply — capped at ring ``cells``, which is every cell;
* ``DIST_CALC`` = live, non-excluded members of the popped cells;
* ``HEAP_OP = pushed + popped``, ``CELL_VISIT = popped``.

Why: cells pop in ascending min-distance, and a ring is pushed before
any cell at or beyond its bound pops, so when a cell of min-distance
``m`` reaches the top every cell nearer than ``m`` has been opened.
Every object nearer than ``m`` lies in such a cell (a cell's
min-distance is at most the distance of anything inside it, to the
ulp: see :func:`~repro.index.grid.column_edges`). If ``m >
d_k`` the k nearest are therefore all scored, the running k-th is
``d_k < m`` and the search stops: the cell is never opened. If ``m <=
d_k`` the running k-th, which only shrinks towards ``d_k``, is still
``>= m``: the cell is opened. Ties open (``<=``), as in the loop. The
same argument with a ring's bound in place of ``m`` gives ``pushed``.
``tests/test_index_vectorized.py`` pins the form on a case where the
kernel's bound and ``d_k`` differ, and differentially row by row.
"""

from __future__ import annotations

import heapq
import math
from functools import partial
from typing import AbstractSet, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.index.grid import UniformGrid, axis_gap
from repro.metrics.cost import CostMeter, charge

__all__ = [
    "knn_search_many",
    "range_search_many",
    "range_search_written",
    "NeighborList",
    "Rows",
]

#: A kNN result: ascending ``(distance, oid)`` pairs, ties broken by oid.
NeighborList = List[Tuple[float, int]]

_EMPTY: FrozenSet[int] = frozenset()
_NO_IDS = np.empty(0, dtype=np.int64)
#: rows: an entry with fewer searches row by row, else in one pass
BREAK_EVEN = 8
#: the charge categories of a kNN row and of a range row, in order
_KNN_CHARGES = (CostMeter.HEAP_OP, CostMeter.CELL_VISIT, CostMeter.DIST_CALC)
_RANGE_CHARGES = (CostMeter.CELL_VISIT, CostMeter.DIST_CALC)
_SMALL = 256  # below: ``_rank`` runs np.lexsort, the faster there
_INT16_MAX = int(np.iinfo(np.int16).max)


def _without(ids: np.ndarray, exclude: AbstractSet[int]) -> np.ndarray:
    """``ids`` minus the excluded ones (usually one focal object)."""
    if len(exclude) == 1:
        (only,) = exclude
        return ids[ids != only]
    if exclude and ids.shape[0]:
        return ids[~np.isin(ids, np.fromiter(exclude, np.int64, len(exclude)))]
    return ids


def _axis_gaps(edges: np.ndarray, q, c: np.ndarray) -> np.ndarray:
    """:func:`~repro.index.grid.axis_gap` over an array of columns (or
    rows) ``c`` of the ``(2, cells)`` edge array ``edges``, ``q`` one
    coordinate or one per entry: at most one of the two differences is
    positive, so the max picks the branch the scalar code takes."""
    return np.maximum(np.maximum(edges[0][c] - q, q - edges[1][c]), 0.0)


def knn_search(
    grid: UniformGrid,
    qx: float,
    qy: float,
    k: int,
    exclude: AbstractSet[int] = _EMPTY,
    meter: Optional[CostMeter] = None,
) -> NeighborList:
    """Exact k nearest neighbors of ``(qx, qy)`` among indexed objects.

    Returns up to ``k`` ``(distance, oid)`` pairs in ascending
    ``(distance, oid)`` order (fewer only if the index holds fewer than
    ``k`` eligible objects). ``exclude`` removes ids from consideration
    — typically the query's own focal object.

    Charges: one HEAP_OP per cell pushed and per cell popped, one
    CELL_VISIT per pop, one DIST_CALC per non-excluded member of every
    opened cell (totals pinned per seed by
    ``test_knn_search_charges_are_pinned`` in
    ``tests/test_index_vectorized.py``). A cell opens as an id array
    out of the grid's cell store; its distances are one array pass and
    the candidate heap is offered only that cell's best ``k`` not
    already beaten.
    """
    d, ids = _knn_arrays(grid, qx, qy, k, exclude, meter)
    return list(zip(d.tolist(), ids.tolist()))


def _knn_arrays(
    grid: UniformGrid, qx: float, qy: float, k: int, exclude, meter
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`knn_search` as ``(distances, oids)`` arrays."""
    if k < 1:
        raise IndexError_(f"k must be >= 1, got {k}")
    if meter is None:
        meter = grid.meter

    u = grid.universe
    qi, qj = grid.cell_of(*u.clamp_point(qx, qy))
    C = grid.cells
    min_side = min(grid._cell_w, grid._cell_h)
    members_of = grid._store.cell

    # Worst candidate sits at the heap top via lexicographic negation.
    best: List[Tuple[float, int]] = []  # (-distance, -oid) max-heap
    frontier: List[Tuple[float, int, int]] = []  # (cell_min_dist, ci, cj)
    next_ring = 0
    max_ring = C  # rings beyond this are entirely off-grid
    pushed = popped = scored_n = 0  # charged once, on the way out
    # Squared axis gaps of every column / row reached so far: a ring
    # adds two of each, and its cells combine them with one add + sqrt
    # (the recipe of cell_min_dist, term for term).
    dx2: Dict[int, float] = {}
    dy2: Dict[int, float] = {}

    def push_ring(ring: int) -> int:
        """Push the in-grid cells at Chebyshev distance ``ring``;
        returns how many."""
        lo_i, hi_i, lo_j, hi_j = qi - ring, qi + ring, qj - ring, qj + ring
        # gap * gap, never gap ** 2: pow() need not round like a multiply.
        for c in {lo_i, hi_i}:
            if 0 <= c < C:
                gap = axis_gap(grid._xe, qx, c)
                dx2[c] = gap * gap
        for c in {lo_j, hi_j}:
            if 0 <= c < C:
                gap = axis_gap(grid._ye, qy, c)
                dy2[c] = gap * gap
        cols = range(max(lo_i, 0), min(hi_i, C - 1) + 1)
        rows = range(max(lo_j + 1, 0), min(hi_j - 1, C - 1) + 1)
        cells = [
            (math.sqrt(dx2[ci] + dy2[cj]), ci, cj)
            for cj in {lo_j, hi_j} if 0 <= cj < C for ci in cols
        ] + [
            (math.sqrt(dx2[ci] + dy2[cj]), ci, cj)
            for ci in {lo_i, hi_i} if 0 <= ci < C for cj in rows
        ]
        for cell in cells:
            heapq.heappush(frontier, cell)
        return len(cells)

    kth = math.inf  # distance of the current k-th candidate
    # Any cell in an ungenerated ring R lies at least (R-1) cell sides
    # away from the query (the query sits somewhere inside its own cell).
    unpushed_bound = -min_side
    while True:
        if frontier:
            frontier_bound = frontier[0][0]
        elif next_ring > max_ring:
            break  # index exhausted
        else:
            frontier_bound = math.inf
        if unpushed_bound <= frontier_bound:
            if unpushed_bound > kth:
                break  # nothing unexamined can improve the answer
            pushed += push_ring(next_ring)
            next_ring += 1
            unpushed_bound = (
                (next_ring - 1) * min_side
                if next_ring <= max_ring
                else math.inf
            )
            continue
        if frontier_bound > kth:
            break
        _, ci, cj = heapq.heappop(frontier)
        popped += 1
        idx = _without(members_of(ci * C + cj), exclude)
        if not idx.shape[0]:
            continue
        scored_n += idx.shape[0]
        ddx = grid._dx[idx] - qx
        ddy = grid._dy[idx] - qy
        d = np.sqrt(ddx * ddx + ddy * ddy)
        if len(best) >= k:
            keep = d <= kth
            d, idx = d[keep], idx[keep]
        if d.shape[0] > k:
            top = _rank(d, idx)[:k]
            d, idx = d[top], idx[top]
        for d_o, oid in zip(d.tolist(), idx.tolist()):
            if len(best) < k:
                heapq.heappush(best, (-d_o, -oid))
            elif (d_o, oid) < (-best[0][0], -best[0][1]):
                heapq.heapreplace(best, (-d_o, -oid))
        if len(best) >= k:
            kth = -best[0][0]

    # The query's own cell is always pushed and popped; an empty index
    # scores nothing and must not mint a zero DIST_CALC entry.
    charge(meter, CostMeter.HEAP_OP, pushed + popped)
    charge(meter, CostMeter.CELL_VISIT, popped)
    if scored_n:
        charge(meter, CostMeter.DIST_CALC, scored_n)
    best.sort(reverse=True)  # ascending (distance, oid)
    return (
        np.array([-nd for nd, _ in best], dtype=np.float64),
        np.array([-noid for _, noid in best], dtype=np.int64),
    )


def range_search_arrays(
    grid: UniformGrid,
    cx: float,
    cy: float,
    r: float,
    exclude: AbstractSet[int] = _EMPTY,
    meter: Optional[CostMeter] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All objects within distance ``r`` of ``(cx, cy)``.

    Returns ``(distances, oids)`` as float64 / int64 arrays in
    ascending ``(distance, oid)`` order.

    Charges CELL_VISIT per bounding-box cell and DIST_CALC per
    non-excluded member of every intersecting cell whether or not it
    lands within ``r``. Cell intersection and membership both use the
    ``sqrt(dx*dx + dy*dy) <= r`` recipe of ``repro.geometry.dist``, so
    boundary decisions agree to the ulp with the brute-force oracle and
    the client bands.
    """
    if r < 0:
        raise IndexError_(f"negative radius {r}")
    if meter is None:
        meter = grid.meter
    lo_i, hi_i, lo_j, hi_j = grid.box(cx, cy, r)
    charge(meter, CostMeter.CELL_VISIT, (hi_i - lo_i + 1) * (hi_j - lo_j + 1))
    ci = np.arange(lo_i, hi_i + 1, dtype=np.int64)
    cj = np.arange(lo_j, hi_j + 1, dtype=np.int64)
    dx = _axis_gaps(grid._xea, cx, ci)
    dy = _axis_gaps(grid._yea, cy, cj)
    keep = np.sqrt(np.add.outer(dx * dx, dy * dy)) <= r
    lin = np.add.outer(ci * grid.cells, cj)[keep]
    idx = _without(grid._store.gather(lin), exclude)
    charge(meter, CostMeter.DIST_CALC, idx.shape[0])
    ddx = grid._dx[idx] - cx
    ddy = grid._dy[idx] - cy
    d = np.sqrt(ddx * ddx + ddy * ddy)
    within = d <= r
    d = d[within]
    idx = idx[within]
    order = _rank(d, idx)
    return d[order], idx[order]


# -- many rows at once --------------------------------------------------------


class Rows(NamedTuple):
    """What a many-row search returns: row ``i``'s neighbours are
    ``d[seg[i]:seg[i + 1]]`` / ``oid[seg[i]:seg[i + 1]]`` in ascending
    ``(distance, oid)`` order, and ``charges[category][i]`` is what the
    per-query function would have charged for it."""

    seg: np.ndarray
    d: np.ndarray
    oid: np.ndarray
    charges: Dict[str, np.ndarray]

    def head(self, k) -> "Rows":
        """Each row's first ``k`` (one, or one per row) neighbours."""
        found = self.seg[1:] - self.seg[:-1]
        take = np.minimum(found, k)
        out = np.zeros(found.shape[0] + 1, dtype=np.int64)
        np.cumsum(take, out=out[1:])
        at = np.repeat(self.seg[:-1] - out[:-1], take)
        at += np.arange(int(out[-1]))
        return Rows(out, self.d[at], self.oid[at], self.charges)

    def lists(self) -> List[NeighborList]:
        """Each row as the per-query function's :data:`NeighborList`."""
        seg, d, oid = self.seg.tolist(), self.d.tolist(), self.oid.tolist()
        return [list(zip(d[a:b], oid[a:b])) for a, b in zip(seg, seg[1:])]


def _disk_cells(
    grid: UniformGrid, cx: np.ndarray, cy: np.ndarray, r: np.ndarray, pad: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every cell of every disk's bounding box (``pad`` cells wider a
    side) as flat ``(row, linear cell id, cell_min_dist)`` arrays."""
    row, ci, cj = grid.box_cells(*grid.boxes(cx, cy, r, pad))
    gx = _axis_gaps(grid._xea, cx[row], ci)
    gy = _axis_gaps(grid._yea, cy[row], cj)
    return row, ci * grid.cells + cj, np.sqrt(gx * gx + gy * gy)


def _scored_members(
    grid: UniformGrid,
    row: np.ndarray,
    lin: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    exclude_oid: np.ndarray,
    exclude: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Open the cells ``lin`` (cell ``c`` on behalf of row ``row[c]``):
    ``(oid, source cell, row, distance)`` per member that is neither
    its row's excluded id nor one of the shared ``exclude``."""
    ids, src = grid._store.gather_sources(lin)
    mrow = row[src]
    keep = ids != exclude_oid[mrow]
    if exclude.shape[0]:
        keep &= ~np.isin(ids, exclude)
    ids, src, mrow = ids[keep], src[keep], mrow[keep]
    ddx = grid._dx[ids] - cx[mrow]
    ddy = grid._dy[ids] - cy[mrow]
    return ids, src, mrow, np.sqrt(ddx * ddx + ddy * ddy)


def _rank(d: np.ndarray, ids=None, row=None) -> np.ndarray:
    """``np.lexsort((ids, d, row))`` (``row`` None: one row), cheaper:
    an unstable sort on distance, a stable (radix) one by row, and an
    O(n) check that the order strictly rises in ``(row, d)`` — else an
    exact tie, and the lexsort runs. Without ``ids`` (values only, where
    ties cannot show) nothing is checked. Below :data:`_SMALL` members
    the lexsort itself is as fast, and runs."""
    keys = (ids, d) if row is None else (ids, d, row)
    if ids is not None and d.shape[0] < _SMALL:
        return np.lexsort(keys)
    order = d.argsort()
    if row is not None:
        key = row[order]
        if key.max(initial=0) <= _INT16_MAX:
            key = key.astype(np.int16)
        order = order[key.argsort(kind="stable")]
    if ids is None:
        return order
    ds = d[order]
    up = ds[1:] > ds[:-1]
    if row is not None:
        rs = row[order]
        up |= rs[1:] > rs[:-1]
    if up.all():
        return order
    return np.lexsort(keys)


def _ranked(
    n_rows: int, mrow: np.ndarray, d: np.ndarray, ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Members sorted by ``(row, distance, oid)`` and the offsets of
    each row's run: ``(seg, d, oid)``."""
    order = _rank(d, ids, mrow)
    seg = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(mrow, minlength=n_rows), out=seg[1:])
    return seg, d[order], ids[order]


def _row_by_row(
    search, categories, meter, exclude_oid, exclude, *columns
) -> Rows:
    """The small-row strategy: ``search(*row, exclusion set, meter)``
    per row of ``columns``, the set holding the row's own id (``-1``:
    nobody) and the shared ``exclude``. A row's charges are what its
    search added to the meter's ``categories``."""
    shared = frozenset(exclude.tolist())
    tally = CostMeter() if meter is None else meter
    found, seen = [], [[tally.units[c] for c in categories]]
    for oid, *row in zip(
        exclude_oid.tolist(), *(col.tolist() for col in columns)
    ):
        skip = shared | {oid} if oid >= 0 else shared
        found.append(search(*row, skip, tally))
        seen.append([tally.units[c] for c in categories])
    totals = np.array(seen, dtype=np.int64)
    return Rows(
        np.cumsum([0, *(ids.shape[0] for _, ids in found)], dtype=np.int64),
        np.concatenate([np.empty(0), *(d for d, _ in found)]),
        np.concatenate([_NO_IDS, *(ids for _, ids in found)]),
        dict(zip(categories, (totals[1:] - totals[:-1]).T)),
    )


def range_search_many(
    grid: UniformGrid,
    cx: np.ndarray,
    cy: np.ndarray,
    r: np.ndarray,
    exclude_oid: np.ndarray,
    exclude: np.ndarray = _NO_IDS,
    meter: Optional[CostMeter] = None,
) -> Rows:
    """Everything within ``r[i]`` of ``(cx[i], cy[i])``, without the id
    ``exclude_oid[i]`` (``-1``: nobody) and without any id of
    ``exclude``: :func:`range_search_arrays`'s answers and charges, row
    by row; the meter is charged the column sums. Fewer than
    :data:`BREAK_EVEN` rows search one by one, more in one pass.
    """
    if (r < 0).any():
        raise IndexError_("negative radius in range_search_many")
    if meter is None:
        meter = grid.meter
    n_rows = cx.shape[0]
    if n_rows < BREAK_EVEN:
        return _row_by_row(
            partial(range_search_arrays, grid), _RANGE_CHARGES, meter,
            exclude_oid, exclude, cx, cy, r,
        )
    row, lin, cmd = _disk_cells(grid, cx, cy, r, 0)
    hit = cmd <= r[row]
    ids, _, mrow, d = _scored_members(
        grid, row[hit], lin[hit], cx, cy, exclude_oid, exclude
    )
    charge(meter, CostMeter.CELL_VISIT, row.shape[0])
    charge(meter, CostMeter.DIST_CALC, mrow.shape[0])
    charges = {
        CostMeter.CELL_VISIT: np.bincount(row, minlength=n_rows),
        CostMeter.DIST_CALC: np.bincount(mrow, minlength=n_rows),
    }
    within = d <= r[mrow]
    return Rows(*_ranked(n_rows, mrow[within], d[within], ids[within]), charges)


def range_search_written(
    grid: UniformGrid,
    cx: np.ndarray,
    cy: np.ndarray,
    r: np.ndarray,
    exclude_oid: np.ndarray,
    writes: List[np.ndarray],
    since: np.ndarray,
    exclude: np.ndarray = _NO_IDS,
    meter: Optional[CostMeter] = None,
) -> Rows:
    """:func:`range_search_many`'s question, for disks searched before:
    a row with a mark may be answered from the objects written since.

    ``writes[j]`` holds the ids of the ``j``-th grid write since some
    mark (``ObjectTable.written_since``), and row ``i`` takes the writes
    from ``since[i]`` on (``since[i] < 0``: no usable mark, the row is
    searched in full). A marked row's members are those of its written
    objects the full search would return now: in a cell the search
    opens (its bounding box, and ``cell_min_dist <= r``), not
    ``exclude_oid[i]``, within ``r`` by the same distance recipe,
    ranked ``(distance, oid)``. Charges are the full search's, in
    closed form: the box's cells, and the opened cells' members less
    the excluded id. Every row is searched in full where the writes
    outnumber the members the marked rows' full searches score (the
    cheaper pass), or under a shared ``exclude`` (not in the closed
    form).
    """
    marked = since >= 0
    meter = grid.meter if meter is None else meter
    if not marked.any() or exclude.shape[0] or (r < 0).any():
        return range_search_many(grid, cx, cy, r, exclude_oid, exclude, meter)
    n_rows = cx.shape[0]
    row, lin, cmd = _disk_cells(grid, cx, cy, r, 0)
    hit = cmd <= r[row]
    orow, olin = row[hit], lin[hit]
    # the excluded id's cell, -1 where it is not indexed
    xcell = np.full(n_rows, -1, dtype=np.int64)
    known = (exclude_oid >= 0) & (exclude_oid < grid.capacity)
    xcell[known] = grid._dcell[exclude_oid[known]]
    dist_calc = np.bincount(orow, grid._store.live[olin], n_rows).astype(
        np.int64
    ) - np.bincount(orow[olin == xcell[orow]], minlength=n_rows)
    sizes = [ids.shape[0] for ids in writes]
    if sum(sizes) > dist_calc[marked].sum():
        return range_search_many(grid, cx, cy, r, exclude_oid, meter=meter)
    # the unmarked rows: every member of the cells they open
    full = ~marked[orow]
    ids, _, mrow, d = _scored_members(
        grid, orow[full], olin[full], cx, cy, exclude_oid, exclude
    )
    # the marked rows: an object was written since a row's mark iff its
    # last write was
    oid = np.concatenate([_NO_IDS, *writes])
    wids, last = np.unique(oid[::-1], return_index=True)
    at = np.repeat(np.arange(len(sizes)), sizes)[oid.shape[0] - 1 - last]
    opened = np.zeros((grid.cells * grid.cells, n_rows), dtype=bool)
    opened[olin[~full], orow[~full]] = True
    e, i = np.nonzero(opened[grid._dcell[wids]])
    keep = (at[e] >= since[i]) & (wids[e] != exclude_oid[i])
    wids, i = wids[e[keep]], i[keep]
    ddx = grid._dx[wids] - cx[i]
    ddy = grid._dy[wids] - cy[i]
    ids = np.concatenate((ids, wids))
    mrow = np.concatenate((mrow, i))
    d = np.concatenate((d, np.sqrt(ddx * ddx + ddy * ddy)))
    within = d <= r[mrow]
    charge(meter, CostMeter.CELL_VISIT, row.shape[0])
    charge(meter, CostMeter.DIST_CALC, int(dist_calc.sum()))
    charges = {
        CostMeter.CELL_VISIT: np.bincount(row, minlength=n_rows),
        CostMeter.DIST_CALC: dist_calc,
    }
    return Rows(*_ranked(n_rows, mrow[within], d[within], ids[within]), charges)


def knn_search_many(
    grid: UniformGrid,
    qx: np.ndarray,
    qy: np.ndarray,
    k,
    exclude_oid: np.ndarray,
    exclude: np.ndarray = _NO_IDS,
    meter: Optional[CostMeter] = None,
) -> Rows:
    """The ``k`` (one int, or one per row) nearest to each ``(qx[i],
    qy[i])``, without the id ``exclude_oid[i]`` (``-1``: nobody) and
    without any id of ``exclude``: :func:`knn_search`'s answers and
    charges, row by row; the meter is charged the column sums. Fewer
    than :data:`BREAK_EVEN` rows search one by one, more in one pass.

    The pass is *bound, then range*: a row's upper bound is the k-th
    smallest distance inside the smallest square of cells around its
    query cell that holds ``k`` eligible members (squares of 0, 1, 2,
    4, ... rings; none does when the whole grid holds fewer); one
    ranked range pass inside the bounds then yields every row's
    answer. Charges are the best-first search's, from the closed form
    in the module docstring.
    """
    n_rows = qx.shape[0]
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), (n_rows,))
    if (k < 1).any():
        raise IndexError_("k must be >= 1 in knn_search_many")
    if meter is None:
        meter = grid.meter
    if n_rows < BREAK_EVEN:
        return _row_by_row(
            partial(_knn_arrays, grid), _KNN_CHARGES, meter, exclude_oid,
            exclude, qx, qy, k,
        )
    u = grid.universe
    C = grid.cells
    last = C - 1
    # cell_of(clamp_point(q)), as knn_search places its query
    qi, qj = grid.cells_of(
        np.clip(qx, u.xmin, u.xmax), np.clip(qy, u.ymin, u.ymax)
    )

    def square(rows: np.ndarray, ring) -> Tuple[np.ndarray, ...]:
        """The in-grid cells within ``ring`` rings of the query cells."""
        return (
            np.maximum(qi[rows] - ring, 0),
            np.minimum(qi[rows] + ring, last),
            np.maximum(qj[rows] - ring, 0),
            np.minimum(qj[rows] + ring, last),
        )

    bound = np.full(n_rows, np.inf)
    todo = np.arange(n_rows)
    ring = 0
    while todo.shape[0]:
        row, ci, cj = grid.box_cells(*square(todo, ring))
        _, _, mrow, d = _scored_members(
            grid, todo[row], ci * C + cj, qx, qy, exclude_oid, exclude
        )
        d = d[_rank(d, row=mrow)]  # row after row, each ascending
        held = np.bincount(mrow, minlength=n_rows)[todo]
        enough = held >= k[todo]
        bound[todo[enough]] = d[(np.cumsum(held) - held + k[todo] - 1)[enough]]
        if ring >= last:
            break  # the whole grid holds fewer than k for the rest
        todo = todo[~enough]
        ring = max(1, 2 * ring)

    # One cell of padding: a cell whose edge lies exactly d_k away ties
    # with the k-th neighbour and is opened by the best-first search,
    # but the float bounding box of the disk may stop short of it.
    row, lin, cmd = _disk_cells(grid, qx, qy, bound, 1)
    hit = cmd <= bound[row]
    cmd_hit = cmd[hit]
    ids, src, mrow, d = _scored_members(
        grid, row[hit], lin[hit], qx, qy, exclude_oid, exclude
    )
    within = d <= bound[mrow]
    seg, d_in, ids_in = _ranked(n_rows, mrow[within], d[within], ids[within])
    found = seg[1:] - seg[:-1]
    d_k = np.full(n_rows, np.inf)
    full = np.flatnonzero(found >= k)
    d_k[full] = d_in[seg[full] + k[full] - 1]
    # Closed-form charges of the best-first search, all from d_k.
    popped = np.bincount(row[cmd <= d_k[row]], minlength=n_rows)
    scored = np.bincount(mrow[cmd_hit[src] <= d_k[mrow]], minlength=n_rows)
    ring_bound = (np.arange(C + 1) - 1) * min(grid._cell_w, grid._cell_h)
    lo_i, hi_i, lo_j, hi_j = square(
        np.arange(n_rows), np.searchsorted(ring_bound, d_k, side="right") - 1
    )
    pushed = (hi_i - lo_i + 1) * (hi_j - lo_j + 1)
    charge(meter, CostMeter.HEAP_OP, int((pushed + popped).sum()))
    charge(meter, CostMeter.CELL_VISIT, int(popped.sum()))
    if scored.any():  # like knn_search: no zero DIST_CALC entry
        charge(meter, CostMeter.DIST_CALC, int(scored.sum()))
    charges = {
        CostMeter.HEAP_OP: pushed + popped,
        CostMeter.CELL_VISIT: popped,
        CostMeter.DIST_CALC: scored,
    }
    return Rows(seg, d_in, ids_in, charges).head(k)
