"""Grid-based best-first kNN and range search.

``knn_search`` is the CPM-style expanding search: cells enter a min-heap
keyed by their minimum distance to the query point, generated lazily in
square rings around the query cell; a cell is only opened while some
unopened cell could still beat the current k-th candidate. The search
is exact (verified against brute force by property tests).

Both searches read the grid's columns directly: a cell opens as an id
array out of the cell store and its distances are one array pass, so
the per-member work is numpy's, and the :class:`CostMeter` charges are
counts taken from array lengths.
"""

from __future__ import annotations

import heapq
import math
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.index.grid import UniformGrid, axis_gap
from repro.metrics.cost import CostMeter, charge

__all__ = ["knn_search", "range_search", "range_search_arrays", "NeighborList"]

#: A kNN result: ascending ``(distance, oid)`` pairs, ties broken by oid.
NeighborList = List[Tuple[float, int]]

_EMPTY: FrozenSet[int] = frozenset()


def _without(ids: np.ndarray, exclude: AbstractSet[int]) -> np.ndarray:
    """``ids`` minus the excluded ones (usually one focal object)."""
    if len(exclude) == 1:
        (only,) = exclude
        return ids[ids != only]
    if exclude:
        return ids[~np.isin(ids, np.fromiter(exclude, np.int64, len(exclude)))]
    return ids


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
    if k < 1:
        raise IndexError_(f"k must be >= 1, got {k}")
    if meter is None:
        meter = grid.meter

    u = grid.universe
    qi, qj = grid.cell_of(*u.clamp_point(qx, qy))
    C = grid.cells
    cw, ch = grid._cell_w, grid._cell_h
    min_side = min(cw, ch)
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
                gap = axis_gap(u.xmin, cw, qx, c)
                dx2[c] = gap * gap
        for c in {lo_j, hi_j}:
            if 0 <= c < C:
                gap = axis_gap(u.ymin, ch, qy, c)
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
            top = np.lexsort((idx, d))[:k]
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
    return sorted((-nd, -noid) for nd, noid in best)


def range_search(
    grid: UniformGrid,
    cx: float,
    cy: float,
    r: float,
    exclude: AbstractSet[int] = _EMPTY,
    meter: Optional[CostMeter] = None,
) -> NeighborList:
    """All objects within distance ``r`` of ``(cx, cy)`` as ascending
    ``(distance, oid)`` pairs — :func:`range_search_arrays` as a list."""
    d, ids = range_search_arrays(grid, cx, cy, r, exclude, meter)
    return list(zip(d.tolist(), ids.tolist()))


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

    Charges CELL_VISIT per bounding-box cell (on the grid's own meter,
    as ``cells_intersecting_circle`` does) and DIST_CALC per
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
    u = grid.universe
    cw, ch = grid._cell_w, grid._cell_h
    lo_i, hi_i, lo_j, hi_j = grid.box(cx, cy, r)
    charge(
        grid.meter, CostMeter.CELL_VISIT, (hi_i - lo_i + 1) * (hi_j - lo_j + 1)
    )
    ci = np.arange(lo_i, hi_i + 1, dtype=np.int64)
    cj = np.arange(lo_j, hi_j + 1, dtype=np.int64)
    xmin = u.xmin + ci * cw
    ymin = u.ymin + cj * ch
    # cell_min_dist's axis gaps: at most one of the two differences is
    # positive, so the max picks the branch the scalar code takes.
    dx = np.maximum(np.maximum(xmin - cx, cx - (xmin + cw)), 0.0)
    dy = np.maximum(np.maximum(ymin - cy, cy - (ymin + ch)), 0.0)
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
    order = np.lexsort((idx, d))
    return d[order], idx[order]
