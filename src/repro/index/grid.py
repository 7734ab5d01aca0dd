"""Uniform grid index over object positions.

The standard server-side structure of the continuous-query literature
(SINA, SEA-CNN, CPM all build on it): the universe is divided into
``cells x cells`` equal cells; each cell holds the ids of the objects
currently inside it, and a reverse map gives each object's position.
Updates are O(1); range and kNN searches visit cells in order of
distance from the query point.

Storage is columnar: positions and linear cell ids
(``ci * cells + cj``) live in flat numpy arrays indexed by oid, and
cell membership in a :class:`_CellStore` — one flat id array with a
region per cell plus a per-oid slot column. Neither the write side
(:meth:`UniformGrid.update_batch` moves a whole tick's reports with a
fixed number of array operations) nor the read side (the searches in
:mod:`repro.index.knn` open a cell as an array slice) touches a Python
set; the scalar methods (``insert`` / ``update``) write the same
columns one row at a time. Objects are never removed: a server learns
of an object with its first report and keeps its last position.

Member *order* inside a cell is unspecified (every reader ranks by
``(distance, oid)``).
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.geometry import Rect
from repro.metrics.cost import CostMeter, charge

__all__ = ["UniformGrid"]

Cell = Tuple[int, int]


def axis_gap(lo: float, side: float, q: float, c: int) -> float:
    """Distance along one axis from coordinate ``q`` to grid column (or
    row) ``c`` of width ``side`` starting at ``lo``; 0 inside it. The
    one recipe every cell-distance computation shares, so pruning
    bounds agree to the ulp wherever they are evaluated."""
    cmin = lo + c * side
    if q < cmin:
        return cmin - q
    if q > cmin + side:
        return q - (cmin + side)
    return 0.0


def grown(column: np.ndarray, size: int, fill: int) -> np.ndarray:
    """``column`` extended to ``size`` entries, the new ones ``fill``."""
    out = np.full(size, fill, dtype=column.dtype)
    out[: column.shape[0]] = column
    return out


class _CellStore:
    """Cell membership of a :class:`UniformGrid`, in flat arrays.

    ``members`` holds one region per linear cell id, region ``c`` being
    ``members[start[c]:start[c + 1]]`` with its first
    ``fill[c] - start[c]`` entries written: member ids, or ``-1`` where
    a member has since left (a *tombstone*). ``slot[oid]`` is where
    ``oid`` sits, meaningful only while the grid's ``_dcell[oid] >= 0``.
    Removal is a tombstone write, insertion appends at the fill mark,
    and a region that would overflow triggers :meth:`_relayout` of the
    whole table: tombstones dropped, every region resized to 1.5x its
    members plus an equal share (``N / cells**2 + 8``) of spare room.

    A re-layout costs O(N + cells**2) and the spare share keeps the
    next one at least ``N / cells**2 + 8`` arrivals into one cell away,
    so the amortised cost of an arrival is O(cells**2) at worst — all
    traffic aimed at one sparse cell — whatever N is; a uniform
    stream in which 15 % of the members change cell per tick re-lays
    about every sixth tick. Memory is O(N + cells**2): 2.5 slots per
    member plus 8 per cell, never ``cells**2 * max cell``. Member order
    within a region is arbitrary.
    """

    __slots__ = ("members", "start", "fill", "slot")

    def __init__(self, n_cells: int, capacity: int) -> None:
        self.members = np.empty(0, dtype=np.int64)
        self.start = np.zeros(n_cells + 1, dtype=np.int64)
        self.fill = np.zeros(n_cells, dtype=np.int64)
        self.slot = np.zeros(capacity, dtype=np.int64)

    # -- reads --------------------------------------------------------------

    def cell(self, lin: int) -> np.ndarray:
        """Member ids of one cell (a fresh int64 array)."""
        seg = self.members[self.start[lin]:self.fill[lin]]
        return seg[seg >= 0]

    def _runs(self, lins: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Where the written entries of the cells ``lins`` sit in
        ``members``, run after run, and each run's length."""
        lo = self.start[lins]
        n = self.fill[lins] - lo
        # Output entry i, falling in cell c's run, reads
        # members[lo[c] + i - (entries before the run)].
        return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(int(n.sum())), n

    def gather(self, lins: np.ndarray) -> np.ndarray:
        """Member ids of every cell in ``lins``, concatenated."""
        ids = self.members[self._runs(lins)[0]]
        return ids[ids >= 0]

    def gather_sources(self, lins: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`gather`, plus for each member the index into ``lins``
        of the cell it came out of (``lins`` may repeat a cell)."""
        at, n = self._runs(lins)
        ids = self.members[at]
        live = ids >= 0
        return ids[live], np.repeat(np.arange(lins.shape[0]), n)[live]

    # -- writes -------------------------------------------------------------

    def drop_one(self, oid: int) -> None:
        self.members[self.slot[oid]] = -1

    def add_one(self, oid: int, lin: int) -> None:
        """Append ``oid`` (not currently stored) to cell ``lin``."""
        at = self.fill[lin]
        if at == self.start[lin + 1]:  # full: the array form re-lays
            self.add(np.array([oid]), np.array([lin]))
            return
        self.members[at] = oid
        self.slot[oid] = at
        self.fill[lin] = at + 1

    def add(self, oids: np.ndarray, lins: np.ndarray) -> None:
        """Append each of ``oids`` (unique, none currently stored) to
        its cell in ``lins``."""
        incoming = np.bincount(lins, minlength=self.fill.shape[0])
        if (self.fill + incoming > self.start[1:]).any():
            self._relayout(incoming)
        order = np.argsort(lins)
        self._append(oids[order], lins[order], incoming)

    def _append(self, oids, lins, counts) -> None:
        """Write ``oids`` at the fill marks of their cells ``lins``;
        rows come grouped by cell, ``counts`` of them per cell (so a
        row's rank in its cell is its index minus its run's start)."""
        run_start = np.cumsum(counts) - counts
        at = (self.fill - run_start)[lins] + np.arange(oids.shape[0])
        self.members[at] = oids
        self.slot[oids] = at
        self.fill += counts

    def move(self, oids, stored, lins) -> None:
        """Take ``oids`` out of their regions (where ``stored``) and
        append them to cells ``lins``. Raises on a repeated id before
        writing anything that outlives the call."""
        slot = self.slot
        old_at = slot[oids]
        # Scatter each row's index by id and read it back: a repeated
        # id keeps only one of its rows' indices. The scratch values
        # land in slots that add() overwrites, or that are put back.
        rows = np.arange(oids.shape[0])
        slot[oids] = rows
        if (slot[oids] != rows).any():
            slot[oids] = old_at  # repeats share one old value
            raise IndexError_("update_batch got duplicate object ids")
        self.members[old_at[stored]] = -1
        self.add(oids, lins)

    def _relayout(self, incoming: np.ndarray) -> None:
        """Rebuild every region without tombstones, sized for its
        members plus ``incoming`` arrivals plus fresh slack."""
        live_at = np.flatnonzero(self.members >= 0)
        live = self.members[live_at]  # grouped by cell as they sit
        n_cells = self.fill.shape[0]
        counts = np.diff(np.searchsorted(live_at, self.start))
        lins = np.repeat(np.arange(n_cells), counts)
        need = counts + incoming
        room = need + need // 2 + (int(need.sum()) // n_cells + 8)
        np.cumsum(room, out=self.start[1:])
        self.members = np.full(int(self.start[-1]), -1, dtype=np.int64)
        self.fill = self.start[:-1].copy()
        self._append(live, lins, counts)


class UniformGrid:
    """A ``cells x cells`` uniform grid over a rectangular universe.

    Object ids index the storage columns directly, so they must lie in
    ``[0, capacity)``: negative ids are rejected, the columns grow on
    demand (:meth:`reserve` sizes them up front) and memory is
    O(max id), not O(members). Every builder numbers its objects
    ``0..n-1``, so nothing sparser is supported.
    """

    def __init__(
        self,
        universe: Rect,
        cells: int,
        meter: Optional[CostMeter] = None,
    ) -> None:
        if cells < 1:
            raise IndexError_(f"grid needs >= 1 cell per side, got {cells}")
        if universe.width <= 0 or universe.height <= 0:
            raise IndexError_(f"degenerate universe {universe}")
        self.universe = universe
        self.cells = cells
        self.meter = meter
        self._cell_w = universe.width / cells
        self._cell_h = universe.height / cells
        # oid-indexed columns: _dcell[oid] >= 0 marks presence (value =
        # linear cell id ci * cells + cj), _dx/_dy hold the position.
        self._dx = np.zeros(0, dtype=np.float64)
        self._dy = np.zeros(0, dtype=np.float64)
        self._dcell = np.full(0, -1, dtype=np.int64)
        self._store = _CellStore(cells * cells, 0)

    def reserve(self, capacity: int) -> None:
        """Grow the columns to cover every id below ``capacity`` (a
        size hint for builders; writes call it as ids arrive)."""
        cap = self._dcell.shape[0]
        if capacity <= cap:
            return
        size = max(capacity, 2 * cap)
        self._dx = grown(self._dx, size, 0)
        self._dy = grown(self._dy, size, 0)
        self._dcell = grown(self._dcell, size, -1)
        self._store.slot = grown(self._store.slot, size, 0)

    # -- geometry -----------------------------------------------------------

    def cell_of(self, x: float, y: float) -> Cell:
        """The cell containing ``(x, y)``; boundary points clamp inward."""
        u = self.universe
        if not u.contains_point(x, y):
            raise IndexError_(f"point ({x}, {y}) outside universe {u}")
        ci = min(int((x - u.xmin) / self._cell_w), self.cells - 1)
        cj = min(int((y - u.ymin) / self._cell_h), self.cells - 1)
        return (ci, cj)

    def cells_of(
        self, xs: np.ndarray, ys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`cell_of` for coordinate arrays inside the universe
        (not checked here): float division then int truncation —
        coordinates are >= the universe minimum, so truncation is
        floor — then boundary points clamp inward."""
        u = self.universe
        last = self.cells - 1
        return (
            np.minimum(((xs - u.xmin) / self._cell_w).astype(np.int64), last),
            np.minimum(((ys - u.ymin) / self._cell_h).astype(np.int64), last),
        )

    def _lin_of(self, x: float, y: float) -> int:
        ci, cj = self.cell_of(x, y)
        return ci * self.cells + cj

    def cell_min_dist(self, cell: Cell, x: float, y: float) -> float:
        """Min distance from ``(x, y)`` to the cell rectangle (0 inside)."""
        u = self.universe
        dx = axis_gap(u.xmin, self._cell_w, x, cell[0])
        dy = axis_gap(u.ymin, self._cell_h, y, cell[1])
        return math.sqrt(dx * dx + dy * dy)

    # -- maintenance ----------------------------------------------------------

    def __contains__(self, oid: int) -> bool:
        return 0 <= oid < self._dcell.shape[0] and self._dcell[oid] >= 0

    def insert(self, oid: int, x: float, y: float) -> None:
        """Add a new object; raises if the id is already present."""
        if oid in self:
            raise IndexError_(f"object {oid} already indexed")
        if oid < 0:
            raise IndexError_(f"grid needs oids >= 0, got {oid}")
        lin = self._lin_of(x, y)
        self.reserve(oid + 1)
        self._store.add_one(oid, lin)
        self._dx[oid] = x
        self._dy[oid] = y
        self._dcell[oid] = lin
        charge(self.meter, CostMeter.INDEX_UPDATE)

    def update(self, oid: int, x: float, y: float) -> None:
        """Move an object to a new position; raises if absent."""
        if oid not in self:
            raise IndexError_(f"object {oid} not indexed")
        new = self._lin_of(x, y)
        if self._dcell[oid] != new:
            self._store.drop_one(oid)
            self._store.add_one(oid, new)
            self._dcell[oid] = new
        self._dx[oid] = x
        self._dy[oid] = y
        charge(self.meter, CostMeter.INDEX_UPDATE)

    def update_batch(self, oids, xs, ys):
        """Vectorized write of many objects, new or known.

        Equivalent to :meth:`update` per known object and :meth:`insert`
        per new one, in column order — same cell membership, same total
        :data:`CostMeter.INDEX_UPDATE` charge (one per row, moved or
        not), same out-of-universe errors
        — in a fixed number of array operations however many rows
        change cell. Object ids must be unique within one call: an id
        repeated among the rows that change cell raises, like every
        other rejection here, before the grid is touched. Returns
        ``(old_lin, new_lin)`` linear cell-id arrays (``old_lin`` is -1
        where the object was new), which is exactly what cell-keyed
        monitoring servers (CPM) need to find dirtied cells without
        re-deriving them.
        """
        oid_arr = np.ascontiguousarray(oids, dtype=np.int64)
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        n = oid_arr.shape[0]
        if xs.shape[0] != n or ys.shape[0] != n:
            raise IndexError_(
                f"update_batch length mismatch: {n} ids, "
                f"{xs.shape[0]} xs, {ys.shape[0]} ys"
            )
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        u = self.universe
        inside = (
            (xs >= u.xmin) & (xs <= u.xmax) & (ys >= u.ymin) & (ys <= u.ymax)
        )
        if not inside.all():
            bad = int(np.nonzero(~inside)[0][0])
            raise IndexError_(
                f"point ({xs[bad]}, {ys[bad]}) outside universe {u}"
            )
        if int(oid_arr.min()) < 0:
            raise IndexError_("grid needs oids >= 0")
        self.reserve(int(oid_arr.max()) + 1)
        ci, cj = self.cells_of(xs, ys)
        new_lin = ci * self.cells + cj
        old_lin = self._dcell[oid_arr]  # fancy indexing copies
        idx = np.flatnonzero(old_lin != new_lin)  # first-time inserts too
        if idx.shape[0]:
            movers = oid_arr[idx]
            stored = old_lin[idx] >= 0
            to = new_lin[idx]
            self._store.move(movers, stored, to)
            self._dcell[movers] = to
        self._dx[oid_arr] = xs
        self._dy[oid_arr] = ys
        charge(self.meter, CostMeter.INDEX_UPDATE, n)
        return old_lin, new_lin

    def position_of(self, oid: int) -> Tuple[float, float]:
        """The indexed position of ``oid``; raises if absent."""
        if oid not in self:
            raise IndexError_(f"object {oid} not indexed")
        return (float(self._dx[oid]), float(self._dy[oid]))

    def positions_of(self, oids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`position_of` for an int64 id array: ``(xs, ys)``."""
        if oids.shape[0] and (
            # one unsigned reduction rejects negatives and overflow
            int(oids.view(np.uint64).max()) >= self._dcell.shape[0]
            or (self._dcell[oids] < 0).any()
        ):
            raise IndexError_("positions_of: some object is not indexed")
        return self._dx[oids], self._dy[oids]

    def ids(self) -> Iterator[int]:
        """All indexed object ids, ascending."""
        return iter(np.nonzero(self._dcell >= 0)[0].tolist())

    # -- search support -------------------------------------------------------

    def box(self, cx: float, cy: float, r: float) -> Tuple[int, int, int, int]:
        """Inclusive cell range ``(lo_i, hi_i, lo_j, hi_j)`` of the
        disk's bounding box."""
        if r < 0:
            raise IndexError_(f"negative radius {r}")
        u = self.universe
        # Clamp both ends into the grid: a point on the max boundary
        # indexes one past the last cell, which must fold back in.
        last = self.cells - 1
        return (
            min(max(int((cx - r - u.xmin) / self._cell_w), 0), last),
            min(max(int((cx + r - u.xmin) / self._cell_w), 0), last),
            min(max(int((cy - r - u.ymin) / self._cell_h), 0), last),
            min(max(int((cy + r - u.ymin) / self._cell_h), 0), last),
        )

    def box_members(self, cx: float, cy: float, r: float) -> np.ndarray:
        """Ids of every member of the cells under the disk's bounding
        box — a superset of the objects inside the disk. Charges nothing: for bookkeeping reads the cost model
        does not bill (the shard tier sizing a borrow reply)."""
        lo_i, hi_i, lo_j, hi_j = self.box(cx, cy, r)
        ci = np.arange(lo_i, hi_i + 1, dtype=np.int64)
        cj = np.arange(lo_j, hi_j + 1, dtype=np.int64)
        return self._store.gather(np.add.outer(ci * self.cells, cj).ravel())

    def boxes(
        self, cx: np.ndarray, cy: np.ndarray, r: np.ndarray, pad: int = 0
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`box` of many disks at once, as four int64 arrays;
        ``pad`` widens every box by that many cells a side before it is
        clamped into the grid. An infinite radius covers the grid."""
        u = self.universe
        last = self.cells - 1

        def index(at: np.ndarray, lo: float, side: float, by: int) -> np.ndarray:
            # box()'s float expression and truncation, term for term;
            # the float clip only keeps infinities castable.
            col = np.clip((at - lo) / side, -1.0, self.cells).astype(np.int64)
            return np.clip(col + by, 0, last)

        return (
            index(cx - r, u.xmin, self._cell_w, -pad),
            index(cx + r, u.xmin, self._cell_w, pad),
            index(cy - r, u.ymin, self._cell_h, -pad),
            index(cy + r, u.ymin, self._cell_h, pad),
        )

    def box_cells(
        self,
        lo_i: np.ndarray,
        hi_i: np.ndarray,
        lo_j: np.ndarray,
        hi_j: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every cell of every box of :meth:`boxes`, flat: ``(row, ci,
        cj)`` with ``row`` the box a cell belongs to, ascending."""
        height = hi_j - lo_j + 1
        n = (hi_i - lo_i + 1) * height
        row = np.repeat(np.arange(n.shape[0]), n)
        at = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
        h = height[row]
        return row, lo_i[row] + at // h, lo_j[row] + at % h

    def cells_intersecting_circle(
        self, cx: float, cy: float, r: float
    ) -> Iterator[Cell]:
        """Yield every cell whose rectangle intersects the disk.

        Iterates only the bounding box of the disk, so cost is
        proportional to the disk area in cells, not the whole grid.
        """
        lo_i, hi_i, lo_j, hi_j = self.box(cx, cy, r)
        for ci in range(lo_i, hi_i + 1):
            for cj in range(lo_j, hi_j + 1):
                cell = (ci, cj)
                charge(self.meter, CostMeter.CELL_VISIT)
                if self.cell_min_dist(cell, cx, cy) <= r:
                    yield cell
