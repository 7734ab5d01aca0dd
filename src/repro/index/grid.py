"""Uniform grid index over object positions.

The standard server-side structure of the continuous-query literature
(SINA, SEA-CNN, CPM all build on it): the universe is divided into
``cells x cells`` equal cells; each cell holds the ids of the objects
currently inside it, and a reverse map gives each object's position.
Updates are O(1); range and kNN searches visit cells in order of
distance from the query point.

The grid has two interchangeable storage backends:

* the default **dict backend** (``_positions`` / ``_cells`` maps),
  used by the scalar reference path;
* an opt-in **dense backend** (:meth:`enable_dense`): positions and
  linear cell ids live in flat numpy arrays indexed by oid, which is
  what the columnar fast path needs — :meth:`update_batch` moves a
  whole tick's reports in O(arrays) and the vectorized searches in
  :mod:`repro.index.knn` gather positions by id. Cell buckets (sets
  keyed by the linear cell id ``ci * cells + cj``, the value the dense
  ``_dcell`` column stores) are maintained identically by both
  backends. Every operation charges the same :class:`CostMeter` units
  on both backends; the bit-identity suite relies on that.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

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


class UniformGrid:
    """A ``cells x cells`` uniform grid over a rectangular universe."""

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
        #: linear cell id -> member ids. A bucket that empties stays
        #: (there are at most ``cells**2``); readers skip empty ones.
        self._buckets: Dict[int, Set[int]] = defaultdict(set)
        self._positions: Dict[int, Tuple[float, float]] = {}
        # Each object's current linear cell id, so update() re-buckets
        # without re-deriving (and re-validating) the old position's.
        self._cells: Dict[int, int] = {}
        # Dense backend (enable_dense): oid-indexed flat arrays. While
        # dense, the two dicts above stay empty and _dcell[oid] >= 0
        # marks presence (value = linear cell id ci * cells + cj).
        self._dense = False
        self._dx = self._dy = self._dcell = None
        self._count = 0

    # -- dense backend --------------------------------------------------------

    def enable_dense(self, capacity: int) -> None:
        """Switch to oid-indexed array storage (fast-path builds only).

        Requires non-negative object ids; ``capacity`` hints the id
        range (arrays grow on demand). Existing contents migrate.
        Idempotent.
        """
        if self._dense:
            self._ensure_dense(capacity - 1)
            return
        cap = max(int(capacity), 1, *(o + 1 for o in self._positions or [0]))
        self._dx = np.zeros(cap, dtype=np.float64)
        self._dy = np.zeros(cap, dtype=np.float64)
        self._dcell = np.full(cap, -1, dtype=np.int64)
        for oid, (x, y) in self._positions.items():
            if oid < 0:
                raise IndexError_(
                    f"dense grid backend needs oids >= 0, got {oid}"
                )
            self._dx[oid] = x
            self._dy[oid] = y
            self._dcell[oid] = self._cells[oid]
        self._count = len(self._positions)
        self._positions = {}
        self._cells = {}
        self._dense = True

    def _ensure_dense(self, max_oid: int) -> None:
        """Grow the dense arrays to cover ``max_oid``."""
        cap = self._dcell.shape[0]
        if max_oid < cap:
            return
        new_cap = max(max_oid + 1, 2 * cap)
        for name in ("_dx", "_dy", "_dcell"):
            old = getattr(self, name)
            fill = -1 if name == "_dcell" else 0
            grown = np.full(new_cap, fill, dtype=old.dtype)
            grown[:cap] = old
            setattr(self, name, grown)

    # -- geometry -----------------------------------------------------------

    def cell_of(self, x: float, y: float) -> Cell:
        """The cell containing ``(x, y)``; boundary points clamp inward."""
        u = self.universe
        if not u.contains_point(x, y):
            raise IndexError_(f"point ({x}, {y}) outside universe {u}")
        ci = min(int((x - u.xmin) / self._cell_w), self.cells - 1)
        cj = min(int((y - u.ymin) / self._cell_h), self.cells - 1)
        return (ci, cj)

    def _lin_of(self, x: float, y: float) -> int:
        ci, cj = self.cell_of(x, y)
        return ci * self.cells + cj

    def cell_rect(self, cell: Cell) -> Rect:
        """The closed rectangle covered by ``cell``."""
        ci, cj = cell
        if not (0 <= ci < self.cells and 0 <= cj < self.cells):
            raise IndexError_(f"cell {cell} out of range")
        u = self.universe
        return Rect(
            u.xmin + ci * self._cell_w,
            u.ymin + cj * self._cell_h,
            u.xmin + (ci + 1) * self._cell_w,
            u.ymin + (cj + 1) * self._cell_h,
        )

    def cell_min_dist(self, cell: Cell, x: float, y: float) -> float:
        """Min distance from ``(x, y)`` to the cell rectangle (0 inside)."""
        u = self.universe
        dx = axis_gap(u.xmin, self._cell_w, x, cell[0])
        dy = axis_gap(u.ymin, self._cell_h, y, cell[1])
        return math.sqrt(dx * dx + dy * dy)

    # -- maintenance ----------------------------------------------------------

    def __len__(self) -> int:
        if self._dense:
            return self._count
        return len(self._positions)

    def __contains__(self, oid: int) -> bool:
        if self._dense:
            return 0 <= oid < self._dcell.shape[0] and self._dcell[oid] >= 0
        return oid in self._positions

    def insert(self, oid: int, x: float, y: float) -> None:
        """Add a new object; raises if the id is already present."""
        if oid in self:
            raise IndexError_(f"object {oid} already indexed")
        if self._dense and oid < 0:
            raise IndexError_(f"dense grid backend needs oids >= 0, got {oid}")
        lin = self._lin_of(x, y)
        self._buckets[lin].add(oid)
        if self._dense:
            self._ensure_dense(oid)
            self._dx[oid] = x
            self._dy[oid] = y
            self._dcell[oid] = lin
            self._count += 1
        else:
            self._positions[oid] = (x, y)
            self._cells[oid] = lin
        charge(self.meter, CostMeter.INDEX_UPDATE)

    def remove(self, oid: int) -> None:
        """Remove an object; raises if absent."""
        if self._dense:
            if oid not in self:
                raise IndexError_(f"object {oid} not indexed")
            lin = int(self._dcell[oid])
            self._dcell[oid] = -1
            self._count -= 1
        else:
            pos = self._positions.pop(oid, None)
            if pos is None:
                raise IndexError_(f"object {oid} not indexed")
            lin = self._cells.pop(oid)
        self._buckets[lin].discard(oid)
        charge(self.meter, CostMeter.INDEX_UPDATE)

    def update(self, oid: int, x: float, y: float) -> None:
        """Move an object to a new position; raises if absent."""
        if self._dense:
            if oid not in self:
                raise IndexError_(f"object {oid} not indexed")
            old = int(self._dcell[oid])
        else:
            old = self._cells.get(oid)
            if old is None:
                raise IndexError_(f"object {oid} not indexed")
        new = self._lin_of(x, y)
        if old != new:
            self._buckets[old].discard(oid)
            self._buckets[new].add(oid)
        if self._dense:
            self._dx[oid] = x
            self._dy[oid] = y
            self._dcell[oid] = new
        else:
            self._positions[oid] = (x, y)
            self._cells[oid] = new
        charge(self.meter, CostMeter.INDEX_UPDATE)

    def upsert(self, oid: int, x: float, y: float) -> None:
        """Insert or update, whichever applies."""
        if oid in self:
            self.update(oid, x, y)
        else:
            self.insert(oid, x, y)

    def update_batch(self, oids, xs, ys):
        """Vectorized upsert of many objects (dense backend only).

        Equivalent to ``upsert`` per object in column order — same
        bucketing, same total :data:`CostMeter.INDEX_UPDATE` charge,
        same out-of-universe errors — but touches the interpreter only
        for objects that changed cell (one ``discard`` + one ``add`` on
        the linear-keyed buckets each). Object ids must be unique within
        one call. Returns ``(old_lin, new_lin)`` linear cell-id arrays
        (``old_lin`` is -1 where the object was new), which is exactly
        what cell-keyed monitoring servers (CPM) need to find dirtied
        cells without re-deriving them.
        """
        if not self._dense:
            raise IndexError_("update_batch needs the dense grid backend")
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
            raise IndexError_("dense grid backend needs oids >= 0")
        self._ensure_dense(int(oid_arr.max()))
        # float division then int truncation — identical to cell_of.
        last = self.cells - 1
        ci = np.minimum(
            ((xs - u.xmin) / self._cell_w).astype(np.int64), last
        )
        cj = np.minimum(
            ((ys - u.ymin) / self._cell_h).astype(np.int64), last
        )
        new_lin = ci * self.cells + cj
        old_lin = self._dcell[oid_arr].copy()
        moved = old_lin != new_lin  # includes first-time inserts
        if moved.any():
            idx = np.nonzero(moved)[0]
            buckets = self._buckets
            old_moved = old_lin[idx]
            for o, a, b in zip(
                oid_arr[idx].tolist(),
                old_moved.tolist(),
                new_lin[idx].tolist(),
            ):
                if a >= 0:
                    buckets[a].discard(o)
                buckets[b].add(o)
            self._count += int(np.count_nonzero(old_moved < 0))
        self._dcell[oid_arr] = new_lin
        self._dx[oid_arr] = xs
        self._dy[oid_arr] = ys
        charge(self.meter, CostMeter.INDEX_UPDATE, n)
        return old_lin, new_lin

    def bulk_load(self, oids, xs, ys) -> None:
        """Insert many objects in one vectorized pass.

        Equivalent to ``insert`` called per object (same bucketing, same
        per-object :data:`CostMeter.INDEX_UPDATE` charges, same error
        conditions) but does the cell arithmetic with numpy and groups
        ids into buckets via one lexsort — O(n log n) with no per-object
        interpreter work. Raises before mutating anything, so a failed
        load leaves the grid untouched.
        """
        oid_arr = np.ascontiguousarray(oids, dtype=np.int64)
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        n = oid_arr.shape[0]
        if xs.shape[0] != n or ys.shape[0] != n:
            raise IndexError_(
                f"bulk_load length mismatch: {n} ids, "
                f"{xs.shape[0]} xs, {ys.shape[0]} ys"
            )
        if n == 0:
            return
        u = self.universe
        inside = (
            (xs >= u.xmin) & (xs <= u.xmax) & (ys >= u.ymin) & (ys <= u.ymax)
        )
        if not inside.all():
            bad = int(np.nonzero(~inside)[0][0])
            raise IndexError_(
                f"point ({xs[bad]}, {ys[bad]}) outside universe {u}"
            )
        if len(np.unique(oid_arr)) != n:
            raise IndexError_("bulk_load got duplicate object ids")
        if self._dense:
            if int(oid_arr.min()) < 0:
                raise IndexError_("dense grid backend needs oids >= 0")
            self._ensure_dense(int(oid_arr.max()))
            clash = self._dcell[oid_arr] >= 0
            if clash.any():
                bad = int(oid_arr[np.nonzero(clash)[0][0]])
                raise IndexError_(f"object {bad} already indexed")
        else:
            for oid in oid_arr:
                if int(oid) in self._positions:
                    raise IndexError_(f"object {int(oid)} already indexed")
        # float division then int truncation — identical to cell_of
        # (coordinates are >= the universe minimum, so truncation is
        # floor) — then clamp boundary points inward.
        last = self.cells - 1
        ci = np.minimum(
            ((xs - u.xmin) / self._cell_w).astype(np.int64), last
        )
        cj = np.minimum(
            ((ys - u.ymin) / self._cell_h).astype(np.int64), last
        )
        lin = ci * self.cells + cj
        order = np.argsort(lin, kind="stable")
        lin_s = lin[order]
        # group boundaries: first index of each distinct cell run
        starts = np.flatnonzero(np.r_[True, lin_s[1:] != lin_s[:-1]])
        ends = np.append(starts[1:], n)
        oid_sorted = oid_arr[order].tolist()
        for a, b, cell in zip(
            starts.tolist(), ends.tolist(), lin_s[starts].tolist()
        ):
            self._buckets[cell].update(oid_sorted[a:b])
        dense = self._dense
        if dense:
            self._dcell[oid_arr] = lin
            self._dx[oid_arr] = xs
            self._dy[oid_arr] = ys
            self._count += n
        else:
            ids = oid_arr.tolist()
            self._positions.update(zip(ids, zip(xs.tolist(), ys.tolist())))
            self._cells.update(zip(ids, lin.tolist()))
        charge(self.meter, CostMeter.INDEX_UPDATE, n)

    def rebuild(self, oids, xs, ys) -> None:
        """Drop everything and :meth:`bulk_load` the given snapshot."""
        self._buckets.clear()
        self._positions.clear()
        self._cells.clear()
        if self._dense:
            self._dcell.fill(-1)
            self._count = 0
        self.bulk_load(oids, xs, ys)

    def position_of(self, oid: int) -> Tuple[float, float]:
        """The indexed position of ``oid``; raises if absent."""
        if self._dense:
            if oid not in self:
                raise IndexError_(f"object {oid} not indexed")
            return (float(self._dx[oid]), float(self._dy[oid]))
        pos = self._positions.get(oid)
        if pos is None:
            raise IndexError_(f"object {oid} not indexed")
        return pos

    def positions_of(self, oids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`position_of` for an int64 id array: ``(xs, ys)``."""
        if self._dense:
            if oids.shape[0] and (
                # one unsigned reduction rejects negatives and overflow
                int(oids.view(np.uint64).max()) >= self._dcell.shape[0]
                or (self._dcell[oids] < 0).any()
            ):
                raise IndexError_("positions_of: some object is not indexed")
            return self._dx[oids], self._dy[oids]
        pos = [self.position_of(o) for o in oids.tolist()]
        return (
            np.array([p[0] for p in pos], dtype=np.float64),
            np.array([p[1] for p in pos], dtype=np.float64),
        )

    def ids(self) -> Iterator[int]:
        """All indexed object ids (ascending on the dense backend)."""
        if self._dense:
            return iter(np.nonzero(self._dcell >= 0)[0].tolist())
        return iter(self._positions)

    def objects_in_cell(self, cell: Cell) -> Set[int]:
        """Ids currently bucketed in ``cell`` (empty set if none)."""
        ci, cj = cell
        if not (0 <= ci < self.cells and 0 <= cj < self.cells):
            return set()
        return self._buckets.get(ci * self.cells + cj, set())

    # -- search support -------------------------------------------------------

    def cells_intersecting_circle(
        self, cx: float, cy: float, r: float
    ) -> Iterator[Cell]:
        """Yield every cell whose rectangle intersects the disk.

        Iterates only the bounding box of the disk, so cost is
        proportional to the disk area in cells, not the whole grid.
        """
        if r < 0:
            raise IndexError_(f"negative radius {r}")
        u = self.universe
        # Clamp both ends into the grid: a point on the max boundary
        # indexes one past the last cell, which must fold back in.
        last = self.cells - 1
        lo_i = min(max(int((cx - r - u.xmin) / self._cell_w), 0), last)
        hi_i = min(max(int((cx + r - u.xmin) / self._cell_w), 0), last)
        lo_j = min(max(int((cy - r - u.ymin) / self._cell_h), 0), last)
        hi_j = min(max(int((cy + r - u.ymin) / self._cell_h), 0), last)
        for ci in range(lo_i, hi_i + 1):
            for cj in range(lo_j, hi_j + 1):
                cell = (ci, cj)
                charge(self.meter, CostMeter.CELL_VISIT)
                if self.cell_min_dist(cell, cx, cy) <= r:
                    yield cell

    def nonempty_cells(self) -> List[Cell]:
        """Cells currently holding at least one object."""
        C = self.cells
        return [(lin // C, lin % C) for lin, b in self._buckets.items() if b]
