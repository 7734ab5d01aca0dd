"""The server's (imperfect) knowledge of object positions.

Under the dead-reckoning contract, each object reports whenever it has
drifted more than ``theta`` from its last report, so the table's
per-object error is bounded by ``theta`` at the end of every round
(plus one tick of motion, ``v_max``, when messages take a tick to
arrive). The table keeps:

* last reported position, indexed in a :class:`UniformGrid` for
  range/kNN queries over *reported* positions;
* the previous reported position (baselines use it to undo effects of a
  move);
* the tick of the last report, and per-tick *freshness* — whether an
  exact position for this tick is already known (saving probes).

Two storage backends with one interface: dicts (the scalar reference
build) and, after :meth:`ObjectTable.enable_dense`, oid-indexed numpy
columns, which make :meth:`ObjectTable.report_batch` and
:meth:`ObjectTable.stale` single array operations. The server's repair
round talks to the table only through methods that work on both.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.geometry import Rect
from repro.index.grid import UniformGrid
from repro.metrics.cost import CostMeter, charge

__all__ = ["ObjectTable"]


class ObjectTable:
    """Last-reported object positions plus dead-reckoning bookkeeping.

    Scalar reads (``is_fresh``, ``last_position``, …) and their array
    forms (:meth:`stale`, :meth:`report_batch`) behave the same on the
    dict and the dense backend; only ``report_batch`` needs the dense
    one.
    """

    def __init__(
        self,
        universe: Rect,
        grid_cells: int,
        theta: float,
        meter: Optional[CostMeter] = None,
    ) -> None:
        if theta < 0:
            raise IndexError_(f"negative theta {theta}")
        self.universe = universe
        self.theta = float(theta)
        self.meter = meter
        self.grid = UniformGrid(universe, grid_cells, meter=meter)
        self._report_tick: Dict[int, int] = {}
        self._previous: Dict[int, Tuple[float, float]] = {}
        self._fresh_tick: Dict[int, int] = {}
        # Dense backend (enable_dense): oid-indexed arrays replacing
        # the three dicts above; presence is tracked by the grid.
        self._dense = False
        self._rt = self._ft = self._px = self._py = None

    def enable_dense(self, capacity: int) -> None:
        """Switch to oid-indexed array storage (fast-path builds only).

        Turns on the grid's dense backend too, which is what unlocks
        :meth:`report_batch` and the vectorized range search. Existing
        contents migrate; idempotent.
        """
        self.grid.enable_dense(capacity)
        if self._dense:
            self._ensure_dense(capacity - 1)
            return
        cap = self.grid._dcell.shape[0]
        self._rt = np.full(cap, -1, dtype=np.int64)
        self._ft = np.full(cap, -1, dtype=np.int64)
        self._px = np.zeros(cap, dtype=np.float64)
        self._py = np.zeros(cap, dtype=np.float64)
        for oid, tick in self._report_tick.items():
            self._rt[oid] = tick
        for oid, tick in self._fresh_tick.items():
            self._ft[oid] = tick
        for oid, (x, y) in self._previous.items():
            self._px[oid] = x
            self._py[oid] = y
        self._report_tick = {}
        self._fresh_tick = {}
        self._previous = {}
        self._dense = True

    def _ensure_dense(self, max_oid: int) -> None:
        cap = self._rt.shape[0]
        if max_oid < cap:
            return
        new_cap = max(max_oid + 1, 2 * cap)
        for name, fill in (
            ("_rt", -1), ("_ft", -1), ("_px", 0), ("_py", 0)
        ):
            old = getattr(self, name)
            grown = np.full(new_cap, fill, dtype=old.dtype)
            grown[:cap] = old
            setattr(self, name, grown)

    def __len__(self) -> int:
        if self._dense:
            return len(self.grid)
        return len(self._report_tick)

    def __contains__(self, oid: int) -> bool:
        if self._dense:
            return oid in self.grid
        return oid in self._report_tick

    def ids(self) -> Iterator[int]:
        if self._dense:
            return self.grid.ids()
        return iter(self._report_tick)

    # -- updates ----------------------------------------------------------

    def report(self, oid: int, x: float, y: float, tick: int) -> None:
        """Record a position report from ``oid`` at ``tick``.

        A report carries the object's exact position, so it also marks
        the object fresh for this tick.
        """
        # The grid validates the point: nothing is written if it raises.
        if oid in self:
            prev = self.grid.position_of(oid)
            self.grid.update(oid, x, y)
        else:
            prev = (x, y)
            self.grid.insert(oid, x, y)
        if self._dense:
            self._ensure_dense(oid)
            self._px[oid], self._py[oid] = prev
            self._rt[oid] = tick
            self._ft[oid] = tick
        else:
            self._previous[oid] = prev
            self._report_tick[oid] = tick
            self._fresh_tick[oid] = tick
        charge(self.meter, CostMeter.BOOKKEEPING)

    def report_batch(self, oids, xs, ys, tick: int) -> None:
        """Vectorized :meth:`report` of one columnar uplink batch.

        Equivalent to ``report`` per column entry: same grid effects,
        same previous-position bookkeeping, same total BOOKKEEPING +
        INDEX_UPDATE charges. Ids must be unique within a batch;
        :meth:`UniformGrid.update_batch` raises on an id repeated among
        the rows that change cell, before the table or the grid is
        written. Dense backend only — the columnar fast path enables it
        at build time.
        """
        if not self._dense:
            raise IndexError_("report_batch needs the dense backend")
        oid_arr = np.ascontiguousarray(oids, dtype=np.int64)
        n = oid_arr.shape[0]
        if n == 0:
            return
        self._ensure_dense(int(oid_arr.max()))
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        grid = self.grid
        grid._ensure_dense(int(oid_arr.max()))
        known = grid._dcell[oid_arr] >= 0
        px = np.where(known, grid._dx[oid_arr], xs)
        py = np.where(known, grid._dy[oid_arr], ys)
        grid.update_batch(oid_arr, xs, ys)
        self._px[oid_arr] = px
        self._py[oid_arr] = py
        self._rt[oid_arr] = tick
        self._ft[oid_arr] = tick
        charge(self.meter, CostMeter.BOOKKEEPING, n)

    def forget(self, oid: int) -> None:
        """Drop an object (de-registration)."""
        if oid not in self:
            raise IndexError_(f"object {oid} not known to server")
        self.grid.remove(oid)
        if self._dense:
            self._rt[oid] = -1
            self._ft[oid] = -1
        else:
            del self._report_tick[oid]
            del self._previous[oid]
            self._fresh_tick.pop(oid, None)

    # -- views ------------------------------------------------------------

    def last_position(self, oid: int) -> Tuple[float, float]:
        """Most recent reported position (error <= theta at round end)."""
        return self.grid.position_of(oid)

    def previous_position(self, oid: int) -> Tuple[float, float]:
        """The reported position before the latest one."""
        if self._dense:
            if oid not in self:
                raise IndexError_(f"object {oid} not known to server")
            return (float(self._px[oid]), float(self._py[oid]))
        pos = self._previous.get(oid)
        if pos is None:
            raise IndexError_(f"object {oid} not known to server")
        return pos

    def report_tick_of(self, oid: int) -> int:
        if self._dense:
            if oid not in self:
                raise IndexError_(f"object {oid} not known to server")
            return int(self._rt[oid])
        tick = self._report_tick.get(oid)
        if tick is None:
            raise IndexError_(f"object {oid} not known to server")
        return tick

    def is_fresh(self, oid: int, tick: int) -> bool:
        """True if an exact position for ``tick`` is already known."""
        if self._dense:
            return (
                0 <= oid < self._ft.shape[0] and self._ft[oid] == tick
            )
        return self._fresh_tick.get(oid) == tick

    def stale(self, oids, tick: int) -> np.ndarray:
        """The ids of ``oids`` that are *not* :meth:`is_fresh` at
        ``tick``, as an int64 array in input order (duplicates kept).

        One array compare on the dense backend. Ids the freshness
        column does not reach (negative, or beyond the table's capacity
        — the grid can grow without the table) are stale, as for
        :meth:`is_fresh`.
        """
        oids = np.asarray(oids, dtype=np.int64)
        if not self._dense:
            fresh = self._fresh_tick
            return oids[[fresh.get(o) != tick for o in oids.tolist()]]
        if not oids.shape[0]:
            return oids
        ft = self._ft
        # one unsigned reduction catches negatives and overflow alike
        if int(oids.view(np.uint64).max()) < ft.shape[0]:
            return oids[ft[oids] != tick]
        known = (oids >= 0) & (oids < ft.shape[0])
        is_stale = ~known
        is_stale[known] = ft[oids[known]] != tick
        return oids[is_stale]

    def mark_fresh(self, oid: int, x: float, y: float, tick: int) -> None:
        """Record an exact position learned via a probe reply.

        Equivalent to a report — the position is exact — but kept as a
        separate entry point so callers signal intent.
        """
        self.report(oid, x, y, tick)

    def uncertainty_bound(self, extra: float = 0.0) -> float:
        """Max distance between a true and a reported position.

        ``extra`` adds slack for message latency (one tick of motion in
        one-tick-latency mode).
        """
        return self.theta + extra
