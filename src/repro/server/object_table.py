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

Presence and positions are the grid's; the table adds four oid-indexed
numpy columns beside it (report tick, fresh tick, previous x / y), so
:meth:`ObjectTable.report_batch` and :meth:`ObjectTable.stale` are
single array operations and :meth:`ObjectTable.report` writes the same
columns one row at a time. Ids follow the grid's rule: ``[0,
capacity)``, columns grow on demand.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.geometry import Rect
from repro.index.grid import UniformGrid, grown
from repro.metrics.cost import CostMeter, charge

__all__ = ["ObjectTable"]


class ObjectTable:
    """Last-reported object positions plus dead-reckoning bookkeeping."""

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
        # oid-indexed columns; presence is tracked by the grid.
        self._rt = np.full(0, -1, dtype=np.int64)
        self._ft = np.full(0, -1, dtype=np.int64)
        self._px = np.zeros(0, dtype=np.float64)
        self._py = np.zeros(0, dtype=np.float64)

    def reserve(self, capacity: int) -> None:
        """Grow the table's and the grid's columns to cover every id
        below ``capacity`` (a size hint for builders)."""
        self.grid.reserve(capacity)
        cap = self._rt.shape[0]
        if capacity <= cap:
            return
        size = max(capacity, 2 * cap)
        self._rt = grown(self._rt, size, -1)
        self._ft = grown(self._ft, size, -1)
        self._px = grown(self._px, size, 0)
        self._py = grown(self._py, size, 0)

    def __len__(self) -> int:
        return len(self.grid)

    def __contains__(self, oid: int) -> bool:
        return oid in self.grid

    def ids(self) -> Iterator[int]:
        return self.grid.ids()

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
        self.reserve(oid + 1)
        self._px[oid], self._py[oid] = prev
        self._rt[oid] = tick
        self._ft[oid] = tick
        charge(self.meter, CostMeter.BOOKKEEPING)

    def report_batch(self, oids, xs, ys, tick: int) -> None:
        """Vectorized :meth:`report` of one columnar uplink batch.

        Equivalent to ``report`` per column entry: same grid effects,
        same previous-position bookkeeping, same total BOOKKEEPING +
        INDEX_UPDATE charges. Ids must be unique within a batch;
        :meth:`UniformGrid.update_batch` raises on an id repeated among
        the rows that change cell, before the table or the grid is
        written.
        """
        oid_arr = np.ascontiguousarray(oids, dtype=np.int64)
        n = oid_arr.shape[0]
        if n == 0:
            return
        self.reserve(int(oid_arr.max()) + 1)
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        grid = self.grid
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
        self._rt[oid] = -1
        self._ft[oid] = -1

    # -- views ------------------------------------------------------------

    def last_position(self, oid: int) -> Tuple[float, float]:
        """Most recent reported position (error <= theta at round end)."""
        return self.grid.position_of(oid)

    def previous_position(self, oid: int) -> Tuple[float, float]:
        """The reported position before the latest one."""
        if oid not in self:
            raise IndexError_(f"object {oid} not known to server")
        return (float(self._px[oid]), float(self._py[oid]))

    def report_tick_of(self, oid: int) -> int:
        if oid not in self:
            raise IndexError_(f"object {oid} not known to server")
        return int(self._rt[oid])

    def is_fresh(self, oid: int, tick: int) -> bool:
        """True if an exact position for ``tick`` is already known."""
        return 0 <= oid < self._ft.shape[0] and self._ft[oid] == tick

    def stale(self, oids, tick: int) -> np.ndarray:
        """The ids of ``oids`` that are *not* :meth:`is_fresh` at
        ``tick``, as an int64 array in input order (duplicates kept).

        One array compare. Ids the freshness
        column does not reach (negative, or beyond the table's capacity
        — the grid can grow without the table) are stale, as for
        :meth:`is_fresh`.
        """
        oids = np.asarray(oids, dtype=np.int64)
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
