"""The server's (imperfect) knowledge of object positions.

Under the dead-reckoning contract, each object reports whenever it has
drifted more than ``theta`` from its last report, so the table's
per-object error is bounded by ``theta`` at the end of every round
(plus one tick of motion, ``v_max``, when messages take a tick to
arrive). The table keeps:

* last reported position, indexed in a :class:`UniformGrid` for
  range/kNN queries over *reported* positions;
* per-tick *freshness* — whether an exact position for this tick is
  already known (saving probes).

Presence and positions are the grid's; the table adds one oid-indexed
numpy column beside it (the tick an exact position is known for), so
:meth:`ObjectTable.report_batch` and :meth:`ObjectTable.stale_mask`
are single array operations and :meth:`ObjectTable.report` writes the same
column one row at a time. Ids follow the grid's rule: ``[0,
capacity)``, columns grow on demand.

Once a reader asks for a :meth:`ObjectTable.mark`, the table also keeps
a *write log*: the ids of each write, so a reader can re-check what
changed since its mark instead of the whole grid. The reader drops what
it no longer needs (:meth:`ObjectTable.forget`); a log longer than the
grid's capacity is dropped whole, and a mark from before that reads as
lost.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import IndexError_
from repro.geometry import Rect
from repro.index.grid import UniformGrid, grown
from repro.metrics.cost import CostMeter, charge

__all__ = ["ObjectTable"]


class ObjectTable:
    """Last-reported object positions plus per-tick freshness."""

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
        # oid-indexed fresh tick; presence is tracked by the grid.
        self._ft = np.full(0, -1, dtype=np.int64)
        #: the write log: the ids of each write call, oldest first;
        #: None: not kept. ``_log_start`` is the mark of its first
        #: entry, ``_log_held`` the objects it holds.
        self._log: Optional[List[np.ndarray]] = None
        self._log_start = 0
        self._log_held = 0

    def reserve(self, capacity: int) -> None:
        """Grow the table's and the grid's columns to cover every id
        below ``capacity`` (a size hint for builders)."""
        self.grid.reserve(capacity)
        cap = self._ft.shape[0]
        if capacity <= cap:
            return
        self._ft = grown(self._ft, max(capacity, 2 * cap), -1)

    def __contains__(self, oid: int) -> bool:
        return oid in self.grid

    # -- updates ----------------------------------------------------------

    def report(self, oid: int, x: float, y: float, tick: int) -> None:
        """Record a position report from ``oid`` at ``tick``.

        A report carries the object's exact position, so it also marks
        the object fresh for this tick.
        """
        # The grid validates the point: nothing is written if it raises.
        if oid in self:
            self.grid.update(oid, x, y)
        else:
            self.grid.insert(oid, x, y)
        self.reserve(oid + 1)
        self._ft[oid] = tick
        charge(self.meter, CostMeter.BOOKKEEPING)
        if self._log is not None:
            self._logged(np.array([oid]))

    def report_batch(self, oids, xs, ys, tick: int) -> None:
        """Vectorized :meth:`report` of one columnar uplink batch.

        Equivalent to ``report`` per column entry: same grid effects,
        same freshness, same total BOOKKEEPING + INDEX_UPDATE charges.
        Ids must be unique within a batch;
        :meth:`UniformGrid.update_batch` raises on an id repeated among
        the rows that change cell, before the table or the grid is
        written.
        """
        oid_arr = np.ascontiguousarray(oids, dtype=np.int64)
        n = oid_arr.shape[0]
        if n == 0:
            return
        self.grid.update_batch(oid_arr, xs, ys)  # spans the ids once
        if self._ft.shape[0] < self.grid.capacity:
            self._ft = grown(self._ft, self.grid.capacity, -1)
        self._ft[oid_arr] = tick
        charge(self.meter, CostMeter.BOOKKEEPING, n)
        if self._log is not None:
            self._logged(oid_arr.copy())

    # -- the write log ----------------------------------------------------

    def _logged(self, oids: np.ndarray) -> None:
        self._log.append(oids)
        self._log_held += oids.shape[0]
        if self._log_held > self.grid.capacity:  # a full search is cheaper
            self.forget(self.mark())

    def mark(self) -> int:
        """The write log's position now; the log is kept from the
        first call on."""
        if self._log is None:
            self._log = []
        return self._log_start + len(self._log)

    @property
    def logged_from(self) -> int:
        """The oldest mark the write log still reaches back to."""
        return self._log_start

    def written_since(self, mark: int) -> List[np.ndarray]:
        """The ids of every write since ``mark`` (not before
        :attr:`logged_from`), one array per write, oldest first: entry
        ``j`` came after mark ``mark + j``."""
        return self._log[mark - self._log_start:]

    def forget(self, mark: int) -> None:
        """Drop the write log before ``mark``."""
        drop = self._log[: max(mark - self._log_start, 0)]
        if drop:
            del self._log[: len(drop)]
            self._log_start += len(drop)
            self._log_held -= sum(oids.shape[0] for oids in drop)

    # -- views ------------------------------------------------------------

    # reach: the per-query walk that the DKNN-P row kernels are tested
    # against (tests/walk.py); the product reads grid.positions_of
    def last_position(self, oid: int) -> Tuple[float, float]:
        """Most recent reported position (error <= theta at round end)."""
        return self.grid.position_of(oid)

    # reach: the per-query walk that the DKNN-P row kernels are tested
    # against (tests/walk.py); the product reads stale_mask
    def is_fresh(self, oid: int, tick: int) -> bool:
        """True if an exact position for ``tick`` is already known."""
        return 0 <= oid < self._ft.shape[0] and self._ft[oid] == tick

    # reach: the per-query walk that the DKNN-P row kernels are tested
    # against (tests/walk.py); the product reads stale_mask
    def stale(self, oids, tick: int) -> np.ndarray:
        """The ids of ``oids`` that are *not* :meth:`is_fresh` at
        ``tick``, as an int64 array in input order (duplicates kept)."""
        oids = np.asarray(oids, dtype=np.int64)
        return oids[self.stale_mask(oids, tick)]

    def stale_mask(self, oids: np.ndarray, tick: int) -> np.ndarray:
        """Per entry of the int64 array ``oids``: not :meth:`is_fresh`
        at ``tick``.

        One array compare. Ids the freshness
        column does not reach (negative, or beyond the table's capacity
        — the grid can grow without the table) are stale, as for
        :meth:`is_fresh`.
        """
        ft = self._ft
        if not oids.shape[0]:
            return np.zeros(0, dtype=bool)
        # one unsigned reduction catches negatives and overflow alike
        if int(oids.view(np.uint64).max()) < ft.shape[0]:
            return ft[oids] != tick
        known = (oids >= 0) & (oids < ft.shape[0])
        is_stale = ~known
        is_stale[known] = ft[oids[known]] != tick
        return is_stale
