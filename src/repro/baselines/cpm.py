"""CPM: conceptual-partitioning-style incremental monitoring.

Modeled on CPM [Mouratidis, Papadias, Hadjieleftheriou — SIGMOD'05]:
the same answer-region dirty tracking as SEA, but a dirty query is
repaired with a *bounded* re-search instead of a from-scratch best-first
search. The bound exploits what the server already knows:

* every old answer member's new distance to the new query position is
  computable in ``k`` distance operations;
* the true new kNN all lie within ``r = max`` of those distances
  (the old answer supplies ``k`` objects within ``r``, so nothing
  farther can be in the answer);

so one range search of radius ``r`` plus a top-k selection is exact.
This mirrors CPM's property of touching only the cells the update
actually invalidated, rather than re-walking the search space.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.baselines.common import (
    BatchUpdates,
    CentralizedServerBase,
    ReporterPhase,
    reporters,
)
from repro.geometry import Rect
from repro.index.knn import knn_search, range_search
from repro.metrics.cost import CostMeter
from repro.net.faults import FaultPlan
from repro.net.simulator import RoundSimulator, ZERO_LATENCY
from repro.server.query_table import QuerySpec

__all__ = ["CpmServer", "build_cpm_system"]


def _touched_cells(
    batch: BatchUpdates, moved: np.ndarray, n_cells: int
) -> np.ndarray:
    """Ascending distinct linear ids of the cells that the ``moved``
    rows of ``batch`` left or entered: one flag per cell, set by
    scatter (a first-time insert has no old cell — ``old_cell`` is -1
    there and must not flag the last cell)."""
    mark = np.zeros(n_cells, dtype=bool)
    mark[batch.old_cell[moved & batch.known]] = True
    mark[batch.new_cell[moved]] = True
    return np.flatnonzero(mark)


class CpmServer(CentralizedServerBase):
    """Answer-region dirty tracking + bounded incremental repair."""

    def __init__(
        self,
        universe: Rect,
        grid_cells: int = 32,
        record_history: bool = False,
    ) -> None:
        super().__init__(universe, grid_cells, record_history=record_history)
        self._region_cells: Dict[int, Set[Tuple[int, int]]] = {}
        self._cell_map: Dict[Tuple[int, int], Set[int]] = {}
        #: qid -> current answer as ascending (distance, oid).
        self._answer: Dict[int, List[Tuple[float, int]]] = {}

    def _set_region(self, qid: int, qx: float, qy: float, d_k: float) -> None:
        new_cells = set(self.grid.cells_intersecting_circle(qx, qy, d_k))
        old_cells = self._region_cells.get(qid, set())
        for cell in old_cells - new_cells:
            members = self._cell_map[cell]
            members.discard(qid)
            if not members:
                del self._cell_map[cell]
        for cell in new_cells - old_cells:
            self._cell_map.setdefault(cell, set()).add(qid)
        self._region_cells[qid] = new_cells
        self.meter.charge(CostMeter.BOOKKEEPING, len(new_cells ^ old_cells))

    def _repair(self, spec: QuerySpec) -> None:
        focal = self.focal_position(spec)
        if focal is None:
            return  # focal report lost so far; stale answer stands
        qx, qy = focal
        exclude = frozenset((spec.focal_oid,))
        previous = self._answer.get(spec.qid)
        if previous is not None and len(previous) >= spec.k:
            # Bounded repair: the old answer members bound the new d_k.
            bound = 0.0
            usable = True
            for _, oid in previous:
                if oid not in self.grid:
                    usable = False  # member de-registered: fall back
                    break
                ox, oy = self.grid.position_of(oid)
                ddx = ox - qx
                ddy = oy - qy
                d = math.sqrt(ddx * ddx + ddy * ddy)
                self.meter.charge(CostMeter.DIST_CALC)
                if d > bound:
                    bound = d
            if usable:
                # A few ulps of inflation. Not needed for exactness —
                # range_search compares sqrt(dx*dx + dy*dy) <= r, the
                # recipe the bound above was computed with, so the
                # farthest old member lands inside — but it stays: a
                # wider radius can open one more cell, and taking it
                # out could move the DIST_CALC columns of the E-sweeps.
                bound += 1e-9 * (bound + 1.0)
                cands = range_search(
                    self.grid, qx, qy, bound, exclude=exclude, meter=self.meter
                )
                result = cands[: spec.k]
            else:
                result = knn_search(
                    self.grid, qx, qy, spec.k, exclude=exclude, meter=self.meter
                )
        else:
            result = knn_search(
                self.grid, qx, qy, spec.k, exclude=exclude, meter=self.meter
            )
        self._answer[spec.qid] = list(result)
        d_k = result[-1][0] if result else 0.0
        self._set_region(spec.qid, qx, qy, d_k)
        self.publish_and_push(spec, [oid for _, oid in result])

    def _seed_dirty(self) -> Set[int]:
        """Queries never evaluated yet are always dirty."""
        dirty: Set[int] = set()
        for spec in self.queries:
            if spec.qid not in self._region_cells:
                dirty.add(spec.qid)
        return dirty

    def _repair_dirty(self, dirty: Set[int]) -> None:
        # Sorted so the repair (and answer-push) order is a function of
        # the dirty *set*, not of how the update log happened to build
        # it — the batched and scalar ingest paths agree by design.
        for qid in sorted(dirty):
            self._repair(self.queries.get(qid))

    def _process(self, tick, updates) -> None:
        dirty = self._seed_dirty()
        for oid, old, new in updates:
            for qid in self.queries.queries_of_focal(oid):
                if old is None or old != new:
                    dirty.add(qid)
            if old == new:
                continue
            self.meter.charge(CostMeter.BOOKKEEPING)
            if old is not None:
                old_cell = self.grid.cell_of(old[0], old[1])
                dirty.update(self._cell_map.get(old_cell, ()))
            new_cell = self.grid.cell_of(new[0], new[1])
            dirty.update(self._cell_map.get(new_cell, ()))
        self._repair_dirty(dirty)

    def _process_entries(self, tick, entries) -> bool:
        """Vectorized dirty detection over columnar update batches.

        Per batched report the scalar path would: mark focal queries
        dirty if the position changed (or the object is new), charge
        one BOOKKEEPING per changed report, and mark every query whose
        answer region intersects the old or the new cell. All of that
        reduces to masks over the batch columns plus a lookup of the
        (few) distinct touched cells in ``_cell_map``.
        """
        dirty = self._seed_dirty()
        cells = self.grid.cells
        cell_map = self._cell_map
        focals = [
            (spec.focal_oid, spec.qid)
            for spec in self.queries
        ]
        for e in entries:
            if type(e) is not BatchUpdates:
                oid, old, new = e
                for qid in self.queries.queries_of_focal(oid):
                    if old is None or old != new:
                        dirty.add(qid)
                if old == new:
                    continue
                self.meter.charge(CostMeter.BOOKKEEPING)
                if old is not None:
                    old_cell = self.grid.cell_of(old[0], old[1])
                    dirty.update(cell_map.get(old_cell, ()))
                new_cell = self.grid.cell_of(new[0], new[1])
                dirty.update(cell_map.get(new_cell, ()))
                continue
            moved = ~e.known | (e.old_x != e.new_x) | (e.old_y != e.new_y)
            if e.oids.shape[0] and focals:
                # Focal objects are few; locate each in the (ascending
                # oid) batch instead of scanning the batch for them.
                oids = e.oids
                n = oids.shape[0]
                for foid, qid in focals:
                    i = int(np.searchsorted(oids, foid))
                    if i < n and oids[i] == foid and moved[i]:
                        dirty.add(qid)
            n_moved = int(np.count_nonzero(moved))
            if not n_moved:
                continue
            self.meter.charge(CostMeter.BOOKKEEPING, n_moved)
            if cell_map:
                for lin in _touched_cells(e, moved, cells * cells).tolist():
                    qids = cell_map.get((lin // cells, lin % cells))
                    if qids:
                        dirty.update(qids)
        self._repair_dirty(dirty)
        return True


def build_cpm_system(
    fleet,
    specs: Sequence[QuerySpec],
    grid_cells: int = 32,
    latency: str = ZERO_LATENCY,
    record_history: bool = False,
    faults: Optional[FaultPlan] = None,
    telemetry=None,
) -> RoundSimulator:
    """Build a ready-to-run CPM system.

    The per-tick report stream goes through the columnar message
    plane: one ``TICK_REPORT`` batch per tick
    (:class:`~repro.baselines.common.ReporterPhase`), one batched grid
    ingest, and vectorized dirty detection.
    """
    server = CpmServer(fleet.universe, grid_cells, record_history=record_history)
    for spec in specs:
        server.register_query(spec)
    server.grid.reserve(fleet.n)
    return RoundSimulator(
        fleet,
        server,
        reporters(fleet),
        latency=latency,
        faults=faults,
        client_phase=ReporterPhase(),
        telemetry=telemetry,
    )
