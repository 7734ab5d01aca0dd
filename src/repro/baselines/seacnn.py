"""SEA: shared-execution incremental monitoring (SEA-CNN-style).

Like SEA-CNN [Xiong, Mokbel, Aref — ICDE'05], the server maintains each
query's *answer region* (the circle around the query point with radius
``d_k``) and a cell-to-queries index over it. Each tick, only queries
that are actually *affected* — their focal object moved, or some moved
object's old or new position falls in a cell of their answer region —
are re-evaluated, with a fresh grid best-first kNN search. Unaffected
queries are skipped entirely, which is where the shared-execution
savings come from (static or slow queries in quiet neighborhoods cost
nothing).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.baselines.common import (
    CentralizedServerBase,
    ReporterPhase,
    reporters,
)
from repro.geometry import Rect
from repro.index.knn import knn_search
from repro.metrics.cost import CostMeter
from repro.net.faults import FaultPlan
from repro.net.simulator import RoundSimulator, ZERO_LATENCY
from repro.server.query_table import QuerySpec

__all__ = ["SeaCnnServer", "build_seacnn_system"]


class SeaCnnServer(CentralizedServerBase):
    """Answer-region dirty tracking + full re-search of dirty queries."""

    def __init__(
        self,
        universe: Rect,
        grid_cells: int = 32,
        record_history: bool = False,
    ) -> None:
        super().__init__(universe, grid_cells, record_history=record_history)
        #: qid -> cells currently covered by the query's answer region.
        self._region_cells: Dict[int, Set[Tuple[int, int]]] = {}
        #: cell -> qids whose answer region covers it.
        self._cell_map: Dict[Tuple[int, int], Set[int]] = {}
        #: qid -> current d_k (answer region radius).
        self._radius: Dict[int, float] = {}

    # -- region index maintenance ------------------------------------------

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
        self._radius[qid] = d_k
        self.meter.charge(CostMeter.BOOKKEEPING, len(new_cells ^ old_cells))

    # -- evaluation ---------------------------------------------------------------

    def _process(self, tick, updates) -> None:
        dirty: Set[int] = set()
        for spec in self.queries:
            if spec.qid not in self._region_cells:
                dirty.add(spec.qid)  # never evaluated
        for oid, old, new in updates:
            for qid in self.queries.queries_of_focal(oid):
                if old is None or old != new:
                    dirty.add(qid)
            if old == new:
                continue  # a parked object cannot affect any answer
            self.meter.charge(CostMeter.BOOKKEEPING)
            if old is not None:
                old_cell = self.grid.cell_of(old[0], old[1])
                dirty.update(self._cell_map.get(old_cell, ()))
            new_cell = self.grid.cell_of(new[0], new[1])
            dirty.update(self._cell_map.get(new_cell, ()))
        for qid in dirty:
            spec = self.queries.get(qid)
            focal = self.focal_position(spec)
            if focal is None:
                continue  # focal report lost so far; stale answer stands
            qx, qy = focal
            result = knn_search(
                self.grid,
                qx,
                qy,
                spec.k,
                exclude=frozenset((spec.focal_oid,)),
                meter=self.meter,
            )
            d_k = result[-1][0] if result else 0.0
            self._set_region(qid, qx, qy, d_k)
            self.publish_and_push(spec, [oid for _, oid in result])


def build_seacnn_system(
    fleet,
    specs: Sequence[QuerySpec],
    grid_cells: int = 32,
    latency: str = ZERO_LATENCY,
    record_history: bool = False,
    faults: Optional[FaultPlan] = None,
    telemetry=None,
) -> RoundSimulator:
    """Build a ready-to-run SEA system.

    The per-tick report stream ships as one columnar ``TICK_REPORT``
    batch with one batched grid ingest; dirty detection and the
    per-query re-searches run the scalar spec over the expanded batch,
    preserving the exact update order.
    """
    server = SeaCnnServer(
        fleet.universe, grid_cells, record_history=record_history
    )
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
