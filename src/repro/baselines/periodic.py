"""PER: the naive periodic baseline (YPK-CNN's strawman).

Every tick, every query is re-evaluated from scratch by scanning the
full object population — the approach continuous-query papers compare
against. Server cost is O(N * Q) distance computations per tick; the
communication is the shared per-tick stream.

A ``period`` parameter re-evaluates only every ``period`` ticks (the
classic sampling knob): between evaluations, the published answer is
whatever the last evaluation produced, so accuracy degrades with the
period — the trade-off experiment E8 measures.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Sequence, Tuple

from repro.baselines.common import (
    CentralizedServerBase,
    ReporterPhase,
    reporters,
)
from repro.errors import ProtocolError
from repro.geometry import Rect
from repro.metrics.cost import CostMeter
from repro.net.faults import FaultPlan
from repro.net.simulator import RoundSimulator, ZERO_LATENCY
from repro.server.query_table import QuerySpec

__all__ = ["PeriodicServer", "build_periodic_system"]


class PeriodicServer(CentralizedServerBase):
    """Full re-scan of all objects for every query, every ``period`` ticks."""

    def __init__(
        self,
        universe: Rect,
        grid_cells: int = 32,
        period: int = 1,
        record_history: bool = False,
    ) -> None:
        super().__init__(universe, grid_cells, record_history=record_history)
        if period < 1:
            raise ProtocolError(f"period must be >= 1, got {period}")
        self.period = period

    def _process(self, tick: int, entries: List) -> None:
        # The scan reads the grid, never the update log.
        if (tick - 1) % self.period != 0:
            return
        for spec in self.queries:
            if spec.focal_oid not in self.grid:
                continue  # focal report lost so far; stale answer stands
            qx, qy = self.grid.position_of(spec.focal_oid)
            # Naive scan: distance to every object, keep the k best.
            best: List[Tuple[float, int]] = []
            for oid in self.grid.ids():
                if oid == spec.focal_oid:
                    continue
                ox, oy = self.grid.position_of(oid)
                ddx = ox - qx
                ddy = oy - qy
                d = math.sqrt(ddx * ddx + ddy * ddy)
                self.meter.charge(CostMeter.DIST_CALC)
                if len(best) < spec.k:
                    heapq.heappush(best, (-d, -oid))
                elif (d, oid) < (-best[0][0], -best[0][1]):
                    heapq.heapreplace(best, (-d, -oid))
            answer = sorted((-nd, -noid) for nd, noid in best)
            self.publish_and_push(spec, [oid for _, oid in answer])


def build_periodic_system(
    fleet,
    specs: Sequence[QuerySpec],
    grid_cells: int = 32,
    period: int = 1,
    latency: str = ZERO_LATENCY,
    record_history: bool = False,
    faults: Optional[FaultPlan] = None,
    telemetry=None,
) -> RoundSimulator:
    """Build a ready-to-run PER system.

    The per-tick report stream ships as one columnar ``TICK_REPORT``
    batch with one batched grid ingest; the O(N·Q) scan itself stays
    the scalar spec (PER is the strawman — its server cost *is* the
    result).
    """
    server = PeriodicServer(
        fleet.universe, grid_cells, period=period, record_history=record_history
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
