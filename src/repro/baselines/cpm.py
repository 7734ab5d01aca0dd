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
from typing import List, Optional, Sequence, Tuple

from repro.baselines.common import (
    AnswerRegionServer,
    ReporterPhase,
    reporters,
)
from repro.index.knn import knn_search, range_search
from repro.metrics.cost import CostMeter
from repro.net.faults import FaultPlan
from repro.net.simulator import RoundSimulator, ZERO_LATENCY
from repro.server.query_table import QuerySpec

__all__ = ["CpmServer", "build_cpm_system"]


class CpmServer(AnswerRegionServer):
    """Answer-region dirty tracking + bounded incremental repair."""

    def _repair(
        self, spec: QuerySpec, qx: float, qy: float
    ) -> List[Tuple[float, int]]:
        exclude = frozenset((spec.focal_oid,))
        previous = self.answers.get(spec.qid, ())
        if len(previous) >= spec.k:
            # Bounded repair: the old answer members bound the new d_k.
            bound = 0.0
            for oid in previous:
                if oid not in self.grid:
                    break  # member de-registered: fall back
                ox, oy = self.grid.position_of(oid)
                ddx = ox - qx
                ddy = oy - qy
                d = math.sqrt(ddx * ddx + ddy * ddy)
                self.meter.charge(CostMeter.DIST_CALC)
                if d > bound:
                    bound = d
            else:
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
                return cands[: spec.k]
        return knn_search(
            self.grid, qx, qy, spec.k, exclude=exclude, meter=self.meter
        )


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
