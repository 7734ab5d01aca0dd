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
actually invalidated, rather than re-walking the search space. A
tick's bounds come out of one gather, and one ``range_search_many``
answers its bounded queries.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.common import (
    AnswerRegionServer,
    ReporterPhase,
    reporters,
)
from repro.index.knn import NeighborList, range_search_many
from repro.metrics.cost import CostMeter
from repro.net.faults import FaultPlan
from repro.net.simulator import RoundSimulator, ZERO_LATENCY
from repro.server.query_table import QuerySpec

__all__ = ["CpmServer", "build_cpm_system"]


class CpmServer(AnswerRegionServer):
    """Answer-region dirty tracking + bounded incremental repair."""

    def _repair_rows(self, specs, qx, qy) -> List[NeighborList]:
        """Rows with ``k`` old members are :meth:`_bounded`; the rest
        (new queries, fewer than ``k`` objects so far) search
        best-first."""
        previous = [self.answers.get(spec.qid, ()) for spec in specs]
        bounded = [i for i, s in enumerate(specs) if len(previous[i]) >= s.k]
        fresh = [i for i, s in enumerate(specs) if len(previous[i]) < s.k]
        out = dict(zip(fresh, super()._repair_rows(
            [specs[i] for i in fresh], qx[fresh], qy[fresh]
        )))
        if bounded:
            out.update(zip(bounded, self._bounded(
                [specs[i] for i in bounded], [previous[i] for i in bounded],
                qx[bounded], qy[bounded],
            )))
        return [out[i] for i in range(len(specs))]

    def _bounded(self, specs, previous, qx, qy) -> List[NeighborList]:
        """One gather of the old members bounds each row's new ``d_k``
        (one DIST_CALC a member; they are always indexed: the grid
        never drops an object), one range search inside the bounds."""
        held = [len(members) for members in previous]
        members = np.fromiter(chain.from_iterable(previous), np.int64)
        row = np.repeat(np.arange(len(specs)), held)
        ddx = self.grid._dx[members] - qx[row]
        ddy = self.grid._dy[members] - qy[row]
        self.meter.charge(CostMeter.DIST_CALC, members.shape[0])
        bound = np.maximum.reduceat(
            np.sqrt(ddx * ddx + ddy * ddy), np.cumsum(held) - held
        )
        # A few ulps of inflation. Not needed for exactness — the range
        # search compares sqrt(dx*dx + dy*dy) <= r, the recipe the bound
        # above was computed with, so the farthest old member lands
        # inside — but it stays: a wider radius can open one more cell,
        # and taking it out could move the DIST_CALC columns of the
        # E-sweeps.
        bound += 1e-9 * (bound + 1.0)
        return range_search_many(
            self.grid, qx, qy, bound,
            np.array([spec.focal_oid for spec in specs], dtype=np.int64),
            meter=self.meter,
        ).head(np.array([spec.k for spec in specs])).lists()


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
