"""Per-query repairs: the SEA and CPM servers of the differential tests.

The build's :meth:`AnswerRegionServer._repair_rows` answers a tick's
dirty queries together — one many-row search per kind, CPM's bounds
out of one gather of the old answer members. The servers here answer
the same rows one query at a time, the way the algorithms are written
down: SEA with one best-first ``knn_search`` per query, CPM with its
old members' distances taken one ``position_of`` at a time and one
``range_search`` (or, short of ``k`` old members, one ``knn_search``)
per query. Dirty rule, publication order and pushes are the build's;
``tests.helpers.reference_system`` swaps these classes in.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.baselines import CpmServer, SeaCnnServer
from repro.index.knn import NeighborList, knn_search, range_search_arrays
from repro.metrics.cost import CostMeter
from repro.server.query_table import QuerySpec

__all__ = ["PER_QUERY", "PerQueryCpm", "PerQuerySea", "range_search"]


def range_search(
    grid, cx, cy, r, exclude=frozenset(), meter=None
) -> NeighborList:
    """All objects within distance ``r`` of ``(cx, cy)`` as ascending
    ``(distance, oid)`` pairs: ``range_search_arrays`` as a list."""
    d, ids = range_search_arrays(grid, cx, cy, r, exclude, meter)
    return list(zip(d.tolist(), ids.tolist()))


class _PerQuery:
    """``_repair_rows`` as one ``_repair`` call per row, in row order."""

    def _repair_rows(self, specs, qx, qy):
        return [
            self._repair(spec, x, y)
            for spec, x, y in zip(specs, qx.tolist(), qy.tolist())
        ]


class PerQuerySea(_PerQuery, SeaCnnServer):
    def _repair(
        self, spec: QuerySpec, qx: float, qy: float
    ) -> List[Tuple[float, int]]:
        return knn_search(
            self.grid, qx, qy, spec.k,
            exclude=frozenset((spec.focal_oid,)), meter=self.meter,
        )


class PerQueryCpm(_PerQuery, CpmServer):
    def _repair(
        self, spec: QuerySpec, qx: float, qy: float
    ) -> List[Tuple[float, int]]:
        exclude = frozenset((spec.focal_oid,))
        previous = self.answers.get(spec.qid, ())
        if len(previous) < spec.k:
            return knn_search(
                self.grid, qx, qy, spec.k, exclude=exclude, meter=self.meter
            )
        # Bounded repair: the old answer members bound the new d_k
        # (position_of raises on a member the grid does not hold).
        bound = 0.0
        for oid in previous:
            ox, oy = self.grid.position_of(oid)
            ddx = ox - qx
            ddy = oy - qy
            d = math.sqrt(ddx * ddx + ddy * ddy)
            self.meter.charge(CostMeter.DIST_CALC)
            if d > bound:
                bound = d
        bound += 1e-9 * (bound + 1.0)
        cands = range_search(
            self.grid, qx, qy, bound, exclude=exclude, meter=self.meter
        )
        return cands[: spec.k]


#: build class -> its per-query reference
PER_QUERY = {SeaCnnServer: PerQuerySea, CpmServer: PerQueryCpm}
