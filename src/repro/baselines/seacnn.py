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

from typing import Optional, Sequence

from repro.baselines.common import (
    AnswerRegionServer,
    ReporterPhase,
    reporters,
)
from repro.net.faults import FaultPlan
from repro.net.simulator import RoundSimulator, ZERO_LATENCY
from repro.server.query_table import QuerySpec

__all__ = ["SeaCnnServer", "build_seacnn_system"]


class SeaCnnServer(AnswerRegionServer):
    """Answer-region dirty tracking + full re-search of dirty queries
    (:meth:`AnswerRegionServer._repair_rows` as it stands)."""


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
    batch with one batched grid ingest and vectorized dirty detection
    (:class:`~repro.baselines.common.AnswerRegionServer`); a tick's
    dirty queries are re-searched from scratch, by one many-row kNN
    search.
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
