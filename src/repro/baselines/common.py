"""Shared machinery of the centralized baselines.

All three baselines (PER / SEA / CPM) use the same *communication*
pattern — every object streams its exact position to the server every
tick — and differ only in server-side evaluation cost. This module
provides the per-tick reporter node and the server base that ingests
the stream, keeps an exact grid, tracks per-tick movements, and pushes
answers to focal nodes; subclasses implement ``_process``. SEA and CPM
share one dirty rule, :class:`AnswerRegionServer`, and differ only in
how a dirty query is repaired.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.protocol import AnswerPush, LocationUpdate
from repro.errors import ProtocolError
from repro.geometry import Rect
from repro.index.grid import UniformGrid
from repro.index.knn import NeighborList, knn_search_many
from repro.metrics.cost import CostMeter
from repro.net.message import SERVER_ID, Message, MessageKind
from repro.net.node import MobileNode, Population
from repro.net.plane import ColumnarBatch
from repro.net.simulator import ClientPhase
from repro.server.engine import BaseServer
from repro.server.query_table import QuerySpec

__all__ = [
    "ReporterNode",
    "ReporterPhase",
    "reporters",
    "CentralizedServerBase",
    "AnswerRegionServer",
    "BatchUpdates",
]


class ReporterNode(MobileNode):
    """Streams this object's exact position to the server every tick."""

    def __init__(self, oid: int, fleet) -> None:
        super().__init__(oid, fleet)
        self.known_answers: Dict[int, List[int]] = {}

    def on_tick_start(self, tick: int) -> None:
        x, y = self.position
        self.send_server(MessageKind.TICK_REPORT, LocationUpdate(x, y))

    def on_message(self, msg: Message) -> None:
        if msg.kind == MessageKind.ANSWER_PUSH:
            payload = msg.payload
            self.known_answers[payload.qid] = list(payload.ids)
        else:
            raise ProtocolError(
                f"reporter node {self.oid} cannot handle {msg.kind}"
            )


def reporters(fleet) -> Population:
    """One :class:`ReporterNode` per fleet object, none built yet."""
    return Population(
        fleet.n, ReporterNode, lambda oid: ReporterNode(oid, fleet)
    )


class ReporterPhase(ClientPhase):
    """The centralized baselines' client side, no node object under it.

    Every reporter transmits every tick, so there is no silence
    predicate to evaluate — the whole phase is one columnar
    ``TICK_REPORT`` batch carrying the fleet's coordinates (copied at
    send time, so one-tick-latency delivery sees the positions of the
    sending tick), whatever the population's size (none for an empty
    one). An ``ANSWER_PUSH`` to a focal lands in ``_answers``, as the
    node's ``known_answers``.
    """

    drives = (ReporterNode,)

    def bind(self, sim) -> None:
        super().bind(sim)
        self._oids = np.arange(sim.fleet.n)
        #: oid -> the node's ``known_answers`` (focal objects only).
        self._answers: Dict[int, Dict[int, List[int]]] = {}

    def tick_start(self, tick: int) -> None:
        from repro.core.fastpath import _LU_NBYTES, _fleet_xy

        if not self._oids.shape[0]:
            return
        xs, ys = _fleet_xy(self.sim.fleet)
        self.sim.channel.send_batch(
            ColumnarBatch(
                MessageKind.TICK_REPORT,
                srcs=self._oids,
                dst=SERVER_ID,
                # copied: one-tick latency reads the sending tick
                xs=xs.copy(),
                ys=ys.copy(),
                payload_nbytes=_LU_NBYTES,
                payload_ctor=LocationUpdate,
            )
        )

    def deliver_area(self, msg: Message) -> None:
        """The ``ANSWER_PUSH`` arm of ``ReporterNode.on_message``, for
        the server's push to one focal; anything else raises."""
        if msg.kind is not MessageKind.ANSWER_PUSH or msg.dst < 0:
            self._refuse(msg)
        payload = msg.payload
        self._answers.setdefault(msg.dst, {})[payload.qid] = list(payload.ids)


class BatchUpdates:
    """One ingested ``TICK_REPORT`` batch, pre-update state captured.

    Sits in the server's update log alongside scalar
    ``(oid, old, new)`` tuples, preserving arrival order.
    ``old_x``/``old_y`` are only meaningful where ``known``;
    ``old_cell``/``new_cell`` are the grid's linear cell ids from
    :meth:`UniformGrid.update_batch` (``old_cell == -1`` for new
    objects), which is what lets the answer-region dirty check skip
    re-deriving cells from coordinates.
    """

    __slots__ = (
        "oids", "known", "old_x", "old_y", "new_x", "new_y",
        "old_cell", "new_cell",
    )

    def __init__(
        self, oids, known, old_x, old_y, new_x, new_y, old_cell, new_cell
    ) -> None:
        self.oids = oids
        self.known = known
        self.old_x = old_x
        self.old_y = old_y
        self.new_x = new_x
        self.new_y = new_y
        self.old_cell = old_cell
        self.new_cell = new_cell


class CentralizedServerBase(BaseServer):
    """Ingests the per-tick position stream; subclasses evaluate queries."""

    def __init__(
        self,
        universe: Rect,
        grid_cells: int = 32,
        record_history: bool = False,
    ) -> None:
        super().__init__(record_history=record_history)
        self.universe = universe
        self.grid = UniformGrid(universe, grid_cells, meter=self.meter)
        #: (oid, old position or None, new position) received this tick.
        self._updates: List[
            Tuple[int, Optional[Tuple[float, float]], Tuple[float, float]]
        ] = []
        self._processed_tick = -1
        self._tick = 0

    # -- stream ingestion ---------------------------------------------------

    def on_message(self, msg: Message) -> None:
        if msg.kind != MessageKind.TICK_REPORT:
            raise ProtocolError(f"centralized server cannot handle {msg.kind}")
        payload = msg.payload
        oid = msg.src
        old: Optional[Tuple[float, float]]
        if oid in self.grid:
            old = self.grid.position_of(oid)
            self.grid.update(oid, payload.x, payload.y)
        else:
            old = None
            self.grid.insert(oid, payload.x, payload.y)
        self._updates.append((oid, old, (payload.x, payload.y)))

    def on_uplink_batch(self, batch: ColumnarBatch) -> None:
        """Ingest one columnar ``TICK_REPORT`` batch; any other kind
        raises.

        Vectorized twin of :meth:`on_message`: capture pre-update
        positions, one ``update_batch`` into the grid (same total
        INDEX_UPDATE charges), and log a :class:`BatchUpdates` record
        in arrival order for ``_process``.
        """
        if batch.kind is not MessageKind.TICK_REPORT:
            super().on_uplink_batch(batch)
        grid = self.grid
        oids = batch.srcs
        if not oids.shape[0]:
            return  # an empty batch reports nothing
        at = grid.span(oids)  # the id range, read once for both writes
        old_x = grid._dx[at]
        old_y = grid._dy[at]
        if type(at) is slice:  # views: keep the pre-update state
            old_x, old_y = old_x.copy(), old_y.copy()
        old_cell, new_cell = grid.update_batch(at, batch.xs, batch.ys)
        self._updates.append(
            BatchUpdates(
                oids, old_cell >= 0, old_x, old_y, batch.xs, batch.ys,
                old_cell, new_cell,
            )
        )

    # -- per-tick evaluation -------------------------------------------------

    def on_tick_start(self, tick: int) -> None:
        super().on_tick_start(tick)
        self._tick = tick

    def on_subround(self, tick: int) -> None:
        # All reports of a tick arrive in the first delivery batch;
        # evaluate once, then ignore the subrounds delivering pushes.
        if self._processed_tick == tick:
            return
        self._processed_tick = tick
        entries = self._updates
        self._updates = []
        self._process(tick, entries)

    def _process(self, tick: int, entries: List) -> None:
        """Evaluate all queries for this tick (subclass responsibility).

        ``entries`` is the tick's update log: scalar ``(oid, old, new)``
        tuples and :class:`BatchUpdates` records, in arrival order.
        """
        raise NotImplementedError

    # -- answer delivery --------------------------------------------------------

    def publish_and_push(self, spec: QuerySpec, answer_ids: List[int]) -> None:
        """Publish and, on membership change, push to the focal node."""
        if set(self.answers.get(spec.qid, ())) != set(answer_ids):
            self.send(
                spec.focal_oid,
                MessageKind.ANSWER_PUSH,
                AnswerPush(spec.qid, tuple(answer_ids)),
            )
        self.publish(spec.qid, answer_ids)


def _touched_cells(
    batch: BatchUpdates, moved: np.ndarray, n_cells: int
) -> np.ndarray:
    """One flag per linear cell id: did a ``moved`` row of ``batch``
    leave or enter it? Set by scatter (a first-time insert has no old
    cell — ``old_cell`` is -1 there and must not flag the last cell)."""
    mark = np.zeros(n_cells, dtype=bool)
    mark[batch.old_cell[moved & batch.known]] = True
    mark[batch.new_cell[moved]] = True
    return mark


class AnswerRegionServer(CentralizedServerBase):
    """SEA-CNN's answer-region dirty tracking, shared by SEA and CPM.

    Each query's *answer region* is the circle of radius ``d_k`` around
    its focal position; a cell-to-queries index covers it. A query is
    dirty when it was never evaluated, its focal object reported a new
    position, or a moved object left or entered a cell of its answer
    region. Only dirty queries are repaired, a tick's all at once by
    :meth:`_repair_rows` (SEA's best-first search, CPM's bounded one),
    then published in ascending qid; the rest cost nothing.
    """

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

    def _process(self, tick: int, entries: List) -> None:
        """Find the dirty queries in the update log and repair them.

        Per report: the focal object's queries are dirty if its
        position changed (or it is new); a changed report charges one
        BOOKKEEPING and dirties every query whose answer region holds
        its old or its new cell. A :class:`BatchUpdates` record does
        the same with masks over its columns plus one flag per cell,
        read for the (few) cells in ``_cell_map``.
        """
        dirty = {
            spec.qid for spec in self.queries
            if spec.qid not in self._region_cells
        }
        grid = self.grid
        cells = grid.cells
        cell_map = self._cell_map
        focals: Dict[int, List[int]] = {}  # focal oid -> its qids
        for spec in self.queries:
            focals.setdefault(spec.focal_oid, []).append(spec.qid)
        for e in entries:
            if type(e) is not BatchUpdates:
                oid, old, new = e
                if old == new:
                    continue  # a parked object cannot affect any answer
                dirty.update(focals.get(oid, ()))
                self.meter.charge(CostMeter.BOOKKEEPING)
                if old is not None:
                    dirty.update(cell_map.get(grid.cell_of(*old), ()))
                dirty.update(cell_map.get(grid.cell_of(*new), ()))
                continue
            moved = ~e.known | (e.old_x != e.new_x) | (e.old_y != e.new_y)
            if e.oids.shape[0] and focals:
                # Focal objects are few; locate each in the (ascending
                # oid) batch instead of scanning the batch for them.
                oids = e.oids
                n = oids.shape[0]
                for foid, qids in focals.items():
                    i = int(np.searchsorted(oids, foid))
                    if i < n and oids[i] == foid and moved[i]:
                        dirty.update(qids)
            n_moved = int(np.count_nonzero(moved))
            if not n_moved:
                continue
            self.meter.charge(CostMeter.BOOKKEEPING, n_moved)
            if cell_map:
                # look the (few) covered cells up in the touched flags
                touched = _touched_cells(e, moved, cells * cells)
                hits = touched[[i * cells + j for i, j in cell_map]]
                for qids, hit in zip(cell_map.values(), hits.tolist()):
                    if hit:
                        dirty.update(qids)
        # Sorted so the repair (and answer-push) order is a function of
        # the dirty *set*, not of how the update log happened to build
        # it. A focal report lost so far: the stale answer stands.
        specs = [
            spec for spec in map(self.queries.get, sorted(dirty))
            if spec.focal_oid in grid
        ]
        qx, qy = grid.positions_of(
            np.array([spec.focal_oid for spec in specs], dtype=np.int64)
        )
        found = self._repair_rows(specs, qx, qy)
        for spec, x, y, result in zip(specs, qx.tolist(), qy.tolist(), found):
            self._set_region(spec.qid, x, y, result[-1][0] if result else 0.0)
            self.publish_and_push(spec, [oid for _, oid in result])

    def _repair_rows(self, specs, qx, qy) -> List[NeighborList]:
        """The new answers of the dirty queries ``specs`` at their focal
        positions ``(qx, qy)``, as ascending ``(distance, oid)``: each
        one's ``k`` nearest by best-first search, its focal excluded —
        one :func:`knn_search_many`."""
        return knn_search_many(
            self.grid, qx, qy, [spec.k for spec in specs],
            np.array([spec.focal_oid for spec in specs], dtype=np.int64),
            meter=self.meter,
        ).lists()
