"""Vectorized client phases: the batched silent-object pass.

The scalar simulator runs ``on_tick_start`` on every mobile node every
tick, although in band-based protocols the overwhelming majority of
those calls are no-ops — the object is *silent*: it holds no region (or
its regions are satisfied) and has not drifted past its dead-reckoning
threshold. These :class:`~repro.net.simulator.ClientPhase`
implementations evaluate that silence predicate for the whole fleet in
a few numpy passes and act only for the objects it flags: DKNN-P runs
the scalar ``on_tick_start`` on its **candidates** (or its column copy
for an unbuilt one), DKNN-B/G send the violation reports from the
mirrored cells themselves.

Exactness is preserved by construction, not by approximation:

* the DKNN-P candidate predicate is a *superset* test — every node
  whose scalar ``on_tick_start`` would transmit (or mutate state) is a
  candidate, and running the scalar method on a quiet candidate is a
  no-op, so sends, state, costs and answers are bit-identical;
* vector distances use ``np.sqrt(dx*dx + dy*dy)``, the exact float
  recipe of :func:`repro.geometry.dist`, and limits are the scalar
  code's own float expressions, so threshold comparisons agree with
  the scalar path to the bit;
* sends run in the simulator's mobile order (ascending oid), each
  node's in its own order, so message order on the channel — and
  therefore server processing order and every downstream statistic —
  is unchanged;
* node state the phase mirrors in arrays is never extrapolated. A
  DKNN-P node's drift origin and regions are re-read from the node
  whenever scalar code could have changed them (the *touched* set). A
  broadcast node's monitor view lives only in the mirror: every
  install reaches it through ``deliver_area`` (an install that does
  not is a ``ProtocolError``) and every report is muted there as it is
  sent. Where the phase applies a whole batch itself it does to each
  node exactly what the node's handler does and writes the same values
  to its columns in the same call;
* where the phase answers for the nodes — probe replies, drift and
  violation reports, the replies a DKNN-B/G collect round draws — it
  sends, in the nodes' own send order, exactly the messages their
  code would have sent, and a batch stands in the queue where that run
  would have stood (:mod:`repro.net.plane`).

``tests/test_fastpath.py`` pins all of this against the scalar path,
protocol by protocol, including under fault plans.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.broadcast_variant import BroadcastMobileNode
from repro.core.client import _BAND_CLASSES, _UNWRITTEN, DknnMobileNode
from repro.core.geocast_variant import GeocastMobileNode
from repro.core.hardened import HardenedDknnNode
from repro.core.protocol import (
    BAND_OUTSIDER,
    BAND_QUERY_CIRCLE,
    AnswerPush,
    CollectReply,
    CollectRequest,
    GeocastInstall,
    InstallBand,
    LocationUpdate,
    ProbeReply,
    RevokeBand,
    ViolationReport,
)
from repro.errors import ProtocolError
from repro.geometry.region import REGION_EPS, _SQ_SLACK_HI, _SQ_SLACK_LO
from repro.net.message import (
    BROADCAST_ID,
    GEOCAST_ID,
    SERVER_ID,
    Message,
    MessageKind,
    payload_size,
)
from repro.net.node import Node
from repro.net.plane import MIN_BATCH, ColumnarBatch
from repro.net.simulator import ClientPhase

__all__ = ["DknnSilentPhase", "BroadcastSilentPhase"]


def _fleet_xy(fleet) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinate arrays of the fleet (zero-copy for SoA fleets)."""
    pos = fleet.positions
    xs = getattr(pos, "xs", None)
    ys = getattr(pos, "ys", None)
    if xs is not None and ys is not None:
        return xs, ys
    arr = np.asarray(pos, dtype=np.float64)
    return arr[:, 0], arr[:, 1]


def _base_tick_end(mobiles) -> bool:
    """True when every mobile inherits the base no-op ``on_tick_end``."""
    return all(cls.on_tick_end is Node.on_tick_end for cls in mobiles.classes)


#: uniform wire sizes of the batched uplink payloads.
_LU_NBYTES = payload_size(LocationUpdate(0.0, 0.0))
_PR_NBYTES = payload_size(ProbeReply(0.0, 0.0))
_CR_NBYTES = payload_size(CollectReply(0, 0.0, 0.0))
_VR_NBYTES = payload_size(ViolationReport(0, 0.0, 0.0))
_VR_EPOCH_NBYTES = payload_size(ViolationReport(0, 0.0, 0.0, 0))


def _report_payload(kind: MessageKind, qid: int, x, y, epoch: int):
    """The payload of one report-flight row, as its node builds it."""
    if kind is MessageKind.LOCATION_UPDATE:
        return LocationUpdate(x, y)
    return ViolationReport(qid, x, y, epoch)


def _report_flight(srcs, codes, qids, epochs, xs, ys) -> ColumnarBatch:
    """Row ``i``: a ``REPORT_KINDS[codes[i]]`` report of ``srcs[i]`` at
    its position in ``(xs, ys)``, about ``qids[i]``, at ``epochs[i]``."""
    nbytes = np.where(epochs >= 0, _VR_EPOCH_NBYTES, _VR_NBYTES)
    return ColumnarBatch(  # fancy indexing copies xs / ys: latency-safe
        None, srcs=srcs, dst=SERVER_ID, xs=xs[srcs], ys=ys[srcs],
        payload_nbytes=np.where(codes == 0, _LU_NBYTES, nbytes),
        payload_ctor=_report_payload, codes=codes, qids=qids, epochs=epochs,
    )


#: region class -> (the table's row kind: the wire's band code, the
#: squared slack the class's ``contains`` multiplies ``radius**2`` by).
_ROW_KIND = {
    cls: (band, _SQ_SLACK_LO if band == BAND_OUTSIDER else _SQ_SLACK_HI)
    for band, cls in _BAND_CLASSES.items()
}

#: drift-origin mirror of a node that has never transmitted.
_NEVER_SENT = (math.nan, math.nan)
#: what an evaluation with nothing to re-check finds: no candidate,
#: no drift, no violated row
_NO_CANDIDATES = (
    np.empty(0, dtype=np.int64), np.empty(0, dtype=bool),
    np.empty(0, dtype=np.intp),
)

#: a broadcast query row before its first install: the zero cells.
_EMPTY_ROW = (0.0, 0.0, 0.0, np.empty(0, np.int64), np.empty(0), False)


def _band_limits(mon) -> Tuple[float, float]:
    """(inner, outer) band limits of a broadcast monitor — the float
    expressions of ``BroadcastMobileNode.on_tick_start``, so a
    comparison against them agrees with the scalar check to the bit."""
    return (
        (mon.threshold - mon.s) * (1.0 + REGION_EPS),
        (mon.threshold + mon.s) * (1.0 - REGION_EPS),
    )


def _cells(m, keep: np.ndarray) -> np.ndarray:
    """The oids of ``m``'s cells — ``m`` a whole-row slice or ascending
    oids — where ``keep``, a bool over ``row[m]``, holds."""
    return np.flatnonzero(keep) if isinstance(m, slice) else m[keep]


def _among(oids: np.ndarray, m) -> np.ndarray:
    """The entries of ``oids`` that ``m`` — a whole-row slice or
    ascending oids — holds, in their order."""
    if isinstance(m, slice):
        return oids
    if not m.shape[0]:
        return oids[:0]
    at = np.minimum(np.searchsorted(m, oids), m.shape[0] - 1)
    return oids[m[at] == oids]


def _send_runs(sim, flight: ColumnarBatch, scalar=(), run=None) -> None:
    """Send ``flight`` in the per-object order, ``run(oid)`` for each of
    the ``scalar`` oids (ascending) where it stands among the senders:
    each run of rows between them as one flight, or one by one with the
    plane closed."""
    batched = sim.plane_open()
    cuts = np.searchsorted(flight.srcs, scalar).tolist() + [flight.count]
    for start, stop, oid in zip([0] + cuts, cuts, list(scalar) + [None]):
        if start < stop and batched:
            sim.channel.send_batch(flight.rows(start, stop))
        elif start < stop:
            for msg in flight.rows(start, stop).materialize():
                sim.channel.send(msg.kind, msg.src, msg.dst, msg.payload)
        if oid is not None:
            run(oid)


class _RegionTable:
    """The installed safe regions of a DKNN fleet, in columns.

    One row per (node, installed region): ``oid``, ``qid``, anchor
    ``(ax, ay)``, ``radius``, ``kind`` (the wire's band code; -1 for a
    region class without one), ``limit``, the region object itself,
    ``order`` and ``muted``. ``limit`` is the squared distance the
    region class compares against — ``radius * radius * _SQ_SLACK_HI``
    (``_LO`` for outsider bands), computed in Python floats exactly as
    ``SafeRegion.contains`` computes it, so ``dx*dx + dy*dy`` against
    it decides like the scalar check to the bit. A region of unknown
    class gets a limit every position violates: its holder is checked
    by its own scalar code every tick. A ``muted`` row is a region
    whose violation its node reported (``qid in node._reported``): it
    is never checked until a repair re-installs or revokes it.

    The unmuted rows of a node are its armed regions. For a node that
    is not built yet the rows are all there is of its regions: in
    ``order`` they are its ``regions`` dict in insertion order (a
    re-install keeps its row's place, a region revoked and installed
    again goes last) and the muted ones its ``_reported``, which is
    what :meth:`regions_of` hands the node when it is built.

    The table has two writers. :meth:`rewrite` re-reads whole built
    nodes — the touched refresh, after scalar code ran on them: the
    node's old rows die and its armed regions take their place.
    :meth:`install` / :meth:`revoke` write one query's rows through for
    a whole batch of receivers at delivery time, leaving those nodes'
    other rows alone. Both put new rows into dead ones (:meth:`_claim`),
    and the columns double when there are none left — memory is O(peak
    rows). Dead rows keep their last ``oid``, so gathering positions by
    it never needs a mask.
    """

    #: the columns :meth:`_write` fills, in the order of :meth:`row`'s
    #: fields; ``muted`` is written False.
    _COLUMNS = (
        "oid", "qid", "ax", "ay", "radius", "kind", "limit", "region",
        "order", "muted",
    )
    __slots__ = ("live",) + _COLUMNS + ("_at", "_installs")

    def __init__(self, n: int) -> None:
        self.live = np.zeros(0, dtype=bool)
        self.oid = np.zeros(0, dtype=np.int64)
        self.qid = np.zeros(0, dtype=np.int64)
        self.ax = np.zeros(0)
        self.ay = np.zeros(0)
        self.radius = np.zeros(0)
        self.kind = np.zeros(0, dtype=np.int8)
        self.limit = np.zeros(0)
        self.region = np.zeros(0, dtype=object)
        self.order = np.zeros(0, dtype=np.int64)
        self.muted = np.zeros(0, dtype=bool)
        #: scratch, all -1 between calls: a node's position in the oid
        #: set :meth:`rows_of` is looking up.
        self._at = np.full(n, -1, dtype=np.int32)
        #: batch installs so far: the ``order`` of the rows they add.
        self._installs = 0

    @staticmethod
    def row(oid: int, qid: int, region) -> Tuple:
        """The column values of one armed region of node ``oid``."""
        r = region.radius
        kind, slack = _ROW_KIND.get(type(region), (-1, None))
        limit = r * r * slack if kind >= 0 else -math.inf
        return (oid, qid, region.ax, region.ay, r, kind, limit, region)

    def rows_of(self, oids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Live rows of the nodes in ``oids`` (unique ids), and for each
        row the position of its node within ``oids``."""
        at = self._at
        at[oids] = np.arange(oids.shape[0], dtype=np.int32)
        pos = at[self.oid]
        rows = np.nonzero(self.live & (pos >= 0))[0]
        at[oids] = -1
        return rows, pos[rows]

    # reach: a node built after batches installed regions on it (a
    # library caller indexing ``sim.mobiles``); no product command does
    def regions_of(self, oid: int) -> Tuple[Dict[int, object], Set[int]]:
        """The ``regions`` dict and the ``_reported`` set the rows of
        node ``oid`` stand for."""
        rows = self.rows_of(np.array([oid]))[0]
        rows = rows[np.argsort(self.order[rows], kind="stable")]
        qids = self.qid[rows].tolist()
        muted = self.muted[rows].tolist()
        return (
            dict(zip(qids, self.region[rows].tolist())),
            {qid for qid, m in zip(qids, muted) if m},
        )

    def _claim(self, m: int) -> np.ndarray:
        """``m`` dead rows to write into; every column doubles first
        when fewer are left."""
        free = np.nonzero(~self.live)[0]
        if free.shape[0] < m:
            size = max(2 * (int(self.live.sum()) + m), 64)
            for name in ("live",) + self._COLUMNS:
                old = getattr(self, name)
                new = np.zeros(size, dtype=old.dtype)
                new[: old.shape[0]] = old
                setattr(self, name, new)
            free = np.nonzero(~self.live)[0]
        return free[:m]

    def _write(self, m: int, *values, order=0) -> None:
        """Arm ``m`` rows, one assignment per column: ``values`` are
        the fields of :meth:`row` and ``order``, each a scalar or ``m``
        long."""
        free = self._claim(m)
        for name, value in zip(self._COLUMNS, values + (order, False)):
            getattr(self, name)[free] = value
        self.live[free] = True

    def rewrite(self, oids: np.ndarray, rows: List[Tuple]) -> None:
        """Replace every row of the nodes in ``oids`` by ``rows``
        (:meth:`row` tuples)."""
        self.live[self.rows_of(oids)[0]] = False
        if rows:
            self._write(len(rows), *zip(*rows))

    def install(
        self, oids: np.ndarray, seg: np.ndarray, qids: List[int], regions
    ) -> None:
        """Arm ``regions[seg[i]]`` for query ``qids[seg[i]]`` on node
        ``oids[i]``, row by row in send order, in one pass: a row the
        node held for that query is replaced in its place (``order``),
        a new one takes segment ``seg[i]``'s order number, and of two
        installs of one (node, query) the later wins."""
        rows, _ = self.rows_of(np.unique(oids))
        qid = np.array(qids, dtype=np.int64)
        span = int(max(qid.max(), self.qid[rows].max(initial=0))) + 1
        key = oids * span + qid[seg]
        # first and last occurrence of each (node, query) of the flight
        keys, first = np.unique(key, return_index=True)
        last = key.shape[0] - 1 - np.unique(key[::-1], return_index=True)[1]
        order = self._installs + seg[first]
        self._installs += len(qids)
        held = self.oid[rows] * span + self.qid[rows]
        if held.shape[0]:
            rank = np.argsort(held)
            at = np.searchsorted(held[rank], keys)
            at = rank[np.minimum(at, rank.shape[0] - 1)]
            hit = held[at] == keys
            order[hit] = self.order[rows[at[hit]]]
            self.live[rows[at[hit]]] = False
        pick = seg[last]
        fields = zip(*(self.row(0, q, r)[1:-1] for q, r in zip(qids, regions)))
        region = np.empty(len(regions), dtype=object)
        region[:] = regions
        self._write(
            keys.shape[0], oids[last],
            *(np.array(values)[pick] for values in fields), region[pick],
            order=order,
        )

    def revoke(self, oids: np.ndarray, qids: np.ndarray) -> Tuple:
        """Kill the row of query ``qids[i]`` on node ``oids[i]``, for
        every ``i`` whose node holds one, in one pass; returns the
        distinct nodes and, per node, whether it still holds a row."""
        nodes = np.unique(oids)
        rows, pos = self.rows_of(nodes)
        span = int(max(qids.max(), self.qid[rows].max(initial=0))) + 1
        held = self.oid[rows] * span + self.qid[rows]
        gone = np.isin(held, oids * span + qids)
        self.live[rows[gone]] = False
        held = np.zeros(nodes.shape[0], dtype=bool)
        held[pos[~gone]] = True
        return nodes, held

    def violated(self, xs, ys, rows=None) -> np.ndarray:
        """The unmuted rows whose region the positions ``(xs, ys)``
        violate — ``SafeRegion.violated``, row by row — among ``rows``
        (ascending; default: all)."""
        at = slice(None) if rows is None else rows
        dx = xs[self.oid[at]] - self.ax[at]
        dy = ys[self.oid[at]] - self.ay[at]
        d2 = dx * dx + dy * dy
        limit = self.limit[at]
        violated = (self.live[at] & ~self.muted[at]) & np.where(
            self.kind[at] == BAND_OUTSIDER, d2 < limit, d2 > limit
        )
        found = np.nonzero(violated)[0]
        return found if rows is None else rows[found]


class DknnSilentPhase(ClientPhase):
    """Batched tick-start for the point-to-point protocol (DKNN/-P/-FT).

    A :class:`~repro.core.client.DknnMobileNode`'s tick-start is a pure
    no-op (modulo its local clock) unless one of four things holds:

    * it has never transmitted (``_last_sent is None``);
    * it drifted more than ``theta`` from its last transmitted position;
    * one of its installed regions, not yet reported this episode, is
      violated at its current position;
    * it holds a region (*attention*) and is *timed*: a
      :class:`~repro.core.hardened.HardenedDknnNode`, whose lease
      heartbeat and violation-retry sweep may fire on any tick and are
      not second-guessed.

    The first three are evaluated exactly — the region predicate in
    one pass over the :class:`_RegionTable` — so on a fault-free build
    the candidates are precisely the nodes that will send.

    **Nodes on demand.** The phase drives a
    :class:`~repro.net.node.Population`, where a node object exists only
    once scalar code has needed it. For a node not built yet the
    columns are the whole node: the drift mirrors are its
    ``_last_sent`` / ``_last_uplink_tick``, its table rows its
    ``regions`` and ``_reported``, the builder's theta the rest;
    :meth:`_adopt` writes them onto the node the moment it is built.
    Batches reach an unbuilt node through the columns alone — answer
    pushes are held here until it is built — and so does its tick-start
    when it is not timed (:meth:`_reports`: the same reports, in the
    same order). What builds a node is a scalar dispatch, the
    tick-start of a timed node, or a loop over every node. A fault-free
    run has none of these: every downlink of the server is a flight
    :meth:`deliver_batch` takes whole, so no node is built. Scalar
    dispatches come from where the transport decides per message or the
    hardened build acks each install.

    The phase keeps ``(sent_x, sent_y, attention)`` mirrors and the
    built nodes' table rows current in two ways. A node on which
    *scalar* code ran — it was dispatched a PROBE / install / revoke
    message, or ran as a candidate — is **touched**: whatever that code
    did is re-read off the node before the next mask evaluation
    (:meth:`flush_touched`). A node reached by a columnar batch is not:
    :meth:`deliver_batch` applies the batch to the built nodes and to
    the columns in one call, so the table is current at delivery time.
    The node's local clock is synced at dispatch time — the only
    observable effect of the scalar tick-start on a silent node.

    On columnar builds (see :mod:`repro.net.plane`) the phase also
    splits the candidates: the *drift-only* ones — no installed region,
    so their whole tick-start is one ``LOCATION_UPDATE`` — are sent as
    a single columnar batch without ever invoking the nodes, and the
    reports of every other unbuilt, untimed candidate as one
    **report flight** (split where a built candidate runs its own
    tick-start, one by one with the plane closed: :func:`_send_runs`).
    Probe batches from the server are answered with one
    ``PROBE_REPLY`` batch. Nodes handled this way are **desynced**:
    the phase's mirrors
    are newer than ``node._last_sent``, and :meth:`_sync_node` flushes
    the mirror back onto the node before any scalar code path (message
    dispatch, scalar candidate run) can read it. Install, revoke and
    answer-push batches never desync anyone: they are written through
    to the built nodes, which stay the only source of truth for every
    scalar path.
    """

    #: message kinds whose handler can change the silence predicate
    #: (drift origin via the probe reply's ``_mark_sent``, regions and
    #: lease via installs/revokes). ANSWER_PUSH only updates known answers.
    _MUTATING = frozenset(
        (
            MessageKind.PROBE,
            MessageKind.INSTALL_REGION,
            MessageKind.REVOKE_REGION,
        )
    )

    def bind(self, sim) -> None:
        super().bind(sim)
        pop = sim.mobiles
        for cls in pop.classes:
            if not issubclass(cls, DknnMobileNode):
                raise ProtocolError(
                    f"DknnSilentPhase cannot drive {cls.__name__}"
                )
        self.skip_tick_end = _base_tick_end(pop)
        n = sim.fleet.n
        #: the population's node table (None: not built yet) and its
        #: builder — hot loops read ``node_of[oid] or build(oid)``.
        self._node_of: List[Optional[DknnMobileNode]] = pop.nodes
        self._build = pop.build
        pop.on_build = self._adopt
        self._active = np.zeros(n, dtype=bool)
        self._active[pop.oids()] = True
        self._theta = np.zeros(n, dtype=np.float64)
        self._sent_x = np.full(n, np.nan)
        self._sent_y = np.full(n, np.nan)
        self._attention = np.zeros(n, dtype=bool)
        #: hardened nodes: every candidate runs its own tick-start, and
        #: every region holder is one.
        self._timed = any(issubclass(c, HardenedDknnNode) for c in pop.classes)
        #: the oids the fleet can move; None: evaluate whole columns
        #: every tick (a timed build, or a fleet that can move them all).
        self._moving = None if self._timed else getattr(
            sim.fleet, "moving_rows", None
        )
        #: what the next evaluation re-checks besides the moving rows
        #: (:meth:`_candidates`); None: whole columns (the first
        #: evaluation, every one where ``_moving`` is None, and any
        #: after one whose candidates nearly fill them).
        self._recheck: Optional[List[np.ndarray]] = None
        #: candidates :meth:`idle` found, for the tick-start that follows
        self._ready: Optional[Tuple[np.ndarray, ...]] = None
        #: can :meth:`idle` observe a still tick? Not on a timed build,
        #: a fleet that cannot say whether it moved (a scalar one), nor
        #: where a mobile's tick end does work
        self.observes_stillness = (
            not self._timed
            and hasattr(sim.fleet, "moved")
            and self.skip_tick_end
        )
        # A node nobody has needed yet holds what a fresh one holds: no
        # region, nothing sent — the mirrors' defaults — and the
        # builder's theta, read once off a throw-away node.
        fresh = pop.fresh()
        if fresh is not None:
            self._theta[:] = fresh.theta
        # Nodes built before the phase (a hand-built table) are read
        # whole at the first flush, whatever state they were given.
        built = pop.built()
        for node in built:
            self._theta[node.oid] = node.theta
        self._touched: Set[int] = {node.oid for node in built}
        #: batched-uplink state: tick of the last (batched) uplink and
        #: whether the mirror is newer than the node (see _sync_node).
        self._uplink_tick = np.zeros(n, dtype=np.int64)
        self._desynced = np.zeros(n, dtype=bool)
        self.regions = _RegionTable(n)
        #: oid -> the ``known_answers`` of a focal not built yet.
        self._answers: Dict[int, Dict[int, List[int]]] = {}

    def _adopt(self, node: DknnMobileNode) -> None:
        """Write what the columns hold for a node built just now onto
        it: its drift origin, its regions if it holds any, and the
        answers pushed to it."""
        oid = node.oid
        self._sync_node(oid)
        if self._attention[oid]:
            node.regions, reported = self.regions.regions_of(oid)
            if reported:
                node._reported = reported
        if oid in self._answers:
            node.known_answers = self._answers.pop(oid)

    def _sync_node(self, oid: int) -> None:
        """Flush mirror-authoritative uplink state back onto the node.

        Columnar sends update the mirrors in place without invoking the
        node; until synced, ``node._last_sent`` is stale. Called before
        every scalar read of that state (message dispatch, scalar
        candidate run), so no scalar code ever observes the staleness.
        """
        if not self._desynced[oid]:
            return
        node = self._node_of[oid]
        node._last_sent = (
            float(self._sent_x[oid]), float(self._sent_y[oid])
        )
        node._last_uplink_tick = int(self._uplink_tick[oid])
        self._desynced[oid] = False

    def flush_touched(self) -> None:
        """Re-read the touched nodes — those scalar code ran on since
        the last flush — into the mirrors and the table.

        Runs before the candidate mask reads either (:meth:`tick_start`,
        :meth:`idle`). Values are gathered in lists and land in one
        assignment per column. A touched node that a batch reached as
        well is simply re-read whole: the batch went through to the
        node too.
        """
        if not self._touched:
            return
        ids = np.fromiter(self._touched, np.int64, len(self._touched))
        self._touched.clear()
        node_of = self._node_of
        row = _RegionTable.row
        attention: List[bool] = []
        synced: List[int] = []
        sent_x: List[float] = []
        sent_y: List[float] = []
        rows: List[Tuple] = []
        for oid, desynced in zip(ids.tolist(), self._desynced[ids].tolist()):
            node = node_of[oid]
            if not desynced:
                # Else the mirror is newer than the node (columnar
                # sends) and already holds the drift origin.
                x, y = node._last_sent or _NEVER_SENT
                synced.append(oid)
                sent_x.append(x)
                sent_y.append(y)
            regions = node.regions
            attention.append(bool(regions))
            if regions:
                # A reported region is muted until repaired: no row.
                muted = node._reported
                rows += [
                    row(oid, qid, region)
                    for qid, region in regions.items()
                    if qid not in muted
                ]
        self._attention[ids] = attention
        self._sent_x[synced] = sent_x
        self._sent_y[synced] = sent_y
        self.regions.rewrite(ids, rows)
        self._changed(ids)

    def _changed(self, oids: np.ndarray) -> None:
        """``oids`` may have gained a table row or an unmuted one, or
        a drift origin from scalar code: the next evaluation re-checks
        them (:meth:`_candidates`). A revoke or a probe reply can only
        turn a node's predicate off."""
        if self._recheck is not None:
            self._recheck.append(oids)

    def _candidates(self, xs, ys) -> Tuple[np.ndarray, ...]:
        """The candidates at positions ``(xs, ys)``, ascending, whether
        each drifted past theta (or never sent), and the violated table
        rows, ascending.

        Whole columns the first time, every time on a timed build or a
        fleet that can move every object, and whenever the rows to
        re-check are as many as the columns. Otherwise only the rows
        whose predicate can have turned since the last evaluation: the
        nodes written since in a way that can turn it on
        (:meth:`_changed`), the last evaluation's candidates, which
        covers a candidate that did not act (down under a fault plan),
        and the fleet's moving rows if the fleet moved. No other node
        was a candidate then, and nothing it is evaluated on has
        changed: every advance since the last evaluation is this
        tick's, as a tick on which the fleet moved is never skipped.
        Nothing to re-check finds nothing, without a numpy call."""
        table = self.regions
        n = self._active.shape[0]
        recheck, self._recheck = self._recheck, None
        if recheck is not None and self.sim.fleet.moved():
            recheck = [self._moving, *recheck]
        m = n if recheck is None else sum(map(len, recheck))
        if not m:
            self._recheck = recheck
            return _NO_CANDIDATES
        if m >= n:
            at, rows = slice(None), None
        else:
            at = np.unique(np.concatenate(recheck))
            rows = table.rows_of(at)[0]
        del recheck
        sent_x = self._sent_x[at]
        dx = xs[at] - sent_x
        dy = ys[at] - self._sent_y[at]
        drift = np.sqrt(dx * dx + dy * dy)
        moved = np.isnan(sent_x) | (drift > self._theta[at])
        cand = (moved | self._attention) if self._timed else moved.copy()
        hit = table.violated(xs, ys, rows)
        holders = table.oid[hit]
        cand[holders if rows is None else np.searchsorted(at, holders)] = True
        cand &= self._active[at]
        pos = np.flatnonzero(cand)
        oids = pos if rows is None else at[pos]
        moving = self._moving
        if moving is not None and moving.shape[0] + oids.shape[0] < n:
            self._recheck = [oids]
        return oids, moved[pos], hit

    def idle(self) -> bool:
        """Is no node a candidate at the current positions? Evaluates
        what :meth:`_candidates` would re-check; candidates it finds
        feed the tick-start that follows, which then does not evaluate
        again."""
        self.flush_touched()
        found = self._candidates(*_fleet_xy(self.sim.fleet))
        if found[0].shape[0]:
            self._ready = found
            return False
        return True

    def tick_start(self, tick: int) -> None:
        self.flush_touched()
        sim = self.sim
        xs, ys = _fleet_xy(sim.fleet)
        found, self._ready = self._ready, None
        oids, moved, hit = found or self._candidates(xs, ys)
        n_cand = oids.shape[0]
        if sim.plane_open():
            # Drift-only candidates (no installed region) do exactly
            # one thing scalar: send a LOCATION_UPDATE. Ship them all
            # as one batch.
            held = self._attention[oids]
            idx = oids[~held]
            if idx.shape[0] >= MIN_BATCH:
                bx = xs[idx]  # fancy indexing copies: latency-safe
                by = ys[idx]
                sim.channel.send_batch(
                    ColumnarBatch(
                        MessageKind.LOCATION_UPDATE,
                        srcs=idx,
                        dst=SERVER_ID,
                        xs=bx,
                        ys=by,
                        payload_nbytes=_LU_NBYTES,
                        payload_ctor=LocationUpdate,
                    )
                )
                self._sent_x[idx] = bx
                self._sent_y[idx] = by
                self._uplink_tick[idx] = tick
                self._desynced[idx] = True
                oids, moved = oids[held], moved[held]
        if sim.faults is not None:
            down = sim.faults.down_at(tick)  # no checks, no sends
            up = ~np.isin(oids, np.fromiter(down, np.int64, len(down)))
            oids, moved = oids[up], moved[up]
        # A built candidate, or a timed one, runs its own tick-start;
        # every other one is its columns.
        node_of = self._node_of
        scalar = oids.tolist()
        if not self._timed:
            scalar = [oid for oid in scalar if node_of[oid] is not None]
        if scalar:
            plain = ~np.isin(oids, scalar)
            oids, moved = oids[plain], moved[plain]
        flight = self._reports(oids, moved, hit, xs, ys, tick)
        _send_runs(sim, flight, scalar, self._tick_start)
        tel = sim.telemetry
        if tel.enabled:
            tel.emit(
                tick,
                "fastpath.candidates",
                candidates=n_cand,
                population=int(self._active.sum()),
            )

    def _reports(self, oids, moved, hit, xs, ys, tick) -> ColumnarBatch:
        """``DknnMobileNode.on_tick_start`` of the unbuilt, untimed
        candidates ``oids`` (ascending), on the columns, as a report
        flight: per node its drift report if it ``moved``, then its
        violated rows of ``hit`` in dict order, muted; each marked
        sent."""
        table = self.regions
        holder = table.oid[hit]
        at = np.minimum(np.searchsorted(oids, holder), oids.shape[0] - 1)
        rows = hit[oids[at] == holder] if oids.shape[0] else hit[:0]
        table.muted[rows] = True
        self._sent_x[oids] = xs[oids]
        self._sent_y[oids] = ys[oids]
        self._uplink_tick[oids] = tick
        self._desynced[oids] = True
        # the violations go in after their sender's drift report
        lu = oids[moved]
        rows = rows[np.lexsort((table.order[rows], table.oid[rows]))]
        at = np.searchsorted(lu, table.oid[rows], side="right")
        codes = 1 + (table.kind[rows] == BAND_QUERY_CIRCLE)
        return _report_flight(
            np.insert(lu, at, table.oid[rows]),
            np.insert(np.zeros(lu.shape[0], np.int8), at, codes),
            np.insert(np.full(lu.shape[0], -1), at, table.qid[rows]),
            np.full(lu.shape[0] + rows.shape[0], -1), xs, ys,
        )

    def _tick_start(self, oid: int) -> None:
        """A candidate's own ``on_tick_start``, built if it is not."""
        node = self._node_of[oid] or self._build(oid)
        self._sync_node(oid)
        node.on_tick_start(self.sim.tick)
        self._touched.add(oid)

    def deliver_batch(self, batch: ColumnarBatch) -> bool:
        """Consume a PROBE, INSTALL_REGION, REVOKE_REGION or
        ANSWER_PUSH flight in place; anything else (and any batch while
        the plane is vetoed) is declined and reaches the nodes as
        scalar messages.

        A flight is a server subround's whole output of its kind, many
        queries' runs one after the other (:mod:`repro.net.plane`).
        Each arm does what the nodes' own handler does, row by row in
        send order, and keeps the phase's columns current in the same
        call — an install or revoke flight in one pass over the region
        table — so the receivers do not join the touched set. None of
        the four handlers reads the node's drift origin or its local
        clock, which is why no receiver needs :meth:`_sync_node` or a
        fresh ``_cur_tick`` first.
        """
        if not self.sim.plane_open():
            return False
        kind = batch.kind
        if kind is MessageKind.PROBE:
            self._answer_probes(batch.dsts)
            return True
        # kind -> (the payload type every row must carry, the arm)
        want, arm = {
            MessageKind.INSTALL_REGION: (InstallBand, self._install_batch),
            MessageKind.REVOKE_REGION: (RevokeBand, self._revoke_batch),
            MessageKind.ANSWER_PUSH: (AnswerPush, self._push_answers),
        }.get(kind, (None, None))
        payloads = batch.payloads
        if arm is None or any(type(p) is not want for p in payloads):
            return False
        return arm(batch.dsts, batch.pidx, payloads)

    def _answer_probes(self, idx: np.ndarray) -> None:
        """One PROBE_REPLY batch for a PROBE batch: read own position,
        reply, reset the dead-reckoning origin (``_mark_sent``) — all
        on the mirrors, leaving the nodes desynced."""
        sim = self.sim
        xs, ys = _fleet_xy(sim.fleet)
        px = xs[idx]
        py = ys[idx]
        sim.channel.send_batch(
            ColumnarBatch(
                MessageKind.PROBE_REPLY,
                srcs=idx,
                dst=SERVER_ID,
                xs=px,
                ys=py,
                payload_nbytes=_PR_NBYTES,
                payload_ctor=ProbeReply,
            )
        )
        self._sent_x[idx] = px
        self._sent_y[idx] = py
        self._uplink_tick[idx] = sim.tick
        self._desynced[idx] = True

    def _install_batch(self, dsts, pidx, payloads) -> bool:
        """``DknnMobileNode._apply_install`` on every built receiver, row
        by row, and on the table for all of them. A run's receivers
        share its one region object (regions are immutable values).
        Declined: an epoch-stamped install (the node acks, dedupes and
        learns its lease from it) and a band code the node itself would
        refuse."""
        if any(
            p.epoch >= 0 or p.band not in _BAND_CLASSES for p in payloads
        ):
            return False
        qids = [p.qid for p in payloads]
        regions = [
            _BAND_CLASSES[p.band](p.ax, p.ay, p.radius) for p in payloads
        ]
        node_of = self._node_of
        for oid, i in zip(dsts.tolist(), pidx.tolist()):
            node = node_of[oid]
            if node is not None:
                node.regions[qids[i]] = regions[i]
                node._end_episode(qids[i])
        self.regions.install(dsts, pidx, qids, regions)
        self._attention[dsts] = True
        self._changed(dsts)
        return True

    def _revoke_batch(self, dsts, pidx, payloads) -> bool:
        """The REVOKE_REGION arm of ``DknnMobileNode.on_message`` on
        every built receiver, row by row, and on the table for all of
        them."""
        qids = np.array([p.qid for p in payloads], dtype=np.int64)[pidx]
        # An unbuilt receiver holds whatever rows it has left.
        nodes, attention = self.regions.revoke(dsts, qids)
        node_of = self._node_of
        for oid, qid in zip(dsts.tolist(), qids.tolist()):
            node = node_of[oid]
            if node is not None:
                node.regions.pop(qid, None)
                node._end_episode(qid)
        for i, oid in enumerate(nodes.tolist()):
            if node_of[oid] is not None:
                attention[i] = bool(node_of[oid].regions)
        self._attention[nodes] = attention
        return True

    def _push_answers(self, dsts, pidx, payloads) -> bool:
        """The ANSWER_PUSH arm of ``DknnMobileNode.on_message``: a built
        focal's ``known_answers`` is written, an unbuilt one's held
        here until :meth:`_adopt` hands it over."""
        node_of = self._node_of
        for oid, i in zip(dsts.tolist(), pidx.tolist()):
            node = node_of[oid]
            if node is None:
                known = self._answers.setdefault(oid, {})
            else:
                if node.known_answers is _UNWRITTEN:
                    node.known_answers = {}
                known = node.known_answers
            known[payloads[i].qid] = list(payloads[i].ids)
        return True

    def before_dispatch(self, node: Node, msg: Message) -> None:
        # Scalar invariant: on_tick_start ran before any delivery, so
        # handlers always see a fresh local clock. Skipped nodes never
        # ran it this tick — restore the clock here. Desynced nodes get
        # their drift origin flushed back first: the handler may update
        # it (_mark_sent) and the touched-refresh will re-read it.
        node._cur_tick = self.sim.tick
        self._sync_node(node.oid)
        if msg.kind in self._MUTATING:
            self._touched.add(node.oid)


class BroadcastSilentPhase(ClientPhase):
    """Batched tick-start for the broadcast/geocast protocols.

    Every node self-monitors every query it has heard an install for,
    so the silence predicate is the per-query band check itself. The
    phase holds each node's **own** monitor view per query — anchor,
    band limit, role, armed and reported flags, epoch — checks it one
    query row at a time in n-sized scratch and sends the violation
    reports from the cells (:meth:`_report`). A row that every active
    node heard whole is **shared**: one payload in ``_row``, read as
    scalars, with only the armed / reported flags per cell. A row
    whose receivers diverged — a geocast strip, an epoch gate, down
    receivers — lives in ``(q, n)`` cells, allocated on the first such
    row, until a full broadcast shares it again. Nothing in the build
    reads a node's ``monitors`` / ``known_answers`` — the COLLECT and
    PROBE handlers read only ``my_qids`` and the position — so no node
    runs a tick-start or hears an install, and one is built only when
    a handler must answer.

    * installs are claimed by :meth:`deliver_area` and written to their
      query's row or their receivers' cells by :meth:`_install`: every
      receiver's handler
      assignment ``monitors[qid] = payload`` with its ``_reported``
      re-arm, epoch-gated per receiver for geocast (the acceptance rule
      of :class:`GeocastMobileNode.on_message`). ``_first`` keeps the
      number of the first install each node heard per query: that is
      when its handler inserts the key into ``monitors``, whose dict
      order is the order of the node's violation uplinks;
    * ``COLLECT`` requests are answered as a **round**
      (:meth:`_collect_round`): the in-circle test every receiver
      would run scalar is evaluated once, vectorized, and the replies
      leave as one ``COLLECT_REPLY`` uplink batch — or, for a short
      round or with the plane closed, from the handlers of the
      in-circle nodes alone; for everyone else delivery is a provable
      no-op.

    Installs have one way in, :meth:`deliver_area`: an install
    dispatched to one node, or geocast with a payload other than a
    :class:`GeocastInstall`, raises :class:`ProtocolError`. The scalar
    node code is the per-object reference's, and the oracle
    ``tests/test_fastpath.py`` holds the cells to.
    """

    def __init__(self, focal_of: Dict[int, int]) -> None:
        #: qid -> focal oid, whose COLLECT handler skips the circle test
        #: and whose own query's cell is checked against the circle.
        self._focal_of = focal_of

    def bind(self, sim) -> None:
        super().bind(sim)
        pop = sim.mobiles
        for cls in pop.classes:
            if not issubclass(cls, BroadcastMobileNode):
                raise ProtocolError(
                    f"BroadcastSilentPhase cannot drive {cls.__name__}"
                )
        self.skip_tick_end = _base_tick_end(pop)
        n = sim.fleet.n
        self._qids = sorted(self._focal_of)
        self._qidx = {qid: i for i, qid in enumerate(self._qids)}
        q = len(self._qids)
        #: the population's node table (None: not built yet) and builder.
        self._node_of: List[Optional[BroadcastMobileNode]] = pop.nodes
        self._build = pop.build
        self._active = np.zeros(n, dtype=bool)
        self._active[pop.oids()] = True
        #: per query, the payload all active nodes hold while each of
        #: its installs reached them all: anchor, outer limit (outsiders
        #: fire inside it), the members' and focal's oids and limits
        #: (inner; the focal's circle: they fire beyond it), finite
        #: threshold. None once the receivers diverged: the row then
        #: lives in ``_ax`` / ``_ay`` / ``_bound`` / ``_member`` cells,
        #: allocated on the first such row.
        self._row: List[Optional[tuple]] = [_EMPTY_ROW] * q
        self._ax = self._ay = self._bound = self._member = None
        #: whether a cell can fire — a monitor is held, unreported, with
        #: a finite threshold — and whether it has reported; both change
        #: only on install and report, never per tick.
        self._armed = np.zeros((q, n), dtype=bool)
        self._reported = np.zeros((q, n), dtype=bool)
        #: per-(query, node) install epoch held under the geocast rule
        #: (-1 = never installed, as ``_epochs.get(qid, -1)``), or None.
        self._epoch: Optional[np.ndarray] = None
        if any(issubclass(cls, GeocastMobileNode) for cls in pop.classes):
            self._epoch = np.full((q, n), -1, dtype=np.int64)
        #: the oids of every active node: a plain slice when that is the
        #: whole fleet, so full broadcasts write rows, not scatters.
        self._everyone = (
            slice(None) if self._active.all() else np.flatnonzero(self._active)
        )
        #: n-sized scratch of the per-row passes (band check, collect
        #: circle, geocast cover): |dx| and who lies in the strip it
        #: bounds.
        self._d = np.empty(n)
        self._near = np.empty(n, dtype=bool)
        #: per (query, node), the number of the first install the node
        #: heard (-1 = none yet), and per query how many cells are
        #: still -1: a row with none left is never scanned again.
        self._first = np.full((q, n), -1, dtype=np.int32)
        self._unseen = [n] * q
        self._seq = 0

    def _install(self, msg: Message, idx: Optional[np.ndarray]) -> None:
        """Write one install onto the cells of the nodes that hear it:
        ``idx`` holds their oids ascending, None is a full broadcast,
        heard by every active node.

        Receivers all execute ``monitors[qid] = payload`` (reference
        assignment of this very object), so the payload *is* their
        monitor state. A full broadcast to nodes without an epoch gate
        stores it once, as its query's shared row, and re-arms the row.
        Any other install diverges the receivers: the row's shared
        payload is written into the cells first, then this one into its
        receivers' cells. Geocast nodes additionally gate on the epoch:
        older installs are ignored, equal ones replace the monitor
        without re-arming ``_reported``.
        """
        payload = msg.payload
        qi = self._qidx[payload.qid]
        m = self._everyone if idx is None else idx
        seq = self._seq
        self._seq = seq + 1
        if self._unseen[qi]:
            first = self._first[qi]
            new = _cells(m, first[m] < 0)
            first[new] = seq
            self._unseen[qi] -= new.shape[0]
        if self._epoch is not None:
            e = getattr(payload, "epoch", 0)
            held = self._epoch[qi]
            were = held[m]
            self._reported[qi, _cells(m, were < e)] = False
            m = _cells(m, were <= e)
            held[m] = e
        else:
            self._reported[qi, m] = False
        # Everyone accepting is an outsider of the new answer except its
        # k members and the query's focal, whose own query comes first
        # in the handler's test, whatever the answer says.
        inner, outer = _band_limits(payload)
        focal = self._focal_of[payload.qid]
        ids = [oid for oid in payload.answer_ids if oid != focal]
        special = _among(np.array(ids + [focal], np.int64), m)
        limits = np.full(special.shape[0], inner)
        if special.shape[0] and special[-1] == focal:
            limits[-1] = payload.s * (1.0 + REGION_EPS)
        finite = not math.isinf(payload.threshold)
        row = (payload.ax, payload.ay, outer, special, limits, finite)
        if idx is None and self._epoch is None:
            self._row[qi] = row
            self._armed[qi, m] = finite
            return
        if self._row[qi] is not None:
            if self._ax is None:
                q, n = self._armed.shape
                self._ax, self._ay, self._bound = np.zeros((3, q, n))
                self._member = np.zeros((q, n), dtype=bool)
            self._write(qi, self._everyone, self._row[qi])
            self._row[qi] = None
        self._write(qi, m, row)
        self._armed[qi, m] = finite and ~self._reported[qi, m]

    def _write(self, qi: int, m, row: tuple) -> None:
        """Write ``row``'s payload into the cells ``m`` of query ``qi``."""
        ax, ay, outer, special, limits, _ = row
        self._ax[qi, m] = ax
        self._ay[qi, m] = ay
        self._member[qi, m] = False
        self._member[qi, special] = True
        self._bound[qi, m] = outer
        self._bound[qi, special] = limits

    # reach: the mirror property reads a cell through the row it lives in
    def _cell(self, qi: int, oid: int) -> tuple:
        """Cell ``(qi, oid)``: anchor, limit, beyond it?, armed, reported."""
        row = self._row[qi]
        if row is None:
            cols = (self._ax, self._ay, self._bound, self._member)
            ax, ay, bound, member = (col[qi, oid] for col in cols)
        else:
            ax, ay, bound, special, limits, _ = row
            member = oid in special
            bound = limits[special == oid][0] if member else bound
        armed, reported = self._armed[qi, oid], self._reported[qi, oid]
        return (
            float(ax), float(ay), float(bound),
            bool(member), bool(armed), bool(reported),
        )

    def _down(self):
        """Ids of the nodes the fault plan has down this tick."""
        sim = self.sim
        return sim.faults.down_at(sim.tick) if sim.faults is not None else ()

    def _up(self, idx: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """``idx`` (None: every active node) minus the nodes down now."""
        down = self._down()
        if not down:
            return idx
        if idx is None:
            idx = np.flatnonzero(self._active)
        return idx[~np.isin(idx, list(down))]

    def tick_start(self, tick: int) -> None:
        xs, ys = _fleet_xy(self.sim.fleet)
        # One query row at a time, in scratch that stays in cache. The
        # strip |dx| < limit holds every outsider that can be inside
        # its outer limit (sqrt(dx*dx + dy*dy) >= |dx| in floats too);
        # members and focals are checked wherever they stand. Only those
        # of them that are armed get the shared distance recipe and the
        # member / focal (beyond the limit) or outsider (inside it)
        # compare. A shared row is read as its scalars, a diverged one
        # through its cells.
        d, near = self._d, self._near
        hit_q: List[np.ndarray] = []
        hit_o: List[np.ndarray] = []
        for qi, row in enumerate(self._row):
            armed = self._armed[qi]
            if row is None:
                cols = (self._ax, self._ay, self._bound, self._member)
                ax, ay, bound, member = (col[qi] for col in cols)
            elif row[5]:
                ax, ay, bound, special, limits, _ = row
            else:
                continue  # nothing in the row can fire
            np.subtract(xs, ax, out=d)
            np.abs(d, out=d)
            np.less(d, bound, out=near)
            if row is None:
                near |= member
                near &= armed
                idx = np.nonzero(near)[0]
                ay, limit, member = ay[idx], bound[idx], member[idx]
            else:
                near[special] = True
                idx = np.nonzero(near)[0]
                at = np.searchsorted(idx, special)
                limit = np.full(idx.shape[0], bound)
                limit[at] = limits
                member = np.zeros(idx.shape[0], dtype=bool)
                member[at] = True
                keep = armed[idx]
                idx, limit, member = idx[keep], limit[keep], member[keep]
            dx = d[idx]
            dy = ys[idx] - ay
            dist = np.sqrt(dx * dx + dy * dy)
            idx = idx[np.where(member, dist > limit, dist < limit)]
            if idx.shape[0]:
                hit_o.append(idx)
                hit_q.append(np.full(idx.shape[0], qi))
        sent = 0
        if hit_o:
            sent = self._report(
                np.concatenate(hit_q), np.concatenate(hit_o), xs, ys
            )
        tel = self.sim.telemetry
        if tel.enabled:
            tel.emit(
                tick,
                "fastpath.candidates",
                candidates=sent,
                population=int(self._active.sum()),
                built=len(self.sim.mobiles.built()),
            )

    def _report(self, qis, oids, xs, ys) -> int:
        """Send the reports of the violated cells ``(qis, oids)`` that
        are up and mute them; returns how many were sent.

        The uplinks keep the per-object loop's order: node by node in
        ascending oid, each node's in its ``monitors`` order — the
        order of the first install it heard per query — one
        ``ViolationReport`` at the node's position and held epoch,
        ``QUERY_MOVE`` for the focal's own query. They leave as one
        report flight, or one by one with the plane closed. A report
        mutes its cell until the next install re-arms it.
        """
        keep = self._active[oids]
        down = self._down()
        if down:
            keep &= ~np.isin(oids, list(down))
        qis, oids = qis[keep], oids[keep]
        order = np.lexsort((self._first[qis, oids], oids))
        qis, oids = qis[order], oids[order]
        self._reported[qis, oids] = True
        self._armed[qis, oids] = False
        qids = np.array(self._qids)[qis]
        focal = np.array([self._focal_of[qid] for qid in self._qids])[qis]
        epochs = np.full(oids.shape[0], -1)
        if self._epoch is not None:
            epochs = self._epoch[qis, oids]
        flight = _report_flight(
            oids, 1 + (focal == oids).astype(np.int8), qids, epochs, xs, ys
        )
        _send_runs(self.sim, flight)
        return flight.count

    def before_dispatch(self, node: Node, msg: Message) -> None:
        # COLLECT and PROBE handlers read and write none of the monitor
        # view, which lives in the cells. An install reaching a node
        # here went around the mirror.
        if msg.kind is MessageKind.BROADCAST_INSTALL:
            raise ProtocolError(
                f"install {msg.payload!r} dispatched to node {node.oid} "
                "bypasses the broadcast phase's mirror"
            )

    def _strip(self, cx: float, cy: float, half: float):
        """The active oids in the strip ``|x - cx| <= half``, ascending,
        and their ``dx*dx + dy*dy``. Everyone within ``half`` of the
        centre stands in it (``dx*dx + dy*dy >= dx*dx`` in floats too),
        so only the strip gets the two-dimensional test."""
        xs, ys = _fleet_xy(self.sim.fleet)
        d, near = self._d, self._near
        np.subtract(xs, cx, out=d)
        np.abs(d, out=d)
        np.less_equal(d, half, out=near)
        if not isinstance(self._everyone, slice):
            near &= self._active
        idx = np.nonzero(near)[0]
        dx = d[idx]
        dy = ys[idx] - cy
        return idx, dx * dx + dy * dy

    def _collect_round(self, msg: Message, geocast: bool) -> None:
        """Deliver one COLLECT request and send what it draws.

        Who hears it and who answers replicate the scalar predicates
        bit for bit: a broadcast is heard by everyone and answered
        inside ``dist(...) <= radius`` (the shared sqrt recipe of the
        COLLECT handler); a geocast is heard inside the squared compare
        of ``covers()`` — its reception count is recorded here — and
        answered by those of them that also pass the handler's test.
        The query's own focal never answers (its position travels by
        probe or violation). Every answer is one ``COLLECT_REPLY`` and
        nothing else, sent in ascending oid: a contiguous run, shipped
        as one batch when the plane is open and the run is long enough,
        by the repliers' own handlers otherwise.
        """
        sim = self.sim
        req = msg.payload
        radius = req.radius
        xs, ys = _fleet_xy(sim.fleet)
        idx, d2 = self._strip(req.cx, req.cy, radius)
        if geocast:
            heard = d2 <= radius * radius  # covers()
        else:
            heard = np.sqrt(d2) <= radius
        down = self._down()
        if down:
            heard &= ~np.isin(idx, list(down))
        idx = idx[heard]
        if geocast:
            sim.channel.stats.record_delivery(msg, receivers=idx.shape[0])
            idx = idx[np.sqrt(d2[heard]) <= radius]  # the handler's test
        idx = idx[idx != self._focal_of[req.qid]]
        if idx.shape[0] >= MIN_BATCH and sim.plane_open():
            sim.channel.send_batch(
                ColumnarBatch(
                    MessageKind.COLLECT_REPLY,
                    srcs=idx,
                    dst=SERVER_ID,
                    xs=xs[idx],  # fancy indexing copies: latency-safe
                    ys=ys[idx],
                    qid=req.qid,
                    payload_nbytes=_CR_NBYTES,
                    payload_ctor=CollectReply,
                )
            )
            return
        for oid in idx.tolist():
            sim._dispatch(self._node_of[oid] or self._build(oid), msg)

    def deliver_area(self, msg: Message) -> bool:
        """Vectorized delivery of the server's broadcasts and geocasts.

        Claims COLLECT requests (:meth:`_collect_round`) and install
        broadcasts/geocasts (written to the receivers' cells by
        :meth:`_install`; a geocast reaches the nodes inside the
        squared compare of ``covers()``); an install
        geocast whose payload is not a :class:`GeocastInstall` raises
        :class:`ProtocolError`. Anything else — a mobile broadcasting,
        an unknown collect shape — is left to the scalar loop.
        """
        if msg.src != SERVER_ID or msg.dst not in (BROADCAST_ID, GEOCAST_ID):
            return False
        geocast = msg.dst == GEOCAST_ID
        ptype = type(msg.payload)
        if msg.kind is MessageKind.COLLECT and ptype is CollectRequest:
            self._collect_round(msg, geocast)
            return True
        if msg.kind is not MessageKind.BROADCAST_INSTALL:
            return False
        if not geocast:
            self._install(msg, self._up(None))
            return True
        if ptype is not GeocastInstall:
            raise ProtocolError(
                f"geocast install {msg.payload!r} is not a GeocastInstall"
            )
        payload = msg.payload
        cover = payload.cover
        idx, d2 = self._strip(payload.ax, payload.ay, cover)
        idx = self._up(idx[d2 <= cover * cover])  # covers()
        self._install(msg, idx)
        self.sim.channel.stats.record_delivery(msg, receivers=idx.shape[0])
        return True
