"""Vectorized client phases: the batched silent-object pass.

The scalar simulator runs ``on_tick_start`` on every mobile node every
tick, although in band-based protocols the overwhelming majority of
those calls are no-ops — the object is *silent*: it holds no region (or
its regions are satisfied) and has not drifted past its dead-reckoning
threshold. These :class:`~repro.net.simulator.ClientPhase`
implementations evaluate that silence predicate for the whole fleet in
a few numpy passes and invoke the scalar ``on_tick_start`` only on the
**candidates** — nodes for which the call could possibly do something.

Exactness is preserved by construction, not by approximation:

* the candidate predicate is a *superset* test — every node whose
  scalar ``on_tick_start`` would transmit (or mutate state) is a
  candidate, and running the scalar method on a quiet candidate is a
  no-op, so sends, state, costs and answers are bit-identical;
* vector distances use ``np.sqrt(dx*dx + dy*dy)``, the exact float
  recipe of :func:`repro.geometry.dist`, so threshold comparisons
  agree with the scalar path to the bit;
* candidates run in the simulator's mobile order (ascending oid), so
  message order on the channel — and therefore server processing order
  and every downstream statistic — is unchanged;
* node state the phase mirrors in arrays is never extrapolated. A
  DKNN-P node's drift origin and regions are re-read from the node
  whenever scalar code could have changed them (the *touched* set). A
  broadcast node's monitors are never re-read: every install reaches
  the mirror through ``deliver_area`` (an install that does not is a
  ``ProtocolError``), and all a tick-start can change — it adds to
  ``_reported`` — is copied on the spot. Where the phase applies a whole batch itself it
  does to each node exactly what the node's handler does and writes
  the same values to its columns in the same call;
* where the phase answers for the nodes — probe replies, drift
  reports, the replies a DKNN-B/G collect round draws — the batch it
  sends holds, in the nodes' own send order, exactly the messages
  their handlers would have sent, and stands in the queue where that
  run would have stood (:mod:`repro.net.plane`).

``tests/test_fastpath.py`` pins all of this against the scalar path,
protocol by protocol, including under fault plans.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.broadcast_variant import BroadcastMobileNode
from repro.core.client import _BAND_CLASSES, DknnMobileNode
from repro.core.geocast_variant import GeocastMobileNode
from repro.core.protocol import (
    BAND_OUTSIDER,
    BAND_QUERY_CIRCLE,
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
from repro.net.node import MobileNode, Node
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

#: region class -> (the table's row kind: the wire's band code, the
#: squared slack the class's ``contains`` multiplies ``radius**2`` by).
_ROW_KIND = {
    cls: (band, _SQ_SLACK_LO if band == BAND_OUTSIDER else _SQ_SLACK_HI)
    for band, cls in _BAND_CLASSES.items()
}

#: drift-origin mirror of a node that has never transmitted.
_NEVER_SENT = (math.nan, math.nan)


def _has_timers(node: DknnMobileNode) -> bool:
    """Does ``node`` run a protocol timer (violation retry, lease)?"""
    return bool(node.violation_retry or node._lease > 0)


def _band_limits(mon) -> Tuple[float, float]:
    """(inner, outer) band limits of a broadcast monitor — the float
    expressions of ``BroadcastMobileNode.on_tick_start``, so a
    comparison against them agrees with the scalar check to the bit."""
    return (
        (mon.threshold - mon.s) * (1.0 + REGION_EPS),
        (mon.threshold + mon.s) * (1.0 - REGION_EPS),
    )


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

    def install(self, oids: np.ndarray, qid: int, region) -> None:
        """Arm ``region`` for query ``qid`` on every node in ``oids``
        (unique ids), in place of the row each held for that query."""
        rows, pos = self.rows_of(oids)
        same = self.qid[rows] == qid
        rows = rows[same]
        order = np.full(oids.shape[0], self._installs, dtype=np.int64)
        order[pos[same]] = self.order[rows]
        self._installs += 1
        self.live[rows] = False
        self._write(
            oids.shape[0], oids, *self.row(0, qid, region)[1:], order=order
        )

    def revoke(self, oids: np.ndarray, qid: int) -> np.ndarray:
        """Kill the row of query ``qid`` on every node in ``oids``
        (unique ids) that holds one; returns, per node, whether it
        still holds a row."""
        rows, pos = self.rows_of(oids)
        gone = self.qid[rows] == qid
        self.live[rows[gone]] = False
        held = np.zeros(oids.shape[0], dtype=bool)
        held[pos[~gone]] = True
        return held

    def violated(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The unmuted rows whose region the positions ``(xs, ys)``
        violate — ``SafeRegion.violated``, row by row."""
        holder = self.oid
        dx = xs[holder] - self.ax
        dy = ys[holder] - self.ay
        d2 = dx * dx + dy * dy
        limit = self.limit
        violated = (self.live & ~self.muted) & np.where(
            self.kind == BAND_OUTSIDER, d2 < limit, d2 > limit
        )
        return np.nonzero(violated)[0]


class DknnSilentPhase(ClientPhase):
    """Batched tick-start for the point-to-point protocol (DKNN/-P/-FT).

    A :class:`~repro.core.client.DknnMobileNode`'s tick-start is a pure
    no-op (modulo its local clock) unless one of four things holds:

    * it has never transmitted (``_last_sent is None``);
    * it drifted more than ``theta`` from its last transmitted position;
    * one of its installed regions, not yet reported this episode, is
      violated at its current position;
    * it holds a region (*attention*) and runs protocol *timers* — a
      lease heartbeat or the violation-retry sweep, the fault-tolerant
      build — which may fire on any tick and are not second-guessed.

    The first three are evaluated exactly — the region predicate in
    one pass over the :class:`_RegionTable` — so on a build without
    timers the candidates are precisely the nodes that will send.

    **Nodes on demand.** The phase drives a
    :class:`~repro.net.node.Population`, where a node object exists only
    once scalar code has needed it. For a node not built yet the
    columns are the whole node: the drift mirrors are its
    ``_last_sent`` / ``_last_uplink_tick``, its table rows its
    ``regions`` and ``_reported``, the builder's theta and timers the
    rest; :meth:`_adopt` writes them onto the node the moment it is
    built. Batches reach an unbuilt node through the columns alone, and
    so does its tick-start when it runs no timers
    (:meth:`_tick_start_unbuilt`: the same sends, in the same order).
    What builds a node is a scalar dispatch, the tick-start of a node
    with timers, a scalar wakeup, or a loop over every node.

    The phase keeps ``(sent_x, sent_y, attention, timers)`` mirrors and
    the built nodes' table rows current in two ways. A node on which
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
    a single columnar batch without ever invoking the nodes, and probe
    batches from the server are answered with one ``PROBE_REPLY``
    batch. Nodes handled this way are **desynced**: the phase's mirrors
    are newer than ``node._last_sent``, and :meth:`_sync_node` flushes
    the mirror back onto the node before any scalar code path (message
    dispatch, scalar candidate run) can read it. Install and revoke
    batches never desync anyone: they are written through to the built
    nodes, which stay the only source of truth for every scalar path.
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
        self._timers = np.zeros(n, dtype=bool)
        # A node nobody has needed yet holds what a fresh one holds: no
        # region, nothing sent — the mirrors' defaults — and the
        # builder's theta and timers, read once off a throw-away node.
        fresh = pop.fresh()
        if fresh is not None:
            self._theta[:] = fresh.theta
            self._timers[:] = _has_timers(fresh)
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

    def _adopt(self, node: DknnMobileNode) -> None:
        """Write what the columns hold for a node built just now onto
        it: its drift origin, and its regions if it holds any."""
        oid = node.oid
        self._sync_node(oid)
        if self._attention[oid]:
            node.regions, reported = self.regions.regions_of(oid)
            if reported:
                node._reported = reported

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

        Runs before anything reads either: the candidate mask of
        :meth:`tick_start`, and the event engine's batched re-plan
        (:meth:`repro.core.wakeups.DknnWakeupPlanner.wakeups`). Values
        are gathered in lists and land in one assignment per column. A
        touched node that a batch reached as well is simply re-read
        whole: the batch went through to the node too.
        """
        if not self._touched:
            return
        ids = np.fromiter(self._touched, np.int64, len(self._touched))
        self._touched.clear()
        node_of = self._node_of
        row = _RegionTable.row
        attention: List[bool] = []
        timers: List[bool] = []
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
            timers.append(_has_timers(node))
            if regions:
                # A reported region is muted until repaired: no row.
                muted = node._reported
                rows += [
                    row(oid, qid, region)
                    for qid, region in regions.items()
                    if qid not in muted
                ]
        self._attention[ids] = attention
        self._timers[ids] = timers
        self._sent_x[synced] = sent_x
        self._sent_y[synced] = sent_y
        self.regions.rewrite(ids, rows)

    def tick_start(self, tick: int) -> None:
        self.flush_touched()
        sim = self.sim
        xs, ys = _fleet_xy(sim.fleet)
        dx = xs - self._sent_x
        dy = ys - self._sent_y
        drift = np.sqrt(dx * dx + dy * dy)
        moved = np.isnan(self._sent_x) | (drift > self._theta)
        cand = moved | (self._attention & self._timers)
        table = self.regions
        hit = table.violated(xs, ys)
        cand[table.oid[hit]] = True
        cand &= self._active
        n_cand = int(cand.sum())
        if sim.plane_open():
            # Drift-only candidates (no installed region) do exactly
            # one thing scalar: send a LOCATION_UPDATE. Ship them all
            # as one batch; region holders still run the scalar path.
            quiet = cand & ~self._attention
            idx = np.nonzero(quiet)[0]
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
                cand &= self._attention
        # The violated rows by holder, each holder's in its dict order.
        hit = hit[np.argsort(table.order[hit], kind="stable")]
        violated: Dict[int, List[int]] = {}
        for row, oid in zip(hit.tolist(), table.oid[hit].tolist()):
            violated.setdefault(oid, []).append(row)
        is_down = sim._is_down if sim.faults is not None else None
        touched = self._touched
        node_of, build, timers = self._node_of, self._build, self._timers
        candidates = np.nonzero(cand)[0].tolist()
        for oid in candidates:
            if is_down is not None and is_down(oid):
                continue  # blacked out/crashed: no checks, no sends
            node = node_of[oid]
            if node is None:
                if not timers[oid]:
                    self._tick_start_unbuilt(
                        oid, tick, bool(moved[oid]), violated.get(oid, [])
                    )
                    continue
                node = build(oid)
            self._sync_node(oid)
            node.on_tick_start(tick)
            touched.add(oid)
        tel = sim.telemetry
        if tel.enabled and tel.tracer.enabled:
            tel.tracer.emit(
                tick,
                "fastpath.candidates",
                candidates=n_cand,
                population=int(self._active.sum()),
            )

    def _tick_start_unbuilt(
        self, oid: int, tick: int, moved: bool, rows: List[int]
    ) -> None:
        """``DknnMobileNode.on_tick_start`` of an unbuilt candidate
        without timers, on the columns: the drift report if it ``moved``,
        then a violation per violated row in ``rows`` (in the node's
        dict order), each row muted — and, as it sent something (that is
        what made it a candidate), its position marked sent."""
        x, y = self.sim.fleet.positions[oid]
        send = self.sim.channel.send
        if moved:
            send(
                MessageKind.LOCATION_UPDATE,
                oid,
                SERVER_ID,
                LocationUpdate(x, y),
            )
        if rows:
            table = self.regions
            for row in rows:
                kind = (
                    MessageKind.QUERY_MOVE
                    if table.kind[row] == BAND_QUERY_CIRCLE
                    else MessageKind.VIOLATION
                )
                report = ViolationReport(int(table.qid[row]), x, y)
                send(kind, oid, SERVER_ID, report)
            table.muted[rows] = True
        self._sent_x[oid] = x
        self._sent_y[oid] = y
        self._uplink_tick[oid] = tick
        self._desynced[oid] = True

    def deliver_batch(self, batch: ColumnarBatch) -> bool:
        """Consume a PROBE, INSTALL_REGION or REVOKE_REGION batch in
        place; anything else (and any batch while the plane is vetoed)
        is declined and reaches the nodes as scalar messages.

        Each arm does what the node's own handler does, receiver by
        receiver, and keeps the phase's columns current in the same
        call, so the receivers do not join the touched set. None of
        the three handlers reads the node's drift origin or its local
        clock, which is why no receiver needs :meth:`_sync_node` or a
        fresh ``_cur_tick`` first.
        """
        if not self.sim.plane_open():
            return False
        kind = batch.kind
        if kind is MessageKind.PROBE:
            self._answer_probes(batch.dsts)
            return True
        if batch.payload_ctor is None or batch.xs is not None:
            return False
        if kind is MessageKind.INSTALL_REGION:
            return self._install_batch(batch.dsts, batch.payload_ctor())
        if kind is MessageKind.REVOKE_REGION:
            return self._revoke_batch(batch.dsts, batch.payload_ctor())
        return False

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

    def _install_batch(self, dsts: np.ndarray, payload) -> bool:
        """``DknnMobileNode._apply_install`` on every built receiver, and
        on the table for all of them. All receivers share the one
        region object (regions are immutable values). Declined: an
        epoch-stamped install (the node acks, dedupes and learns its
        lease from it) and a band code the node itself would refuse."""
        if type(payload) is not InstallBand or payload.epoch >= 0:
            return False
        region_cls = _BAND_CLASSES.get(payload.band)
        if region_cls is None:
            return False
        qid = payload.qid
        region = region_cls(payload.ax, payload.ay, payload.radius)
        node_of = self._node_of
        for oid in dsts.tolist():
            node = node_of[oid]
            if node is not None:
                node.regions[qid] = region
                node._end_episode(qid)
        self.regions.install(dsts, qid, region)
        self._attention[dsts] = True
        return True

    def _revoke_batch(self, dsts: np.ndarray, payload) -> bool:
        """The REVOKE_REGION arm of ``DknnMobileNode.on_message`` on
        every built receiver, and on the table for all of them."""
        if type(payload) is not RevokeBand:
            return False
        qid = payload.qid
        # An unbuilt receiver holds whatever rows it has left.
        attention = self.regions.revoke(dsts, qid)
        node_of = self._node_of
        for i, oid in enumerate(dsts.tolist()):
            node = node_of[oid]
            if node is not None:
                regions = node.regions
                regions.pop(qid, None)
                node._end_episode(qid)
                attention[i] = bool(regions)
        self._attention[dsts] = attention
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
    phase mirrors each node's **own** monitor view per query — anchor,
    band limit, membership, reported flag — in ``(q, n)`` arrays
    (views can diverge across nodes under faults or geocast coverage),
    evaluates the band predicates one query row at a time in n-sized
    scratch, and runs the scalar tick-start on the violators. Focal
    nodes are always candidates: there are at most ``q`` of them and
    their query-circle check is cheap to re-run scalar.

    Delivery is batched in both directions:

    * install broadcasts are delivered **lazily**: :meth:`deliver_area`
      claims them, applies the monitor change to the mirror arrays in
      one vectorized row update (epoch-gated per receiver for geocast,
      the exact acceptance rule of
      :class:`GeocastMobileNode.on_message`), and logs the message
      instead of invoking N handlers. The same update records, per
      (query, node), which logged install that node's handler would
      end up holding and which it would have seen first, and
      :meth:`_replay` hands a node's own handler just those — at most
      two per query, however long the node was silent — right before
      the one place scalar code reads what installs write
      (``monitors`` / ``_reported`` / ``_epochs`` / ``known_answers``):
      the node's tick-start as a candidate. COLLECT and PROBE handlers
      read none of it, so they run on a node that has not caught up.
      The log drops full broadcasts no node can still be owed, so it
      does not grow with the run's age;
    * ``COLLECT`` requests are answered as a **round**
      (:meth:`_collect_round`): the in-circle test every receiver
      would run scalar is evaluated once, vectorized, and the replies
      leave as one ``COLLECT_REPLY`` uplink batch — or, for a short
      round or with the plane closed, from the handlers of the
      in-circle nodes alone; for everyone else delivery is a provable
      no-op.

    The mirror is never re-read off the nodes. A candidate's
    tick-start can change one thing it holds — it adds to
    ``_reported`` — and that is written to the cells on the spot.
    Installs have one way in, :meth:`deliver_area`: an install
    dispatched to one node, or geocast with a payload other than a
    :class:`GeocastInstall`, raises :class:`ProtocolError`.
    """

    def bind(self, sim) -> None:
        super().bind(sim)
        # Every node is built here, unlike under DknnSilentPhase: the
        # focal map and the epoch rule below are read off the nodes.
        mobiles = list(sim.mobiles)
        for node in mobiles:
            if not isinstance(node, BroadcastMobileNode):
                raise ProtocolError(
                    f"BroadcastSilentPhase cannot drive {type(node).__name__}"
                )
        self.skip_tick_end = _base_tick_end(sim.mobiles)
        n = sim.fleet.n
        #: qid -> its focal oid, the one node whose COLLECT handler
        #: returns before the circle test.
        self._focal_of: Dict[int, int] = {
            qid: node.oid for node in mobiles for qid in node.my_qids
        }
        self._qidx: Dict[int, int] = {
            qid: i for i, qid in enumerate(sorted(self._focal_of))
        }
        q = len(self._qidx)
        self._node_of: List[BroadcastMobileNode] = [None] * n  # type: ignore
        self._active = np.zeros(n, dtype=bool)
        self._focal = np.zeros(n, dtype=bool)
        self._ax = np.zeros((q, n))
        self._ay = np.zeros((q, n))
        #: the band limit each cell is checked against (inner for answer
        #: members, outer for everyone else) and whether it can fire at
        #: all: a monitor is held, unreported, with a finite threshold.
        #: Both change only on install/refresh, never per tick.
        self._bound = np.zeros((q, n))
        self._member = np.zeros((q, n), dtype=bool)
        self._armed = np.zeros((q, n), dtype=bool)
        self._reported = np.zeros((q, n), dtype=bool)
        #: per-(query, node) install epoch held, geocast acceptance rule
        #: (-1 = never installed, matching ``_epochs.get(qid, -1)``).
        self._epoch_mode = bool(mobiles) and isinstance(
            mobiles[0], GeocastMobileNode
        )
        self._epoch = np.full((q, n), -1, dtype=np.int64)
        for node in mobiles:
            oid = node.oid
            self._node_of[oid] = node
            self._active[oid] = True
            if node.my_qids:
                self._focal[oid] = True
        #: index of "every active node": a plain slice when that is the
        #: whole fleet, so full broadcasts write rows, not mask scatters.
        self._everyone = slice(None) if self._active.all() else self._active
        #: n-sized scratch of the per-row passes (band check, collect
        #: circle): |dx| and who lies in the strip it bounds.
        self._d = np.empty(n)
        self._near = np.empty(n, dtype=bool)
        #: lazily-delivered install broadcasts by delivery number, and
        #: per query the (number, epoch) of the full broadcasts among
        #: them. ``_applied[oid]`` is the first delivery number that
        #: node's own handler has not caught up with.
        self._log: Dict[int, Message] = {}
        self._full: List[List[Tuple[int, int]]] = [[] for _ in range(q)]
        self._seq = 0
        self._applied = np.zeros(n, dtype=np.int64)
        #: per (query, node), the logged install the node's handler
        #: would be left holding after seeing every install it was
        #: reachable for, and the one it would have seen first (-1 =
        #: none); per node, installs it was reachable for since its
        #: last replay.
        self._final = np.full((q, n), -1, dtype=np.int32)
        self._first = np.full((q, n), -1, dtype=np.int32)
        self._pending = np.zeros(n, dtype=np.int32)
        #: deferred installs handed to a handler / proven unobservable
        #: and skipped (reported per tick in ``fastpath.candidates``).
        self._replayed = 0
        self._superseded = 0

    def _replay(self, node: "BroadcastMobileNode") -> None:
        """Hand the node's handler its pending installs, coalesced.

        Lazily-delivered installs (see :meth:`deliver_area`) must reach
        the node's own ``on_message`` before scalar code reads what
        they write: its tick-start as a candidate. Of the pending
        installs of one query only two can be observed afterwards: the
        *final* one — the last carrying the highest epoch, since the
        handler keeps the newest epoch and within it the latest
        install; it is the node's monitor, known
        answer and, through the handler's own epoch gate, ``_reported``
        re-arm (without epochs it is simply the last) — and the *first*
        the node was ever reachable for, which inserts the key into
        ``node.monitors`` and so fixes the order of that node's
        violation uplinks. Every install in between is overwritten or
        refused before anything reads it and is skipped: at most 2q
        handler calls per touch, in delivery order.
        """
        oid = node.oid
        start = int(self._applied[oid])
        if start == self._seq:
            return
        self._applied[oid] = self._seq
        final = self._final[:, oid]
        first = self._first[:, oid]
        picks = sorted(
            {*final[final >= start].tolist(), *first[first >= start].tolist()}
        )
        for seq in picks:
            node.on_message(self._log[seq])
        self._replayed += len(picks)
        self._superseded += int(self._pending[oid]) - len(picks)
        self._pending[oid] = 0

    def _defer_install(self, msg: Message, mask: Optional[np.ndarray]) -> None:
        """Mirror one install broadcast onto its receivers' rows and
        log it for :meth:`_replay`; ``mask is None`` is a full
        broadcast, heard by every active node.

        Receivers all execute ``monitors[qid] = payload`` (reference
        assignment of this very object), so the payload *is* their
        monitor state — no per-node re-reading needed. Geocast nodes
        additionally gate on the epoch: older installs are ignored,
        equal ones replace the monitor without re-arming ``_reported``.
        The cells that accept the install are exactly the nodes whose
        handler would be left holding it, which is what ``_final``
        records.
        """
        payload = msg.payload
        qi = self._qidx[payload.qid]
        seq = self._seq
        self._seq = seq + 1
        self._log[seq] = msg
        m = self._everyone if mask is None else mask
        self._pending[m] += 1
        unseen = self._first[qi] < 0
        if mask is not None:
            unseen &= mask
        self._first[qi, unseen] = seq
        e = 0
        if self._epoch_mode:
            e = getattr(payload, "epoch", 0)
            held = self._epoch[qi]
            if mask is None:
                m = self._active
            self._reported[qi, m & (held < e)] = False
            m = m & (held <= e)
            self._epoch[qi, m] = e
        else:
            self._reported[qi, m] = False
        # Everyone accepting is an outsider of the new answer except
        # its k members: fill the outsider values, scatter the members.
        inner, outer = _band_limits(payload)
        members = np.fromiter(
            payload.answer_ids, np.int64, len(payload.answer_ids)
        )
        if not isinstance(m, slice):
            members = members[m[members]]
        self._final[qi, m] = seq
        self._ax[qi, m] = payload.ax
        self._ay[qi, m] = payload.ay
        self._member[qi, m] = False
        self._member[qi, members] = True
        self._bound[qi, m] = outer
        self._bound[qi, members] = inner
        self._armed[qi, m] = (
            False if math.isinf(payload.threshold) else ~self._reported[qi, m]
        )
        if mask is None:
            # A full broadcast with an older one of its query behind it
            # (every node's first is that one or earlier) and this one,
            # of no lower epoch, ahead (every node left holding it now
            # accepts this one instead) is owed to nobody: forget it.
            full = self._full[qi]
            if len(full) >= 2 and full[-1][1] <= e:
                del self._log[full.pop()[0]]
            full.append((seq, e))

    def _down(self):
        """Ids of the nodes the fault plan has down this tick."""
        sim = self.sim
        return sim.faults.down_at(sim.tick) if sim.faults is not None else ()

    def tick_start(self, tick: int) -> None:
        xs, ys = _fleet_xy(self.sim.fleet)
        # One query row at a time, in scratch that stays in cache. The
        # strip |dx| < limit holds every outsider that can be inside
        # its outer limit (sqrt(dx*dx + dy*dy) >= |dx| in floats too);
        # members are checked wherever they stand. Only those cells get
        # the shared distance recipe and the member (beyond the inner
        # limit) / outsider (inside the outer limit) compare.
        d, near = self._d, self._near
        cand = self._focal.copy()
        for ax, ay, bound, member, armed in zip(
            self._ax, self._ay, self._bound, self._member, self._armed
        ):
            np.subtract(xs, ax, out=d)
            np.abs(d, out=d)
            np.less(d, bound, out=near)
            near |= member
            near &= armed
            idx = np.nonzero(near)[0]
            dx = d[idx]
            dy = ys[idx] - ay[idx]
            dist = np.sqrt(dx * dx + dy * dy)
            limit = bound[idx]
            cand[idx] |= np.where(member[idx], dist > limit, dist < limit)
        cand &= self._active
        down = self._down()
        qidx = self._qidx
        told_q: List[int] = []
        told_o: List[int] = []
        candidates = np.nonzero(cand)[0].tolist()
        for oid in candidates:
            if oid in down:
                continue
            node = self._node_of[oid]
            self._replay(node)
            reported = node._reported
            before = len(reported)
            node.on_tick_start(tick)
            if len(reported) != before:
                # All a tick-start changes of what the mirror holds:
                # the queries it just reported are muted until their
                # next install. (Rewriting the older ones is a no-op.)
                told_q += [qidx[qid] for qid in reported]
                told_o += [oid] * len(reported)
        if told_q:
            self._reported[told_q, told_o] = True
            self._armed[told_q, told_o] = False
        tel = self.sim.telemetry
        if tel.enabled and tel.tracer.enabled:
            tel.tracer.emit(
                tick,
                "fastpath.candidates",
                candidates=len(candidates),
                population=int(self._active.sum()),
                replayed=self._replayed,
                superseded=self._superseded,
                log_len=len(self._log),
            )
            self._replayed = self._superseded = 0

    def before_dispatch(self, node: Node, msg: Message) -> None:
        # COLLECT and PROBE handlers read and write none of the monitor
        # view; they need no replay. An install reaching a node here
        # went around the mirror.
        if msg.kind is MessageKind.BROADCAST_INSTALL:
            raise ProtocolError(
                f"install {msg.payload!r} dispatched to node {node.oid} "
                "bypasses the broadcast phase's mirror"
            )

    def _up_mask(self, base: np.ndarray) -> Optional[np.ndarray]:
        """``base`` minus currently-down nodes; None means "all active".

        Only materialized under a fault plan — the common case returns
        None (for a full broadcast) or ``base`` untouched.
        """
        if self.sim.faults is None:
            return None if base is self._active else base
        mask = base.copy()
        n = mask.shape[0]
        mask[[i for i in self._down() if 0 <= i < n]] = False
        return mask

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
        # Everyone within the radius stands in the strip |dx| <= radius
        # (dx*dx + dy*dy >= dx*dx, through the rounding too); only the
        # strip gets the two-dimensional test.
        d, near = self._d, self._near
        np.subtract(xs, req.cx, out=d)
        np.abs(d, out=d)
        np.less_equal(d, radius, out=near)
        near &= self._active
        idx = np.nonzero(near)[0]
        dx = d[idx]
        dy = ys[idx] - req.cy
        d2 = dx * dx + dy * dy
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
            sim._dispatch(self._node_of[oid], msg)

    def deliver_area(self, msg: Message) -> bool:
        """Vectorized delivery of the server's broadcasts and geocasts.

        Claims COLLECT requests (:meth:`_collect_round`) and install
        broadcasts/geocasts (mirrored into the arrays vectorized,
        logged for lazy per-node replay; a geocast reaches the nodes
        inside the squared compare of ``covers()``); an install
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
            self._defer_install(msg, self._up_mask(self._active))
            return True
        if ptype is not GeocastInstall:
            raise ProtocolError(
                f"geocast install {msg.payload!r} is not a GeocastInstall"
            )
        payload = msg.payload
        xs, ys = _fleet_xy(self.sim.fleet)
        dx = xs - payload.ax
        dy = ys - payload.ay
        hit = dx * dx + dy * dy <= payload.cover * payload.cover  # covers()
        hit &= self._active
        mask = self._up_mask(hit)
        reach = hit if mask is None else mask
        self._defer_install(msg, reach)
        self.sim.channel.stats.record_delivery(msg, receivers=int(reach.sum()))
        return True
