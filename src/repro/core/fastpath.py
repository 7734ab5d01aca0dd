"""Vectorized client phases: the batched silent-object pass.

The per-object loop runs ``on_tick_start`` on every mobile node every
tick, although in band-based protocols the overwhelming majority of
those calls are no-ops — the object is *silent*: it holds no region (or
its regions are satisfied) and has not drifted past its dead-reckoning
threshold. These :class:`~repro.net.simulator.ClientPhase`
implementations hold the nodes' protocol state as columns, evaluate
that silence predicate for the whole fleet in a few numpy passes and
send, from the columns, what the nodes it flags would send: DKNN-P's
**candidates**, DKNN-B/G's violated cells. A phase is the whole client
side of its build: no node object exists under it, and it runs only
where it can be — on a transport that takes flights whole and over
nodes that keep no clocks (DESIGN §8).

Exactness is preserved by construction, not by approximation:

* the DKNN-P candidate predicate is exact — the candidates are the
  nodes whose ``on_tick_start`` would transmit — so sends, state,
  costs and answers are bit-identical;
* vector distances use ``np.sqrt(dx*dx + dy*dy)``, the exact float
  recipe of :func:`repro.geometry.dist`, and limits are the scalar
  code's own float expressions, so threshold comparisons agree with
  the scalar path to the bit;
* sends run in the simulator's mobile order (ascending oid), each
  node's in its own order, so message order on the channel — and
  therefore server processing order and every downstream statistic —
  is unchanged;
* the node state a phase holds in arrays is never extrapolated, and
  it lives nowhere else. Every downlink reaches it whole: a flight
  through ``deliver_batch``, a scalar message — broadcast, geocast or
  unicast — through ``deliver_area``, and the phase does to the
  columns exactly what each receiver's handler does, or raises a
  ``ProtocolError`` for what no handler takes; every report is muted
  there as it is sent;
* where the phase answers for the nodes — probe replies, drift and
  violation reports, the replies a DKNN-B/G collect round draws — it
  sends, in the nodes' own send order, exactly the messages their
  code would have sent, and a batch stands in the queue where that run
  would have stood (:mod:`repro.net.plane`).

``tests/test_fastpath.py`` and ``tests/test_region_table.py`` pin all
of this against the per-object loop, protocol by protocol.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.broadcast_variant import BroadcastMobileNode
from repro.core.client import _BAND_CLASSES, DknnMobileNode
from repro.core.geocast_variant import GeocastMobileNode
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


class _RegionTable:
    """The installed safe regions of a DKNN fleet, in columns.

    One row per (node, installed region): ``oid``, ``qid``, anchor
    ``(ax, ay)``, ``radius``, ``kind`` (the wire's band code),
    ``limit``, the region object itself, ``order`` and ``muted``.
    ``limit`` is the squared distance the region class compares
    against — ``radius * radius * _SQ_SLACK_HI`` (``_LO`` for outsider
    bands), computed in Python floats exactly as ``SafeRegion.contains``
    computes it, so ``dx*dx + dy*dy`` against it decides like the
    scalar check to the bit. A ``muted`` row is a region whose
    violation its node reported (``qid in node._reported``): it is
    never checked until a repair re-installs or revokes it.

    A node's rows are all there is of its regions: in ``order`` they
    are its ``regions`` dict in insertion order (a re-install keeps its
    row's place, a region revoked and installed again goes last), the
    muted ones its ``_reported`` and the unmuted ones its armed
    regions. :meth:`install` / :meth:`revoke` write one flight's rows
    for all its receivers at delivery time, leaving those nodes' other
    rows alone. New rows go into dead ones (:meth:`_claim`), and the
    columns double when there are none left — memory is O(peak rows).
    Dead rows keep their last ``oid``, so gathering positions by it
    never needs a mask.
    """

    #: the columns :meth:`_write` fills: ``oid``, :meth:`row`'s fields,
    #: the region, ``order``; ``muted`` is written False.
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
    def row(qid: int, region) -> Tuple:
        """The ``qid`` to ``limit`` column values of ``region``."""
        r = region.radius
        kind, slack = _ROW_KIND[type(region)]
        return (qid, region.ax, region.ay, r, kind, r * r * slack)

    def rows_of(self, oids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Live rows of the nodes in ``oids`` (unique ids), and for each
        row the position of its node within ``oids``."""
        at = self._at
        at[oids] = np.arange(oids.shape[0], dtype=np.int32)
        pos = at[self.oid]
        rows = np.nonzero(self.live & (pos >= 0))[0]
        at[oids] = -1
        return rows, pos[rows]

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
        """Arm ``m`` rows, one assignment per column: ``values`` and
        ``order`` are the columns of :data:`_COLUMNS` but ``muted``,
        each a scalar or ``m`` long."""
        free = self._claim(m)
        for name, value in zip(self._COLUMNS, values + (order, False)):
            getattr(self, name)[free] = value
        self.live[free] = True

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
        fields = zip(*(self.row(q, r) for q, r in zip(qids, regions)))
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
    """Batched tick-start for the point-to-point protocol (DKNN-P).

    The phase is the whole client side of the build: no node object
    exists under it. Each :class:`~repro.core.client.DknnMobileNode` is
    a row of columns: its drift origin (``_sent_x`` / ``_sent_y``, NaN
    before its first send), whether it holds a region
    (``_attention``), its ``regions`` and ``_reported`` as rows of the
    :class:`_RegionTable` (the muted rows are the reported ones; an
    ``order`` column keeps dict insertion order), and its pushed
    ``known_answers`` in ``_answers``; ``theta`` is the builder's, one
    for all. A node's tick-start sends only when one of three things
    holds:

    * it has never transmitted;
    * it drifted more than ``theta`` from its last transmitted position;
    * one of its installed regions, not yet reported this episode, is
      violated at its current position.

    All three are evaluated exactly — the region predicate in one pass
    over the table — so the candidates are precisely the nodes that
    send, and the phase sends what their tick-starts would send, in
    their order: the drift-only candidates (no region held) as one
    ``LOCATION_UPDATE`` batch, every other candidate's drift report and
    violations as one **report flight** (:meth:`_reports`). Every
    downlink of the server is a flight :meth:`deliver_batch` applies to
    the columns as each receiver's handler would.

    :meth:`bind` refuses what it cannot hold as columns: a node class
    other than ``DknnMobileNode`` (a hardened node's lease and retry
    clocks) and a population with a node built. A build whose transport
    decides per message, or whose nodes keep clocks, gets no phase and
    runs the per-object loop (DESIGN §8).
    """

    drives = (DknnMobileNode,)

    def __init__(self, theta: float) -> None:
        #: the drift threshold of every node (``DknnMobileNode.theta``)
        self._theta = float(theta)

    def bind(self, sim) -> None:
        super().bind(sim)
        n = sim.fleet.n
        self._sent_x = np.full(n, np.nan)
        self._sent_y = np.full(n, np.nan)
        self._attention = np.zeros(n, dtype=bool)
        #: the oids the fleet can move; None: evaluate whole columns
        #: every tick (a fleet that can move them all).
        self._moving = getattr(sim.fleet, "moving_rows", None)
        #: what the next evaluation re-checks besides the moving rows
        #: (:meth:`_candidates`); None: whole columns (the first
        #: evaluation, and every one where ``_moving`` is None).
        self._recheck: Optional[List[np.ndarray]] = None
        #: candidates :meth:`idle` found, for the tick-start that follows
        self._ready: Optional[Tuple[np.ndarray, ...]] = None
        #: can :meth:`idle` observe a still tick? Not over a fleet that
        #: cannot say whether it moved (a scalar one)
        self.observes_stillness = hasattr(sim.fleet, "moved")
        self.regions = _RegionTable(n)
        #: oid -> the node's ``known_answers`` (focal objects only).
        self._answers: Dict[int, Dict[int, List[int]]] = {}

    def _changed(self, oids: np.ndarray) -> None:
        """``oids`` may have gained a table row or an unmuted one: the
        next evaluation re-checks them (:meth:`_candidates`). A revoke,
        a probe reply and a mute can only turn a node's predicate off."""
        if self._recheck is not None:
            self._recheck.append(oids)

    def _candidates(self, xs, ys) -> Tuple[np.ndarray, ...]:
        """The candidates at positions ``(xs, ys)``, ascending, whether
        each drifted past theta (or never sent), and the violated table
        rows, ascending.

        Whole columns the first time, every time over a fleet that can
        move every object, and whenever the rows to re-check are as
        many as the columns. Otherwise only the rows whose predicate
        can have turned since the last evaluation: the nodes written
        since in a way that can turn it on (:meth:`_changed`) and the
        fleet's moving rows if the fleet moved. No other node is a
        candidate: every candidate of the last evaluation acted, which
        turned its predicate off, and nothing the others are evaluated
        on has changed — every advance since the last evaluation is
        this tick's, as a tick on which the fleet moved is never
        skipped. Nothing to re-check finds nothing, without a numpy
        call."""
        table = self.regions
        n = self._sent_x.shape[0]
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
        moved = np.isnan(sent_x) | (drift > self._theta)
        cand = moved.copy()
        hit = table.violated(xs, ys, rows)
        holders = table.oid[hit]
        cand[holders if rows is None else np.searchsorted(at, holders)] = True
        pos = np.flatnonzero(cand)
        if self._moving is not None:
            self._recheck = []
        return pos if rows is None else at[pos], moved[pos], hit

    def idle(self) -> bool:
        """Is no node a candidate at the current positions? Evaluates
        what :meth:`_candidates` would re-check; candidates it finds
        feed the tick-start that follows, which then does not evaluate
        again."""
        found = self._candidates(*_fleet_xy(self.sim.fleet))
        if found[0].shape[0]:
            self._ready = found
            return False
        return True

    def tick_start(self, tick: int) -> None:
        sim = self.sim
        xs, ys = _fleet_xy(sim.fleet)
        found, self._ready = self._ready, None
        oids, moved, hit = found or self._candidates(xs, ys)
        n_cand = oids.shape[0]
        # Drift-only candidates (no installed region) do exactly one
        # thing: send a LOCATION_UPDATE. Ship them all as one batch.
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
            oids, moved = oids[held], moved[held]
        flight = self._reports(oids, moved, hit, xs, ys)
        if flight.count:
            sim.channel.send_batch(flight)
        tel = sim.telemetry
        if tel.enabled:
            tel.emit(
                tick,
                "fastpath.candidates",
                candidates=n_cand,
                population=self._sent_x.shape[0],
            )

    def _reports(self, oids, moved, hit, xs, ys) -> ColumnarBatch:
        """``DknnMobileNode.on_tick_start`` of the candidates ``oids``
        (ascending), on the columns, as a report flight: per node its
        drift report if it ``moved``, then its violated rows of ``hit``
        in dict order, muted; each marked sent."""
        table = self.regions
        holder = table.oid[hit]
        at = np.minimum(np.searchsorted(oids, holder), oids.shape[0] - 1)
        rows = hit[oids[at] == holder] if oids.shape[0] else hit[:0]
        table.muted[rows] = True
        self._sent_x[oids] = xs[oids]
        self._sent_y[oids] = ys[oids]
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

    def deliver_batch(self, batch: ColumnarBatch) -> None:
        """Consume a PROBE, INSTALL_REGION, REVOKE_REGION or
        ANSWER_PUSH flight in place. Anything else — a kind, a payload
        type or a band code ``DknnMobileNode``'s handler does not take —
        raises :class:`~repro.errors.ProtocolError`.

        A flight is a server subround's whole output of its kind, many
        queries' runs one after the other (:mod:`repro.net.plane`).
        Each arm does to the columns what the receivers' own handler
        does, row by row in send order — an install or revoke flight in
        one pass over the region table.
        """
        kind = batch.kind
        if kind is MessageKind.PROBE:
            self._answer_probes(batch.dsts)
            return
        # kind -> (the payload type every row must carry, the arm)
        want, arm = {
            MessageKind.INSTALL_REGION: (InstallBand, self._install_batch),
            MessageKind.REVOKE_REGION: (RevokeBand, self._revoke_batch),
            MessageKind.ANSWER_PUSH: (AnswerPush, self._push_answers),
        }.get(kind, (None, None))
        payloads = batch.payloads
        if arm is None or any(type(p) is not want for p in payloads):
            self._refuse(batch)
        arm(batch.dsts, batch.pidx, payloads)

    def _answer_probes(self, idx: np.ndarray) -> None:
        """One PROBE_REPLY batch for a PROBE batch: read own position,
        reply, reset the dead-reckoning origin (``_mark_sent``)."""
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

    def _install_batch(self, dsts, pidx, payloads) -> None:
        """``DknnMobileNode._apply_install``, row by row, on the table.
        A run's receivers share its one region object (regions are
        immutable values); an install's epoch and lease are the
        hardened node's, which a plain one ignores."""
        if any(p.band not in _BAND_CLASSES for p in payloads):
            self._refuse(payloads)
        qids = [p.qid for p in payloads]
        regions = [
            _BAND_CLASSES[p.band](p.ax, p.ay, p.radius) for p in payloads
        ]
        self.regions.install(dsts, pidx, qids, regions)
        self._attention[dsts] = True
        self._changed(dsts)

    def _revoke_batch(self, dsts, pidx, payloads) -> None:
        """The REVOKE_REGION arm of ``DknnMobileNode.on_message``, row
        by row, on the table."""
        qids = np.array([p.qid for p in payloads], dtype=np.int64)[pidx]
        nodes, attention = self.regions.revoke(dsts, qids)
        self._attention[nodes] = attention

    def _push_answers(self, dsts, pidx, payloads) -> None:
        """The ANSWER_PUSH arm of ``DknnMobileNode.on_message``, on
        ``_answers``."""
        answers = self._answers
        for oid, i in zip(dsts.tolist(), pidx.tolist()):
            answers.setdefault(oid, {})[payloads[i].qid] = list(
                payloads[i].ids
            )


class BroadcastSilentPhase(ClientPhase):
    """Batched tick-start for the broadcast/geocast protocols.

    Every node self-monitors every query it has heard an install for,
    so the silence predicate is the per-query band check itself. The
    phase holds each node's **own** monitor view per query — anchor,
    band limit, role, armed and reported flags, epoch — checks it one
    query row at a time in n-sized scratch and sends the violation
    reports from the cells (:meth:`_report`). A row that every node
    heard whole is **shared**: one payload in ``_row``, read as
    scalars, with only the armed / reported flags per cell. A row
    whose receivers diverged — a geocast strip, an epoch gate — lives
    in ``(q, n)`` cells, allocated on the first such row, until a full
    broadcast shares it again. Nothing in the build reads a node's
    ``monitors`` / ``known_answers`` — the COLLECT and PROBE handlers
    read only whether the node is the query's focal, and its position —
    so the phase answers for every node from its cells and the fleet:

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
      round, as the in-circle nodes' scalar replies; for everyone else
      delivery is a provable no-op;
    * a ``PROBE`` to one focal is answered with its scalar
      ``PROBE_REPLY`` at its position.

    Anything else — an install to one node, a geocast install whose
    payload is not a :class:`GeocastInstall` — raises
    :class:`ProtocolError`. The scalar node code is the per-object
    reference's, and the oracle ``tests/test_fastpath.py`` holds the
    cells to.
    """

    drives = (BroadcastMobileNode, GeocastMobileNode)

    def __init__(self, focal_of: Dict[int, int]) -> None:
        #: qid -> focal oid, whose COLLECT handler skips the circle test
        #: and whose own query's cell is checked against the circle.
        self._focal_of = focal_of

    def bind(self, sim) -> None:
        super().bind(sim)
        n = sim.fleet.n
        self._qids = sorted(self._focal_of)
        self._qidx = {qid: i for i, qid in enumerate(self._qids)}
        q = len(self._qids)
        #: per query, the payload all nodes hold while each of
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
        if GeocastMobileNode in sim.mobiles.classes:
            self._epoch = np.full((q, n), -1, dtype=np.int64)
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
        heard by every node.

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
        m = slice(None) if idx is None else idx
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
            self._write(qi, slice(None), self._row[qi])
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
                population=self._armed.shape[1],
            )

    def _report(self, qis, oids, xs, ys) -> int:
        """Send the reports of the violated cells ``(qis, oids)`` and
        mute them; returns how many were sent.

        The uplinks keep the per-object loop's order: node by node in
        ascending oid, each node's in its ``monitors`` order — the
        order of the first install it heard per query — one
        ``ViolationReport`` at the node's position and held epoch,
        ``QUERY_MOVE`` for the focal's own query. They leave as one
        report flight. A report mutes its cell until the next install
        re-arms it.
        """
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
        self.sim.channel.send_batch(flight)
        return flight.count

    def _strip(self, cx: float, cy: float, half: float):
        """The oids in the strip ``|x - cx| <= half``, ascending,
        and their ``dx*dx + dy*dy``. Everyone within ``half`` of the
        centre stands in it (``dx*dx + dy*dy >= dx*dx`` in floats too),
        so only the strip gets the two-dimensional test."""
        xs, ys = _fleet_xy(self.sim.fleet)
        d, near = self._d, self._near
        np.subtract(xs, cx, out=d)
        np.abs(d, out=d)
        np.less_equal(d, half, out=near)
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
        as one batch when it is long enough, as the scalar replies the
        handlers send otherwise.
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
        idx = idx[heard]
        if geocast:
            sim.channel.stats.record_delivery(msg, receivers=idx.shape[0])
            idx = idx[np.sqrt(d2[heard]) <= radius]  # the handler's test
        idx = idx[idx != self._focal_of[req.qid]]
        if idx.shape[0] >= MIN_BATCH:
            sim.channel.send_batch(
                ColumnarBatch(
                    MessageKind.COLLECT_REPLY,
                    srcs=idx,
                    dst=SERVER_ID,
                    xs=xs[idx],  # fancy indexing copies: latency-safe
                    ys=ys[idx],
                    qids=np.full(idx.shape[0], req.qid, np.int64),
                    payload_nbytes=_CR_NBYTES,
                    payload_ctor=CollectReply,
                )
            )
            return
        positions = sim.fleet.positions
        for oid in idx.tolist():
            x, y = positions[oid]
            sim.channel.send(
                MessageKind.COLLECT_REPLY, oid, SERVER_ID,
                CollectReply(req.qid, x, y),
            )

    def deliver_area(self, msg: Message) -> None:
        """Take a COLLECT request (:meth:`_collect_round`), an install
        broadcast or geocast (written to the receivers' cells by
        :meth:`_install`; a geocast reaches the nodes inside the
        squared compare of ``covers()``) or a PROBE to one node (its
        ``PROBE_REPLY``, at its position); refuse anything else."""
        kind, dst, ptype = msg.kind, msg.dst, type(msg.payload)
        geocast = dst == GEOCAST_ID
        area = geocast or dst == BROADCAST_ID
        if kind is MessageKind.PROBE and not area:
            x, y = self.sim.fleet.positions[dst]
            self.sim.channel.send(
                MessageKind.PROBE_REPLY, dst, SERVER_ID, ProbeReply(x, y)
            )
        elif kind is MessageKind.COLLECT and area and ptype is CollectRequest:
            self._collect_round(msg, geocast)
        elif kind is not MessageKind.BROADCAST_INSTALL or not area:
            self._refuse(msg)
        elif not geocast:
            self._install(msg, None)
        elif ptype is not GeocastInstall:
            raise ProtocolError(
                f"geocast install {msg.payload!r} is not a GeocastInstall"
            )
        else:
            payload = msg.payload
            cover = payload.cover
            idx, d2 = self._strip(payload.ax, payload.ay, cover)
            idx = idx[d2 <= cover * cover]  # covers()
            self._install(msg, idx)
            self.sim.channel.stats.record_delivery(
                msg, receivers=idx.shape[0]
            )
