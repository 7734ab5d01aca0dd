"""Server-side logic of the point-to-point DKNN protocol.

The server keeps a dead-reckoning :class:`ObjectTable` (positions known
to within ``theta``), and per query a small state machine:

``IDLE``
    Nothing owed. Once per tick the *planner* runs: it scans, over
    **reported** positions, for uninformed objects within the monitor
    zone ``t + s_eff + uncertainty`` of the anchor. Any hit is probed;
    a probe landing inside ``t + s_eff`` (a true encroacher) triggers a
    repair, otherwise the object gets an outsider band and joins the
    informed set.

``WAIT_FOCAL`` / ``WAIT_CANDS`` / ``WAIT_PLANNER``
    Blocked on outstanding probes (answered within the tick in
    zero-latency mode).

A repair re-derives everything from exact positions:

1. ensure the focal node's exact position is known (probe if stale);
2. over reported positions, find the ``k+1`` nearest and set the probe
   radius ``R = r_{k+1} + 2*uncertainty + s_cap`` — a radius provably
   containing the true top ``k+1`` *and* the post-repair monitor zone;
3. probe every candidate in ``R`` whose position is stale this tick;
4. plan on exact distances (a subround's full repairs in one pass,
   ``DknnServer._plan_full``), install answer/outsider bands anchored at
   the exact query position, the query safe circle, revoke bands of
   objects no longer informed, and push a changed answer to the focal.

Exactness (zero-latency mode): by the band invariant in
:mod:`repro.core.regions`, between repairs the published answer remains
a valid kNN set; each repair re-establishes it from exact positions.
Property and integration tests check the published answer against
brute force over ground truth at every tick.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.params import DknnParams
from repro.core.protocol import (
    BAND_ANSWER,
    BAND_OUTSIDER,
    BAND_QUERY_CIRCLE,
    AnswerPush,
    InstallAck,
    InstallBand,
    ProbeRequest,
    RevokeBand,
)
from repro.core.regions import Installation, plan_installation
from repro.errors import ProtocolError
from repro.geometry import Rect
from repro.index.knn import (
    _rank,
    _ranked,
    knn_search,
    knn_search_many,
    range_search_arrays,
    range_search_many,
)
from repro.metrics.cost import CostMeter
from repro.net.message import SERVER_ID, Message, MessageKind
from repro.net.plane import MIN_BATCH, REPORT_KINDS, ColumnarBatch
from repro.server.engine import BaseServer
from repro.server.object_table import ObjectTable
from repro.server.query_table import QuerySpec

__all__ = ["DknnServer"]

_IDLE = "idle"
_WAIT_FOCAL = "wait_focal"
_WAIT_CANDS = "wait_cands"
_WAIT_PLANNER = "wait_planner"
_WAIT_LIGHT = "wait_light"

_NO_IDS = np.empty(0, dtype=np.int64)

#: the downlink kinds a subround sends, in the order its outbox leaves.
_FLUSH_ORDER = (
    MessageKind.PROBE,
    MessageKind.INSTALL_REGION,
    MessageKind.REVOKE_REGION,
    MessageKind.ANSWER_PUSH,
)


class _InFlight:
    """Ids with an unanswered probe: oid-indexed flags + a live count.

    Set-like for the scalar callers (``add`` / ``discard`` / ``in`` /
    truth / ``len`` / ascending iteration); :meth:`claim` and
    :meth:`release` are the array forms the repair round uses. Array
    arguments hold non-negative ids, unique within one call.
    """

    __slots__ = ("_flag", "_n")

    def __init__(self) -> None:
        self._flag = np.zeros(64, dtype=bool)
        self._n = 0

    def _reach(self, max_oid: int) -> None:
        cap = self._flag.shape[0]
        if max_oid >= cap:
            grown = np.zeros(max(max_oid + 1, 2 * cap), dtype=bool)
            grown[:cap] = self._flag
            self._flag = grown

    def __contains__(self, oid: int) -> bool:
        return 0 <= oid < self._flag.shape[0] and bool(self._flag[oid])

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(np.flatnonzero(self._flag).tolist())

    def add(self, oid: int) -> None:
        if oid < 0:
            raise ProtocolError(f"cannot probe negative object id {oid}")
        if oid not in self:
            self._reach(oid)
            self._flag[oid] = True
            self._n += 1

    def discard(self, oid: int) -> None:
        if oid in self:
            self._flag[oid] = False
            self._n -= 1

    def claim(self, oids: np.ndarray) -> np.ndarray:
        """Mark ``oids`` in flight; returns those that were not yet,
        in input order."""
        if oids.shape[0]:
            self._reach(int(oids.max()))
            oids = oids[~self._flag[oids]]
            self._flag[oids] = True
            self._n += oids.shape[0]
        return oids

    def release(self, oids: np.ndarray) -> None:
        """Clear every id of ``oids`` that is in flight (one scatter)."""
        if self._n:
            oids = oids[oids < self._flag.shape[0]]
            oids = oids[self._flag[oids]]
            self._flag[oids] = False
            self._n -= oids.shape[0]


class _QueryState:
    """Mutable per-query protocol state."""

    __slots__ = (
        "spec",
        "install",
        "informed",
        "phase",
        "dirty",
        "pending",
        "cand_ids",
        "planner_new",
        "planner_tick",
        "violators",
        "light_ok",
        "light_violators",
        "focal_down",
    )

    def __init__(self, spec: QuerySpec) -> None:
        self.spec = spec
        self.install: Optional[Installation] = None
        self.informed: Set[int] = set()
        self.phase = _IDLE
        self.dirty = True  # forces the initial installation
        # int64 id arrays: what the repair in progress waits on, its
        # candidate set, and the planner's uninformed hits.
        self.pending = _NO_IDS
        self.cand_ids = _NO_IDS
        self.planner_new = _NO_IDS
        self.planner_tick = -1
        #: objects whose band violation marked this query dirty.
        self.violators: Set[int] = set()
        #: True while every dirty trigger this round is light-repairable.
        self.light_ok = False
        #: violators being handled by the in-flight light repair.
        self.light_violators: Set[int] = set()
        #: fault-tolerant mode: the focal node is suspected crashed;
        #: the query is frozen (last answer stands, marked degraded)
        #: until the focal is heard from again.
        self.focal_down = False


class DknnServer(BaseServer):
    """Central coordinator of the distributed MkNN protocol."""

    def __init__(
        self,
        universe: Rect,
        params: DknnParams = DknnParams(),
        record_history: bool = False,
    ) -> None:
        super().__init__(record_history=record_history)
        self.params = params
        self.table = ObjectTable(
            universe, params.grid_cells, params.theta, meter=self.meter
        )
        self._states: Dict[int, _QueryState] = {}
        self._tick = 0
        self._probes_in_flight = _InFlight()
        #: search results fetched ahead by this subround's pre-pass,
        #: ``(kind, qid) -> row``; every row is taken by the query it
        #: was fetched for before the subround ends.
        self._rows: Dict[Tuple[str, int], object] = {}
        #: the downlinks :meth:`on_subround` holds back, ``kind ->
        #: [(oids, payload), ...]`` in send order; None: send at once.
        self._outbox: Optional[Dict[MessageKind, List[Tuple]]] = None
        #: repairs performed per query (light + full), and the light
        #: subset (the E13 ablation reports the ratio).
        self.repair_count: Dict[int, int] = {}
        self.light_repair_count: Dict[int, int] = {}
        # -- fault-tolerant state (inert unless params.fault_tolerant) ----
        self._ft = params.fault_tolerant
        #: global monotonic install sequence; later installs always win
        #: the client-side epoch dedupe, across all queries.
        self._install_seq = 0
        #: (oid, qid) -> (payload, last_sent_tick) for unacked installs.
        self._unacked: Dict[Tuple[int, int], Tuple[InstallBand, int]] = {}
        #: probe bookkeeping: last / first send tick per outstanding probe.
        self._probe_sent: Dict[int, int] = {}
        self._probe_first: Dict[int, int] = {}
        #: last tick each object was heard from (any uplink).
        self._last_heard: Dict[int, int] = {}
        #: objects suspected crashed (lease expired or probes unanswered).
        self._suspected: Set[int] = set()
        #: last tick a revival probe was sent to a suspected object.
        self._suspect_probe: Dict[int, int] = {}
        #: qid -> True when this tick's published answer carries no
        #: exactness guarantee (focal down, repair incomplete, installs
        #: outstanding, or a suspected object still in the answer).
        self.degraded: Dict[int, bool] = {}

    # -- registration -----------------------------------------------------

    def register_query(self, spec: QuerySpec) -> None:
        super().register_query(spec)
        self._states[spec.qid] = _QueryState(spec)
        self.repair_count[spec.qid] = 0
        self.light_repair_count[spec.qid] = 0
        self.degraded[spec.qid] = False

    def export_query_state(self, qid: int) -> Dict:
        """Handoff snapshot: the full ``_QueryState`` in wire-sizable
        form — installation (anchor, threshold, slack, answer), the
        informed set (the band registry the new owner must serve
        violations against), violators and phase flags."""
        doc = super().export_query_state(qid)
        st = self._states.get(qid)
        if st is None:
            return doc
        doc["focal_oid"] = st.spec.focal_oid
        doc["k"] = st.spec.k
        doc["phase"] = st.phase
        doc["dirty"] = st.dirty
        doc["informed"] = tuple(sorted(st.informed))
        doc["violators"] = tuple(sorted(st.violators))
        if st.install is not None:
            inst = st.install
            doc["anchor"] = (inst.anchor[0], inst.anchor[1])
            doc["threshold"] = (
                inst.threshold if not math.isinf(inst.threshold) else -1.0
            )
            doc["s_eff"] = inst.s_eff
        return doc

    # -- message handling ----------------------------------------------------

    def on_message(self, msg: Message) -> None:
        kind = msg.kind
        payload = msg.payload
        if self._ft:
            self._last_heard[msg.src] = self._tick
            if msg.src in self._suspected:
                self._revive(msg.src)
        if kind == MessageKind.INSTALL_ACK:
            if not isinstance(payload, InstallAck):
                raise ProtocolError(f"bad INSTALL_ACK payload {payload!r}")
            entry = self._unacked.get((msg.src, payload.qid))
            if entry is not None and entry[0].epoch == payload.epoch:
                del self._unacked[(msg.src, payload.qid)]
            # A mismatched epoch is a late ack for a superseded
            # install: keep retransmitting the current one.
            return
        if kind in (MessageKind.LOCATION_UPDATE, MessageKind.PROBE_REPLY):
            self.table.report(msg.src, payload.x, payload.y, self._tick)
            self._probes_in_flight.discard(msg.src)
            self._probe_sent.pop(msg.src, None)
            self._probe_first.pop(msg.src, None)
        elif kind in (MessageKind.VIOLATION, MessageKind.QUERY_MOVE):
            self.table.report(msg.src, payload.x, payload.y, self._tick)
            self._trigger(kind, payload.qid, msg.src)
        else:
            raise ProtocolError(f"server cannot handle {kind}")

    def _trigger(self, kind: MessageKind, qid: int, src: int) -> None:
        """A ``VIOLATION`` / ``QUERY_MOVE`` of ``src`` makes ``qid``
        dirty."""
        state = self._states.get(qid)
        if state is None:
            raise ProtocolError(f"violation for unknown query {qid}")
        violation = kind == MessageKind.VIOLATION
        if not state.dirty:
            # First trigger this round decides repairability;
            # object violations start light, anything else doesn't.
            state.light_ok = violation
        elif not violation:
            state.light_ok = False
        state.dirty = True
        if violation:
            state.violators.add(src)
        tel = self.telemetry
        if tel.enabled:
            event = "server.violation" if violation else "server.query_move"
            tel.emit(self._tick, event, qid=qid, oid=src)

    # -- columnar ingest ------------------------------------------------------

    def on_uplink_batch(self, batch: ColumnarBatch) -> bool:
        """Ingest one columnar uplink batch; False declines (the caller
        materializes scalar messages instead).

        Only positional report kinds are batchable — they touch the
        object table and probe bookkeeping, and their per-message
        handling commutes across sources, so one vectorized
        ``report_batch`` in column order plus one in-flight scatter is
        indistinguishable from the scalar per-message path (the per-id
        loops run only for the fault-tolerant lease/retransmit dicts).
        A subround's probes leave as one ``PROBE`` flight
        (:meth:`on_subround`), so their replies come back as one
        ``PROBE_REPLY`` batch, next to the tick's drift reports and
        report flight (:meth:`_ingest_reports`); acks, and the
        fault-tolerant build's reports, arrive scalar.
        """
        if batch.kind is None and not self._ft:
            self._ingest_reports(batch)
            return True
        if batch.kind not in (
            MessageKind.LOCATION_UPDATE, MessageKind.PROBE_REPLY
        ):
            return False
        srcs = batch.srcs
        if self._ft:
            tick = self._tick
            heard = self._last_heard
            for src in srcs.tolist():
                heard[src] = tick
                if src in self._suspected:
                    self._revive(src)
        self.table.report_batch(srcs, batch.xs, batch.ys, self._tick)
        self._release_probes(srcs)
        return True

    def _release_probes(self, srcs: np.ndarray) -> None:
        """A position from each of ``srcs`` answers its probe."""
        self._probes_in_flight.release(srcs)
        if self._probe_sent:
            for src in srcs.tolist():
                self._probe_sent.pop(src, None)
                self._probe_first.pop(src, None)

    def _ingest_reports(self, batch: ColumnarBatch) -> None:
        """:meth:`on_message` over a report flight's rows: the grid
        written once per sender, at its last row's position, the meter
        charged once per row (the scalar path's units), the location
        rows' probes answered, and :meth:`_trigger` for each other row
        in row order."""
        srcs, codes = batch.srcs, batch.codes
        named = codes != 0
        # a sender's rows are contiguous: its last one ends a run
        ends = np.append(srcs[1:] != srcs[:-1], srcs.size > 0)
        last = np.flatnonzero(ends)
        self.table.report_batch(
            srcs[last], batch.xs[last], batch.ys[last], self._tick
        )
        repeats = srcs.shape[0] - last.shape[0]
        if repeats:
            self.meter.charge(CostMeter.BOOKKEEPING, repeats)
            self.meter.charge(CostMeter.INDEX_UPDATE, repeats)
        self._release_probes(srcs[~named])
        for code, qid, src in zip(
            codes[named].tolist(), batch.qids[named].tolist(),
            srcs[named].tolist(),
        ):
            self._trigger(REPORT_KINDS[code], qid, src)

    # -- per-subround driving -----------------------------------------------

    def on_tick_start(self, tick: int) -> None:
        super().on_tick_start(tick)
        self._tick = tick
        if self._ft:
            self._ft_tick(tick)

    def on_tick_end(self, tick: int) -> None:
        unacked_qids = {qid for _, qid in self._unacked}
        for qid, st in self._states.items():
            self.degraded[qid] = bool(
                st.focal_down
                or st.dirty
                or st.phase != _IDLE
                or qid in unacked_qids
                or (
                    self._suspected
                    and self._suspected.intersection(self.answers.get(qid, ()))
                )
            )
        super().on_tick_end(tick)

    def on_subround(self, tick: int) -> None:
        """Advance every query's state machine once, in registration
        order.

        Before that, :meth:`_prefetch` runs the index searches the
        queries are about to ask for as one many-row pass per kind. It
        may assume exactly two things. The grid is read-only inside a
        subround: reports are ingested by ``on_message`` /
        ``on_uplink_batch`` between subrounds, and nothing an
        ``_advance`` does (probes, installs, revokes, borrows) writes
        the table, positions or freshness. And one query's ``_advance``
        never writes another query's state, so what a query does first
        is decided by its own fields as they stand now. It may not
        assume anything about what happens *after* a query's first step
        — a planner scan that finds an encroacher, a light repair that
        escalates — and those searches stay with the per-query functions.

        Every downlink the queries make waits in an outbox and leaves
        at the end, by kind in ``_FLUSH_ORDER`` and in send order within
        a kind (:mod:`repro.net.plane` says why that is safe): one batch
        per kind with the plane open, else one by one, so the per-object
        reference sends what the build sends. Sends leave at once where
        the transport decides per message, and in the fault-tolerant
        build (an epoch and an ack per install).
        """
        self._tick = tick
        sim = self.sim
        if sim is not None and not (self._ft or sim.transport_per_message()):
            self._outbox = {kind: [] for kind in _FLUSH_ORDER}
        self._prefetch(tick)
        for state in self._states.values():
            if state.focal_down:
                continue
            self._advance(state, tick)
        if self._rows:
            raise ProtocolError(
                f"prefetched searches never asked for: {sorted(self._rows)}"
            )
        if self._outbox is not None:
            self._flush(sim.plane_open())

    def _flush(self, batched: bool) -> None:
        """Send the outbox kind by kind: a kind's runs as one batch, or
        (``batched`` False) message by message, in send order."""
        outbox, self._outbox = self._outbox, None
        for kind in _FLUSH_ORDER:
            runs = outbox[kind]
            if not batched:
                for oids, payload in runs:
                    for oid in oids:
                        self.send(oid, kind, payload)
            elif runs:
                oids, payloads = zip(*runs)
                self.channel.send_batch(
                    ColumnarBatch(
                        kind,
                        src=SERVER_ID,
                        dsts=np.fromiter(chain.from_iterable(oids), np.int64),
                        payloads=payloads,
                        pidx=np.repeat(
                            np.arange(len(runs)), [len(ids) for ids in oids]
                        ),
                    )
                )

    def _light_eligible(self, st: _QueryState) -> bool:
        """Would an idle ``st`` take the light repair path right now?"""
        return bool(
            st.dirty
            and st.light_ok
            and self.params.incremental
            and st.install is not None
            and not math.isinf(st.install.threshold)
        )

    def _prefetch(self, tick: int) -> None:
        """Run, as one many-row search per kind, what the queries'
        first steps of this subround will search for.

        Read-only over the query states; mirrors the entry conditions
        of :meth:`_advance`: an idle query whose planner is due (not
        dirty, or dirty on the light path, with bands installed) scans
        its monitor zone; a query starting a full repair with its focal
        position exact (idle and dirty off the light path, or done
        waiting for the focal probe) searches its ``k+1`` nearest and
        then scans the candidate circle that fixes; a query whose
        candidate probes are all answered finalizes (``"fin"``, any
        number of rows: :meth:`_plan_full`). A search kind with fewer
        than ``MIN_BATCH`` rows due is left to the per-query functions
        (the many-row kernels lose below that), as is everything under
        the fault-tolerant build's suspect exclusion sets. The kernels
        charge the meter what the per-query calls would have, so every
        row must be consumed: :meth:`on_subround` raises otherwise.
        """
        self._rows = rows = {}
        if self._ft and self._suspected:
            return
        table = self.table
        grid = table.grid
        planner: List[_QueryState] = []
        search: List[_QueryState] = []
        finals: List[_QueryState] = []
        for st in self._states.values():
            if st.focal_down:
                continue
            if st.phase == _WAIT_CANDS:
                if not table.stale(st.pending, tick).shape[0]:
                    finals.append(st)
            elif st.phase == _WAIT_FOCAL or (
                st.phase == _IDLE and st.dirty and not self._light_eligible(st)
            ):
                # _WAIT_FOCAL pends on the focal alone.
                if table.is_fresh(st.spec.focal_oid, tick):
                    search.append(st)
            elif (
                st.phase == _IDLE
                and st.planner_tick != tick
                and st.install is not None
                and not math.isinf(st.install.threshold)
            ):
                planner.append(st)
        if finals:
            for st, plan in zip(finals, self._plan_full(finals)):
                rows["fin", st.spec.qid] = plan
        if len(planner) >= MIN_BATCH:
            unc = self.params.uncertainty
            found = range_search_many(
                grid,
                np.array([st.install.anchor[0] for st in planner]),
                np.array([st.install.anchor[1] for st in planner]),
                np.array([st.install.monitor_radius(unc) for st in planner]),
                np.array([st.spec.focal_oid for st in planner]),
                meter=self.meter,
            )
            seg = found.seg.tolist()
            for i, st in enumerate(planner):
                rows["planner", st.spec.qid] = found.oid[seg[i]:seg[i + 1]]
        if len(search) < MIN_BATCH:
            return
        focals = np.array([st.spec.focal_oid for st in search])
        qx, qy = grid.positions_of(focals)
        nearest = knn_search_many(
            grid,
            qx,
            qy,
            np.array([st.spec.k + 1 for st in search]),
            focals,
            meter=self.meter,
        )
        seg = nearest.seg.tolist()
        dists = nearest.d.tolist()
        oids = nearest.oid.tolist()
        full = []  # rows that found k+1: their repair scans a circle
        radii = []
        for i, st in enumerate(search):
            lo, hi = seg[i], seg[i + 1]
            rows["knn", st.spec.qid] = list(zip(dists[lo:hi], oids[lo:hi]))
            if hi - lo > st.spec.k:
                full.append(i)
                radii.append(self._candidate_radius(dists[hi - 1]))
        if len(full) < MIN_BATCH:
            return
        found = range_search_many(
            grid, qx[full], qy[full], np.array(radii), focals[full],
            meter=self.meter,
        )
        seg = found.seg.tolist()
        for n, i in enumerate(full):
            rows["cands", search[i].spec.qid] = found.oid[seg[n]:seg[n + 1]]

    def busy(self) -> bool:
        # Unfinished repairs keep the zero-latency subround loop alive;
        # a repair that cannot progress then fails loudly at the
        # engine's subround cap instead of silently going stale.
        # Frozen (focal-down) queries don't hold the loop: nothing can
        # progress them until the focal is heard from again.
        return any(
            (st.dirty or st.phase != _IDLE) and not st.focal_down
            for st in self._states.values()
        )

    def event_idle(self, tick: int) -> bool:
        # With all repairs settled, a delivery-free tick only touches
        # ``degraded`` (which stays all-False: focal_down/_unacked/
        # _suspected are FT-only) and ``answers`` (unchanged) — a
        # provable no-op. FT mode runs per-tick lease sweeps and
        # retransmit timers, and ``record_history`` appends per tick;
        # both need every tick, so they veto skipping.
        if self._ft or self.record_history:
            return False
        return not any(
            st.dirty or st.phase != _IDLE
            for st in self._states.values()
        )

    # -- fault tolerance ---------------------------------------------------

    def _ft_tick(self, tick: int) -> None:
        """Per-tick self-healing: lease sweep, then retransmissions."""
        self._lease_sweep(tick)
        timeout = self.params.ack_timeout
        lease = self.params.lease_ticks
        for key in sorted(self._unacked):
            payload, sent = self._unacked[key]
            if tick - sent >= timeout:
                self._unacked[key] = (payload, tick)
                self.send(key[0], MessageKind.INSTALL_REGION, payload)
                self.channel.stats.record_retransmit(
                    MessageKind.INSTALL_REGION
                )
                if self.telemetry.enabled:
                    self._note_retransmit(
                        tick, MessageKind.INSTALL_REGION, key[0]
                    )
        for oid in sorted(self._probes_in_flight):
            first = self._probe_first.get(oid, tick)
            if tick - first > lease:
                # Repeated probes unanswered for a whole lease: treat
                # like an expired lease even if the object never held
                # a region (it may have been down from the start).
                self._suspect(oid, tick)
                continue
            if tick - self._probe_sent.get(oid, tick) >= timeout:
                self._probe_sent[oid] = tick
                self.send(oid, MessageKind.PROBE, ProbeRequest())
                self.channel.stats.record_retransmit(MessageKind.PROBE)
                if self.telemetry.enabled:
                    self._note_retransmit(tick, MessageKind.PROBE, oid)
        for oid in sorted(self._suspected):
            # Periodic revival probe: a live-but-suspected node (long
            # blackout, lost heartbeats) answers and is welcomed back.
            if tick - self._suspect_probe.get(oid, tick) >= lease:
                self._suspect_probe[oid] = tick
                self.send(oid, MessageKind.PROBE, ProbeRequest())
                self.channel.stats.record_retransmit(MessageKind.PROBE)
                if self.telemetry.enabled:
                    self._note_retransmit(tick, MessageKind.PROBE, oid)

    def _note_retransmit(self, tick: int, kind: MessageKind, dst: int) -> None:
        self.telemetry.emit(tick, "fault.retransmit", kind=kind.name, dst=dst)

    def _lease_sweep(self, tick: int) -> None:
        """Suspect every leased object silent for more than the lease.

        Only objects that hold a region (and focals holding a query
        circle) are lease-bound — they heartbeat one tick before
        expiry, so silence beyond the lease means crash or partition.
        """
        lease = self.params.lease_ticks
        tracked: Set[int] = set()
        for st in self._states.values():
            tracked |= st.informed
            if st.install is not None and not math.isinf(st.install.threshold):
                tracked.add(st.spec.focal_oid)
        for oid in sorted(tracked):
            if oid in self._suspected:
                continue
            if tick - self._last_heard.get(oid, 0) > lease:
                self._suspect(oid, tick)

    def _suspect(self, oid: int, tick: int) -> None:
        """Evict a presumed-crashed object and re-plan around it."""
        if oid in self._suspected:
            return
        self._suspected.add(oid)
        self._suspect_probe[oid] = tick
        tel = self.telemetry
        if tel.enabled:
            tel.emit(tick, "fault.suspect", oid=oid)
        self._probes_in_flight.discard(oid)
        self._probe_sent.pop(oid, None)
        self._probe_first.pop(oid, None)
        for key in [k for k in self._unacked if k[0] == oid]:
            del self._unacked[key]
        for st in self._states.values():
            affected = False
            if st.spec.focal_oid == oid:
                st.focal_down = True
            if oid in st.informed:
                # Evict without a revoke: if the node is actually alive
                # it keeps its region (still sound — the band predicate
                # did not change) and keeps heartbeating, which is what
                # revives it.
                st.informed.discard(oid)
                affected = True
            if oid in self.answers.get(st.spec.qid, ()):
                affected = True
            if (
                oid in st.pending
                or oid in st.cand_ids
                or oid in st.planner_new
            ):
                # An in-flight repair is waiting on the dead: restart
                # it from scratch (minus the suspect) next subround.
                st.pending = st.cand_ids = st.planner_new = _NO_IDS
                st.phase = _IDLE
                affected = True
            if affected and not st.focal_down:
                st.dirty = True
                st.light_ok = False
                st.violators = set()

    def _revive(self, oid: int) -> None:
        """A suspected object spoke: welcome it back.

        A revived focal un-freezes its queries with a full repair. For
        an ordinary object nothing is forced: its report just landed in
        the table, so the per-tick planner — the silent-object safety
        net — re-probes and re-bands it if it is anywhere near a
        boundary, exactly as for any uninformed newcomer.
        """
        self._suspected.discard(oid)
        self._suspect_probe.pop(oid, None)
        tel = self.telemetry
        if tel.enabled:
            tel.emit(self._tick, "fault.revive", oid=oid)
        for st in self._states.values():
            if st.spec.focal_oid == oid:
                st.focal_down = False
                st.dirty = True
                st.light_ok = False
                st.violators = set()

    def _search_exclude(self, focal: int) -> frozenset:
        """Index-search exclusion set: the focal plus any suspects."""
        if self._ft and self._suspected:
            return frozenset(self._suspected | {focal})
        return frozenset((focal,))

    def _send_band(
        self, oids, qid: int, band: int, ax: float, ay: float,
        radius: float,
    ) -> None:
        """Install the same band on every object of ``oids``, in order.
        In fault-tolerant mode each install is stamped with a fresh
        epoch + the lease and registered for retransmission."""
        if not self._ft:
            payload = InstallBand(qid, band, ax, ay, radius)
            self._fan_out(oids, MessageKind.INSTALL_REGION, payload)
            return
        for oid in oids:
            payload = InstallBand(
                qid, band, ax, ay, radius,
                epoch=self._install_seq, lease=self.params.lease_ticks,
            )
            self._install_seq += 1
            self._unacked[(oid, qid)] = (payload, self._tick)
            self.send(oid, MessageKind.INSTALL_REGION, payload)

    # -- state machine -----------------------------------------------------

    def _advance(self, st: _QueryState, tick: int) -> None:
        table = self.table
        focal = st.spec.focal_oid
        # Loop until the state blocks on outstanding probes or finishes
        # the tick's obligations.
        while True:
            if st.phase == _IDLE:
                if self._light_eligible(st):
                    # The light path needs this tick's silent-object
                    # guarantee re-established first: run the planner
                    # against the *old* installation before deciding
                    # the swap from the violator + answer pool alone.
                    if st.planner_tick != tick:
                        st.planner_tick = tick
                        if not self._planner(st, tick):
                            return  # blocked; WAIT_PLANNER resumes us
                        if not st.light_ok:
                            continue  # encroacher: escalate to full
                    st.dirty = False
                    violators = set(st.violators)
                    st.violators = set()
                    st.light_ok = False
                    if not self._begin_light(st, violators, tick):
                        return  # blocked on answer probes
                    if not self._finalize_light(st, tick):
                        st.dirty = True  # infeasible: escalate to full
                        continue
                    return
                if st.dirty:
                    st.dirty = False
                    st.light_ok = False
                    st.violators = set()
                    if focal not in table:
                        # Focal has never reported (first tick ordering):
                        # stay dirty until it appears.
                        st.dirty = True
                        return
                    if not table.is_fresh(focal, tick):
                        self._probe(focal)
                        st.pending = np.array([focal], dtype=np.int64)
                        st.phase = _WAIT_FOCAL
                        return
                    if not self._select_candidates(st, tick):
                        return  # blocked on candidate probes (or trivial)
                    self._finalize(st, tick)
                    return
                if st.planner_tick != tick:
                    st.planner_tick = tick
                    if not self._planner(st, tick):
                        return  # blocked on planner probes
                    continue  # planner may have marked the query dirty
                return
            if st.phase == _WAIT_LIGHT:
                if self._await_fresh(st.pending, tick):
                    return
                if not self._finalize_light(st, tick):
                    st.dirty = True
                    st.phase = _IDLE
                    continue
                return
            if st.phase == _WAIT_FOCAL:
                if self._await_fresh(st.pending, tick):
                    return
                if not self._select_candidates(st, tick):
                    return
                self._finalize(st, tick)
                return
            if st.phase == _WAIT_CANDS:
                if self._await_fresh(st.pending, tick):
                    return
                self._finalize(st, tick)
                return
            if st.phase == _WAIT_PLANNER:
                if self._await_fresh(st.pending, tick):
                    return
                self._resolve_planner(st, tick)
                if st.dirty:
                    continue  # an encroacher forced a repair
                return
            raise ProtocolError(f"unknown phase {st.phase}")

    # -- repair pipeline -------------------------------------------------------

    def _await_fresh(self, oids: np.ndarray, tick: int) -> bool:
        """True while any of ``oids`` lacks a fresh position.

        In fault-tolerant mode stale stragglers are re-probed: a tick
        may have ended mid-wait (stall-break on a lost message), which
        expires the per-tick freshness of members whose replies *did*
        arrive — without a new probe they would block the wait forever.
        """
        stale = self.table.stale(oids, tick)
        if not stale.shape[0]:
            return False
        if self._ft:
            for oid in sorted(stale.tolist()):
                self._probe(oid)
        return True

    def _probe(self, oid: int) -> None:
        """Ask ``oid`` for its exact position, once per outstanding need.

        Two queries wanting the same object's position in the same
        round share a single probe: both block on the object's
        freshness, which the one reply establishes.
        """
        if self.table.is_fresh(oid, self._tick):
            return
        if oid in self._probes_in_flight:
            return
        self._probes_in_flight.add(oid)
        if self._ft:
            self._probe_sent[oid] = self._tick
            self._probe_first[oid] = self._tick
        self._fan_out((oid,), MessageKind.PROBE, ProbeRequest())

    def _probe_stale(self, oids: np.ndarray) -> np.ndarray:
        """:meth:`_probe` every stale id of ``oids``, in order; returns
        the stale subset (what the caller must wait on).

        Two mask ops — not fresh this tick, not already in flight — and
        one run of probes into the subround's ``PROBE`` flight
        (:meth:`_fan_out`).
        """
        tick = self._tick
        stale = self.table.stale(oids, tick)
        todo = self._probes_in_flight.claim(stale).tolist()
        if todo:
            if self._ft:
                for oid in todo:
                    self._probe_sent[oid] = tick
                    self._probe_first[oid] = tick
            self._fan_out(todo, MessageKind.PROBE, ProbeRequest())
        return stale

    def _fan_out(self, oids, kind: MessageKind, payload) -> None:
        """Send the same ``payload`` to every object of ``oids``, in
        iteration order: one run of the subround's outbox while
        :meth:`on_subround` holds one, else one message at a time."""
        if self._outbox is None:
            for oid in oids:
                self.send(oid, kind, payload)
        elif oids:
            self._outbox[kind].append((oids, payload))

    def _candidate_radius(self, r_k1: float) -> float:
        """The probe radius of a full repair whose ``k+1``-th nearest
        reported position lies ``r_k1`` away (module docstring, step 2)."""
        return r_k1 + 2.0 * self.params.uncertainty + self.params.s_cap

    def _select_candidates(self, st: _QueryState, tick: int) -> bool:
        """Choose the probe set; returns False when blocked or trivial.

        On the trivial path (fewer than ``k+1`` known objects) this
        finalizes directly (everyone is the answer, nothing can displace
        them: no bands) and returns False so the caller stops.
        """
        spec = st.spec
        table = self.table
        qx, qy = table.last_position(spec.focal_oid)
        exclude = self._search_exclude(spec.focal_oid)
        reported = self._rows.pop(("knn", spec.qid), None)
        if reported is None:
            reported = knn_search(
                table.grid, qx, qy, spec.k + 1, exclude=exclude,
                meter=self.meter,
            )
        if len(reported) <= spec.k:
            inst = Installation(
                (qx, qy), tuple(reported), math.inf, self.params.s_cap
            )
            self._install(st, inst, _NO_IDS, tick)
            st.phase = _IDLE
            return False
        radius = self._candidate_radius(reported[-1][0])
        if self.ownership_probe is not None:
            # Ownership seam: a full repair reads the table over this
            # circle — the sharded tier borrows candidates from every
            # neighbor shard the circle overlaps.
            self.ownership_probe.repair_scope(spec.qid, qx, qy, radius)
        st.cand_ids = self._rows.pop(("cands", spec.qid), None)
        if st.cand_ids is None:
            _, st.cand_ids = range_search_arrays(
                table.grid, qx, qy, radius, exclude=exclude, meter=self.meter
            )
        st.pending = self._probe_stale(st.cand_ids)
        st.phase = _WAIT_CANDS  # nothing stale: fall straight through
        return not st.pending.shape[0]

    def _finalize(self, st: _QueryState, tick: int) -> None:
        plan = self._rows.pop(("fin", st.spec.qid), None)
        if plan is None:
            (plan,) = self._plan_full([st])
        self._install(st, *plan, tick)
        st.phase = _IDLE

    def _exact_dists(self, ids: np.ndarray, qx, qy) -> np.ndarray:
        """The ``dist()`` recipe from ``(qx, qy)`` — one point, or one
        per id — to each id's table position; DIST_CALC per id."""
        xs, ys = self.table.grid.positions_of(ids)
        ddx = xs - qx
        ddy = ys - qy
        self.meter.charge(CostMeter.DIST_CALC, ids.shape[0])
        return np.sqrt(ddx * ddx + ddy * ddy)

    def _plan_full(
        self, states: List[_QueryState]
    ) -> List[Tuple[Installation, np.ndarray]]:
        """Rank, plan and band the full repairs of ``states`` in one
        segmented pass: ``(installation, banded outsider ids)`` per row.

        Row ``i`` ranks ``states[i].cand_ids`` by exact distance from
        its focal, takes ``t``, ``s_eff`` and the monitor zone with
        :func:`~repro.core.regions.plan_installation`'s expressions and
        bands the ranked tail past ``k`` within the zone (farther ones
        are the per-tick planner's)."""
        grid = self.table.grid
        n = len(states)
        focals = np.array([st.spec.focal_oid for st in states], np.int64)
        qx, qy = grid.positions_of(focals)
        k = np.array([st.spec.k for st in states], np.int64)
        row = np.repeat(np.arange(n), [st.cand_ids.shape[0] for st in states])
        ids = np.concatenate([st.cand_ids for st in states])
        d = self._exact_dists(ids, qx[row], qy[row])
        seg, d, ids = _ranked(n, row, d, ids)
        lo, hi = seg[:-1], seg[1:]
        full = np.flatnonzero(hi - lo > k)  # the rest are trivial
        d_k, d_k1 = d[lo[full] + k[full] - 1], d[lo[full] + k[full]]
        t = np.full(n, math.inf)
        s_eff = np.full(n, self.params.s_cap, dtype=np.float64)
        t[full] = (d_k + d_k1) / 2.0
        s_eff[full] = np.minimum(self.params.s_cap, (d_k1 - d_k) / 2.0)
        zone = t + s_eff + self.params.uncertainty
        tail = np.arange(ids.shape[0]) - lo[row] >= k[row]  # row is sorted
        banded = np.bincount(row[tail & (d <= zone[row])], minlength=n)
        plans = []
        for i, a, b, x, y, t_i, s_i in zip(
            lo.tolist(), np.minimum(lo + k, hi).tolist(), banded.tolist(),
            qx.tolist(), qy.tolist(), t.tolist(), s_eff.tolist(),
        ):
            answer = tuple(zip(d[i:a].tolist(), ids[i:a].tolist()))
            inst = Installation((x, y), answer, t_i, s_i)
            plans.append((inst, ids[a:a + b]))
        return plans

    def _install(
        self, st: _QueryState, inst: Installation, banded, tick: int
    ) -> None:
        """Send bands/revokes/answer for a fresh installation, outsider
        bands to ``banded``. A trivial one (everyone is the answer) needs
        no band; leftovers from earlier installations are revoked."""
        qid = st.spec.qid
        focal = st.spec.focal_oid
        ax, ay = inst.anchor
        trivial = math.isinf(inst.threshold)
        banded_outsiders = banded.tolist()  # empty when trivial
        answer_ids = inst.answer_ids
        new_informed = (
            set() if trivial else set(answer_ids) | set(banded_outsiders)
        )
        if not trivial:
            self._send_band(
                answer_ids, qid, BAND_ANSWER, ax, ay, inst.answer_band_radius
            )
            self._send_band(
                banded_outsiders, qid, BAND_OUTSIDER, ax, ay,
                inst.outsider_band_radius,
            )
            self._send_band(
                (focal,), qid, BAND_QUERY_CIRCLE, ax, ay, inst.s_eff
            )
        revoked = st.informed - new_informed
        if self._ft:  # only the fault-tolerant build registers installs
            for oid in revoked:
                self._unacked.pop((oid, qid), None)
        self._fan_out(revoked, MessageKind.REVOKE_REGION, RevokeBand(qid))
        if trivial and st.install is not None and not math.isinf(
            st.install.threshold
        ):
            # The focal node still holds a query circle from the prior
            # non-trivial installation; nothing will ever replace it on
            # the trivial path, so take it down explicitly.
            if self._ft:
                self._unacked.pop((focal, qid), None)
            self._fan_out((focal,), MessageKind.REVOKE_REGION, RevokeBand(qid))
        st.informed = new_informed
        new_ids = list(answer_ids)
        if set(self.answers.get(qid, ())) != set(answer_ids):
            self._fan_out(
                (focal,), MessageKind.ANSWER_PUSH, AnswerPush(qid, answer_ids)
            )
        self.publish(qid, new_ids)
        st.install = inst
        st.pending = st.cand_ids = _NO_IDS
        self.repair_count[qid] += 1
        self.meter.charge(CostMeter.REPAIR)
        tel = self.telemetry
        if tel.enabled:
            tel.emit(
                tick,
                "server.repair",
                qid=qid,
                mode="trivial" if trivial else "full",
                answer=new_ids,
            )

    # -- light (incremental) repairs ------------------------------------------

    def _begin_light(
        self, st: _QueryState, violators: Set[int], tick: int
    ) -> bool:
        """Stage a light repair: pool = current answer + violators.

        Violators carried their exact positions in their reports;
        answer members may need probing. Returns False while blocked.
        """
        assert st.install is not None
        if self.ownership_probe is not None:
            # A light repair re-reads the answer pool, all of it inside
            # the old band boundary around the anchor.
            ax, ay = st.install.anchor
            self.ownership_probe.repair_scope(
                st.spec.qid, ax, ay, st.install.threshold + st.install.s_eff
            )
        pool = set(st.install.answer_ids) | violators
        if self._ft and self._suspected:
            pool -= self._suspected
            violators = violators - self._suspected
        st.light_violators = violators
        st.cand_ids = np.array(sorted(pool), dtype=np.int64)
        st.pending = self._probe_stale(
            np.append(st.cand_ids, st.spec.focal_oid)
        )
        if st.pending.shape[0]:
            st.phase = _WAIT_LIGHT
            return False
        return True

    def _finalize_light(self, st: _QueryState, tick: int) -> bool:
        """Re-rank the pool and swap bands minimally.

        Soundness: after this tick's planner pass, every object outside
        the pool — intact outsiders, planner-banded entrants, and the
        still-silent — is at true distance >= t_old + s_old from the
        anchor. The pool therefore contains the true kNN, and any new
        threshold t' with ``t' + s <= t_old + s_old`` keeps every
        untouched band sufficient. Returns False when no such t' exists
        (the caller escalates to a full repair).
        """
        inst = st.install
        assert inst is not None
        spec = st.spec
        ax, ay = inst.anchor
        t_old, s_old, s_cap = inst.threshold, inst.s_eff, self.params.s_cap
        ids = st.cand_ids
        d = self._exact_dists(ids, ax, ay)
        st.pending = st.cand_ids = _NO_IDS
        st.phase = _IDLE
        if ids.shape[0] < spec.k:
            return False  # population shrank below k: full repair
        order = _rank(d, ids)
        ds, ids = d[order], ids[order]
        plan = plan_installation(inst.anchor, ds, ids, spec.k, s_cap)
        new_answer = plan.answer
        dropped = ids[spec.k:].tolist()
        # The new bands must fit strictly inside the old ones so every
        # untouched band keeps implying the new invariant:
        #   answers <= t' - s_b, with t' - s_b >= t_old - s_old;
        #   dropped/outsiders >= t' + s_b, with t' + s_b <= t_old + s_old.
        lower = max(t_old - s_old, new_answer[-1][0])
        upper = min(t_old + s_old, float(ds[spec.k]) if dropped else math.inf)
        if upper < lower:
            return False  # the swap does not fit inside the old bands
        s_new = min(s_cap, (upper - lower) / 2.0)
        # The query stays anchored at A; its current drift must fit the
        # new band slack (the focal was probed in _begin_light).
        (drift,) = self._exact_dists(np.array([spec.focal_oid]), ax, ay)
        if drift > s_new:
            return False  # not enough slack to absorb the query drift
        t_new = (lower + upper) / 2.0
        qid = spec.qid
        old_answer = set(inst.answer_ids)
        new_ids = [oid for _, oid in new_answer]
        new_set = set(new_ids)
        # Entrants need an answer band; violators staying in the answer
        # need theirs re-armed (a violated band stays silent until
        # re-installed).
        light = st.light_violators
        self._send_band(
            [o for o in new_ids if o not in old_answer or o in light],
            qid, BAND_ANSWER, ax, ay, t_new - s_new,
        )
        # Everyone dropped from the pool either just left the answer or
        # violated inward without making the cut; both need a
        # (re-armed) outsider band at the new boundary.
        self._send_band(dropped, qid, BAND_OUTSIDER, ax, ay, t_new + s_new)
        # Refresh (and re-arm) the query circle at the new slack.
        self._send_band(
            (spec.focal_oid,), qid, BAND_QUERY_CIRCLE, ax, ay, s_new
        )
        if old_answer != new_set:
            self._fan_out(
                (spec.focal_oid,),
                MessageKind.ANSWER_PUSH,
                AnswerPush(qid, tuple(new_ids)),
            )
        self.publish(qid, new_ids)
        # Encroacher-derived pool members were uninformed until now.
        st.informed.update(new_set)
        st.informed.update(dropped)
        st.light_violators = set()
        st.install = Installation(inst.anchor, plan.answer, t_new, s_new)
        self.repair_count[qid] += 1
        self.light_repair_count[qid] += 1
        self.meter.charge(CostMeter.REPAIR)
        tel = self.telemetry
        if tel.enabled:
            tel.emit(
                tick, "server.repair", qid=qid, mode="light", answer=new_ids
            )
        return True

    # -- planner (silent-object safety) ------------------------------------

    def _planner(self, st: _QueryState, tick: int) -> bool:
        """Scan for uninformed objects near the boundary; returns False
        when blocked on probes."""
        inst = st.install
        if inst is None or math.isinf(inst.threshold):
            return True
        zone = inst.monitor_radius(self.params.uncertainty)
        ax, ay = inst.anchor
        hits = self._rows.pop(("planner", st.spec.qid), None)
        if hits is None:
            _, hits = range_search_arrays(
                self.table.grid, ax, ay, zone,
                exclude=self._search_exclude(st.spec.focal_oid),
                meter=self.meter,
            )
        informed = st.informed
        new = [oid for oid in hits.tolist() if oid not in informed]
        if not new:
            return True
        st.planner_new = np.array(new, dtype=np.int64)
        st.pending = self._probe_stale(st.planner_new)
        if st.pending.shape[0]:
            st.phase = _WAIT_PLANNER
            return False
        self._resolve_planner(st, tick)
        return True

    def _resolve_planner(self, st: _QueryState, tick: int) -> None:
        """All planner probes answered: band the harmless, repair on
        true encroachers."""
        inst = st.install
        if inst is None:
            raise ProtocolError("planner resolution without installation")
        ax, ay = inst.anchor
        boundary = inst.outsider_band_radius
        new = st.planner_new
        inside = self._exact_dists(new, ax, ay) < boundary
        encroachers, harmless = new[inside].tolist(), new[~inside].tolist()
        st.pending = st.planner_new = _NO_IDS
        st.phase = _IDLE
        if encroachers:
            # Encroachers are exactly-known entrants: they qualify for
            # the light path unless a heavier trigger (query move) is
            # already pending this round.
            if not st.dirty:
                st.light_ok = True
            st.violators.update(encroachers)
            st.dirty = True
            return
        self._send_band(
            harmless, st.spec.qid, BAND_OUTSIDER, ax, ay, boundary
        )
        st.informed.update(harmless)
        self.meter.charge(CostMeter.BOOKKEEPING, len(harmless))
