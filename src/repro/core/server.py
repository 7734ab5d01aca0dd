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

``WAIT_FOCAL`` / ``WAIT_CANDS`` / ``WAIT_PLANNER`` / ``WAIT_LIGHT``
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

Queries are rows (:mod:`repro.core.rows`): the per-tick fields are
columns indexed by registration order, the pending and candidate ids
one flat id array with offsets each, and
:meth:`DknnServer.on_subround` advances every query step by step (its
docstring gives the order rules).

Exactness (zero-latency mode): by the band invariant in
:mod:`repro.core.regions`, between repairs the published answer remains
a valid kNN set; each repair re-establishes it from exact positions.
Property and integration tests check the published answer against
brute force over ground truth at every tick.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.params import DknnParams
from repro.core.protocol import (
    BAND_ANSWER,
    BAND_OUTSIDER,
    BAND_QUERY_CIRCLE,
    AnswerPush,
    InstallBand,
    ProbeRequest,
    RevokeBand,
)
from repro.core.regions import Installation, plan_installation
from repro.core.rows import (
    IDLE,
    NO_IDS,
    WAIT_CANDS,
    WAIT_FOCAL,
    WAIT_LIGHT,
    WAIT_PLANNER,
    InFlight,
    QueryRows,
    QueryState,
    lengths,
    offsets,
)
from repro.errors import ConfigError, ProtocolError
from repro.geometry import Rect
from repro.index.knn import (
    _rank,
    _ranked,
    knn_search,
    knn_search_many,
    range_search_arrays,
    range_search_many,
    range_search_written,
)
from repro.metrics.cost import CostMeter
from repro.net.message import SERVER_ID, Message, MessageKind
from repro.net.plane import MIN_BATCH, REPORT_KINDS, ColumnarBatch
from repro.server.engine import BaseServer
from repro.server.object_table import ObjectTable
from repro.server.query_table import QuerySpec

__all__ = ["DknnServer"]

#: The steps one query can take in a subround, in the only order it can
#: take them, each at most once: resolve an answered planner wait, scan
#: the monitor zone (and resolve), begin a light repair, finalize it,
#: start a full repair (focal probe, ``k+1`` search, candidate probes),
#: finalize it. ``(row, step)`` orders a subround's side effects as
#: the per-query walk in registration order would make them.
_RESOLVE, _SCAN, _LIGHT, _LIGHT_FIN, _FULL, _FIN = range(6)
_STEPS = 6
#: the step a waiting phase resumes at.
_RESUME = {
    WAIT_PLANNER: _RESOLVE,
    WAIT_LIGHT: _LIGHT_FIN,
    WAIT_FOCAL: _FULL,
    WAIT_CANDS: _FIN,
}

#: the downlink kinds a subround sends, in the order its outbox leaves.
_FLUSH_ORDER = (
    MessageKind.PROBE,
    MessageKind.INSTALL_REGION,
    MessageKind.REVOKE_REGION,
    MessageKind.ANSWER_PUSH,
)


def _key(row: int, step: int) -> int:
    """The release key of ``row``'s effects at ``step``; a probe run is
    ``key + 1``: within one step a query's probes leave last."""
    return 2 * (row * _STEPS + step)


class DknnServer(BaseServer):
    """Central coordinator of the distributed MkNN protocol, fault-free;
    :class:`~repro.core.hardened.HardenedDknnServer` is the self-healing
    build, through the hooks marked below."""

    #: does this class run the self-healing half?
    hardened = False

    def __init__(
        self,
        universe: Rect,
        params: DknnParams = DknnParams(),
        record_history: bool = False,
    ) -> None:
        if params.fault_tolerant and not self.hardened:
            raise ConfigError(
                "params.fault_tolerant needs HardenedDknnServer "
                "(repro.core.hardened); DknnServer is the fault-free protocol"
            )
        super().__init__(record_history=record_history)
        self.params = params
        self.table = ObjectTable(
            universe, params.grid_cells, params.theta, meter=self.meter
        )
        #: the queries as rows; ``_states`` their views by query id.
        self._q = QueryRows()
        self._states: Dict[int, QueryState] = self._q.by_qid
        self._tick = 0
        self._probes_in_flight = InFlight()
        #: inside :meth:`on_subround`: the subround's side effects,
        #: ``(key, fn, args)``, its probe claims, ``(keys, ids)``, and
        #: its pending / candidate writes, ``(rows, seg, ids)``; None:
        #: act at once.
        self._ops: Optional[List[Tuple[int, Callable, tuple]]] = None
        self._claims: List[Tuple[np.ndarray, np.ndarray]] = []
        self._writes: Optional[Tuple[List, List]] = None
        #: the downlinks :meth:`on_subround` holds back, ``kind ->
        #: [(oids, payload), ...]`` in send order; None: send at once.
        self._outbox: Optional[Dict[MessageKind, List[Tuple]]] = None
        #: repairs performed per query (light + full), and the light
        #: subset (the E13 ablation reports the ratio).
        self.repair_count: Dict[int, int] = {}
        self.light_repair_count: Dict[int, int] = {}
        #: the object table's mark at which :meth:`event_idle` found the
        #: rows settled; None: look again
        self._idle_at: Optional[int] = None

    # -- registration -----------------------------------------------------

    def register_query(self, spec: QuerySpec) -> None:
        super().register_query(spec)
        self._q.add(spec)
        self.repair_count[spec.qid] = 0
        self.light_repair_count[spec.qid] = 0

    def export_query_state(self, qid: int) -> Dict:
        """Handoff snapshot: the query's row in wire-sizable form —
        installation (anchor, threshold, slack, answer), the informed
        set (the band registry the new owner must serve violations
        against), violators and phase flags."""
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
        if kind in (MessageKind.LOCATION_UPDATE, MessageKind.PROBE_REPLY):
            self.table.report(msg.src, payload.x, payload.y, self._tick)
            self._probes_in_flight.discard(msg.src)
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
        row = state.row
        violation = kind == MessageKind.VIOLATION
        if not self._q.dirty[row]:
            # First trigger this round decides repairability;
            # object violations start light, anything else doesn't.
            self._q.light_ok[row] = violation
        elif not violation:
            self._q.light_ok[row] = False
        self._q.dirty[row] = True
        if violation:
            state.violators.add(src)
        tel = self.telemetry
        if tel.enabled:
            event = "server.violation" if violation else "server.query_move"
            tel.emit(self._tick, event, qid=qid, oid=src)

    # -- columnar ingest ------------------------------------------------------

    def on_uplink_batch(self, batch: ColumnarBatch) -> None:
        """Ingest one columnar uplink batch: a report flight
        (:meth:`_ingest_reports`), or a ``LOCATION_UPDATE`` /
        ``PROBE_REPLY`` flight; any other kind raises.

        Positional reports touch the object table and probe
        bookkeeping, and their per-message handling commutes across
        sources, so one vectorized ``report_batch`` in column order
        plus one in-flight scatter is indistinguishable from the scalar
        per-message path. A subround's probes leave as one ``PROBE``
        flight (:meth:`on_subround`), so their replies come back as one
        ``PROBE_REPLY`` batch.
        """
        if batch.kind is None:
            self._ingest_reports(batch)
        elif batch.kind in (MessageKind.LOCATION_UPDATE, MessageKind.PROBE_REPLY):
            self.table.report_batch(batch.srcs, batch.xs, batch.ys, self._tick)
            self._probes_in_flight.release(batch.srcs)
        else:
            super().on_uplink_batch(batch)

    def _ingest_reports(self, batch: ColumnarBatch) -> None:
        """:meth:`on_message` over a report flight's rows: the grid
        written once per sender, at its last row's position, the meter
        charged once per row (the scalar path's units), the location
        rows' probes answered, and the other rows' triggers, in row
        order."""
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
        self._probes_in_flight.release(srcs[~named])
        for code, qid, src in zip(
            codes[named].tolist(), batch.qids[named].tolist(),
            srcs[named].tolist(),
        ):
            self._trigger(REPORT_KINDS[code], qid, src)

    # -- per-subround driving -----------------------------------------------

    def on_tick_start(self, tick: int) -> None:
        super().on_tick_start(tick)
        self._tick = tick
        self._idle_at = None  # the tick's hooks may change the rows

    def on_tick_end(self, tick: int) -> None:
        # a query is degraded while its focal is down or a repair is
        # unfinished: its published answer carries no guarantee
        flags = (
            self._q.focal_down | self._q.dirty | (self._q.phase != IDLE)
        ).tolist()
        for st, flag in zip(self._q.views, flags):
            self.degraded[st.spec.qid] = flag
        super().on_tick_end(tick)

    def on_subround(self, tick: int) -> None:
        """Advance every query through the steps it can take this
        subround: each step once, over all the rows at it.

        The steps, in the order one query takes them (:data:`_STEPS`):
        resolve an answered planner wait; scan the monitor zone (one
        many-row range search) and resolve the hits; begin a light
        repair, then finalize it; start a full repair (focal probe,
        one many-row ``k+1`` search, one many-row candidate scan,
        candidate probes); finalize full repairs (one
        :meth:`_plan_full` pass). A row moves on to its next step in
        the same subround unless it blocks on probes; a step with no
        rows costs nothing. A search with fewer than ``MIN_BATCH``
        rows (the many-row kernels lose below that), or under the
        fault-tolerant build's suspect exclusion sets, runs per row.

        The steps run in step order, not query order, yet everything
        that crosses queries leaves in the order a walk over the
        queries in registration order would produce: each effect is
        recorded under its ``(row, step)`` key (:func:`_key`) and
        released, sorted by key, when the steps are done. That covers
        probe claims (the first claimer in key order sends the probe;
        a query waits on every stale id it asked for either way), sends
        (into the outbox or, at once, to the channel), publications,
        ``repair_scope`` calls on the ownership probe and
        ``server.repair`` events. Two facts make the deferral exact:
        the grid is read-only inside a subround (reports are ingested
        between subrounds, and no step writes the table, positions or
        freshness), and one query's steps never read another query's
        row. The per-query walk this reproduces is the reference
        server of the differential tests.

        Every downlink waits in an outbox and leaves at the end, by
        kind in ``_FLUSH_ORDER`` and in key order within a kind
        (:mod:`repro.net.plane` says why that is safe): one batch per
        kind with the plane open, else one by one, so the per-object
        reference sends what the build sends. Sends leave one by one in
        key order where :meth:`_sends_per_message` says so.
        """
        self._tick = tick
        q = self._q
        if not (
            ~q.focal_down
            & (q.dirty | (q.phase != IDLE) | (q.planner_tick != tick))
        ).any():
            return  # no row has a step to take
        sim = self.sim
        if sim is not None and not self._sends_per_message(sim):
            self._outbox = {kind: [] for kind in _FLUSH_ORDER}
        self._ops, self._claims, self._writes = [], [], ([], [])
        self._steps(tick)
        (pend, cand), self._writes = self._writes, None
        if pend:
            self._q.pend.put(pend)
        if cand:
            self._q.cand.put(cand)
        self._release()
        if self._outbox is not None:
            self._flush(sim.plane_open())

    def _sends_per_message(self, sim) -> bool:
        """Hook: must a subround's sends leave one by one? Where the
        transport decides per message."""
        return sim.transport_per_message()

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

    def busy(self) -> bool:
        # Unfinished repairs keep the zero-latency subround loop alive;
        # a repair that cannot progress then fails loudly at the
        # engine's subround cap instead of silently going stale.
        # Frozen (focal-down) queries don't hold the loop: nothing can
        # progress them until the focal is heard from again.
        q = self._q
        return bool(
            ((q.dirty | (q.phase != IDLE)) & ~q.focal_down).any()
        )

    def event_idle(self, tick: int) -> bool:
        # With all repairs settled and no zone scan owed, a
        # delivery-free tick only touches ``degraded`` (which stays
        # all-False) and ``answers`` (unchanged) — a provable no-op.
        # ``record_history`` appends per tick, so it vetoes skipping.
        if self.record_history:
            return False
        # A banded row owes its zone a scan when it has not scanned
        # this installation (-1) or objects were written since: the
        # tick's scan may find an uninformed one there and probe it.
        # The rows change only in a full tick's hooks, all after its
        # ``on_tick_start``, and a write moves the table's mark: a
        # settled answer holds across the skipped ticks that follow.
        mark = self.table.mark()
        if self._idle_at != mark:
            q = self._q
            owed = (
                q.dirty | (q.phase != IDLE)
                | (q.banded & (q.scan_mark != mark))
            )
            self._idle_at = None if owed.any() else mark
        return self._idle_at == mark

    # -- the subround's effects, in walk order ---------------------------

    def _emit(self, key: int, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at once, or — inside :meth:`on_subround` —
        when the subround releases ``key``."""
        if self._ops is None:
            fn(*args)
        else:
            self._ops.append((key, fn, args))

    def _write(self, rows: np.ndarray, pending=None, cand=None) -> None:
        """Set the pending / candidate runs of ``rows`` — ``(seg, ids)``
        each, None: keep them — at once, or, inside
        :meth:`on_subround`, when the steps are done (no step reads a
        run another step of the subround wrote)."""
        if not rows.shape[0]:
            return
        for i, runs in enumerate((pending, cand)):
            if runs is None:
                continue
            if self._writes is None:
                (self._q.pend, self._q.cand)[i].put([(rows, *runs)])
            else:
                self._writes[i].append((rows, *runs))

    def _clear(self, rows: np.ndarray, cand: bool = True) -> None:
        """No pending (and candidate) ids for ``rows``."""
        empty = (np.zeros(rows.shape[0] + 1, dtype=np.int64), NO_IDS)
        self._write(rows, empty, empty if cand else None)

    def _claim(self, keys, oids: np.ndarray) -> None:
        """Probe each id of ``oids`` (stale, unique per query) unless a
        probe is in flight: at once, as one run, or — inside
        :meth:`on_subround` — by the first claim in key order, ``keys``
        the key of each id (or one for all)."""
        if self._ops is None:
            self._send_probes(self._probes_in_flight.claim(oids).tolist())
        elif oids.shape[0]:
            if np.isscalar(keys):
                keys = np.full(oids.shape[0], keys)
            self._claims.append((keys, oids))

    def _send_probes(self, oids: List[int]) -> None:
        if oids:
            self._fan_out(oids, MessageKind.PROBE, ProbeRequest())

    def _release(self) -> None:
        """Run the subround's effects in key order, its probe claims
        settled first: a claim's winners are its ids no earlier claim
        (in key order) holds and no probe from before the subround;
        each key's winners leave as one run."""
        ops, self._ops = self._ops, None
        claims, self._claims = self._claims, []
        if not (ops or claims):
            return
        if claims:
            keys = np.concatenate([keys for keys, _ in claims])
            flat = np.concatenate([ids for _, ids in claims])
            if (keys[1:] < keys[:-1]).any():
                order = np.argsort(keys, kind="stable")
                keys, flat = keys[order], flat[order]
            won = np.flatnonzero(self._probes_in_flight.first_free(flat))
            probed = flat[won]
            self._probes_in_flight.claim(probed)
            keys = keys[won]
            first = np.ones(keys.shape[0], dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            starts = first.nonzero()[0].tolist()
            probed = probed.tolist()
            for a, b, key in zip(
                starts, starts[1:] + [len(probed)], keys[starts].tolist()
            ):
                ops.append((key + 1, self._send_probes, (probed[a:b],)))
        ops.sort(key=itemgetter(0))
        for _, fn, args in ops:
            fn(*args)

    def _search_exclude(self, focal: int) -> frozenset:
        """Hook: the ids a per-row index search skips."""
        return frozenset((focal,))

    def _per_row(self, rows: np.ndarray) -> bool:
        """Hook: search ``rows`` one query at a time? Below
        ``MIN_BATCH`` rows the many-row kernels lose."""
        return rows.shape[0] < MIN_BATCH

    def _live(self, oids: Set[int]) -> Set[int]:
        """Hook: the ids of ``oids`` a light repair may pool."""
        return oids

    def _reprobe(self, waiting, blocked, stale) -> None:
        """Hook: the ``blocked`` rows of ``waiting`` wait on the pending
        ids ``stale`` (a mask over every pending id) marks."""

    # -- sends -------------------------------------------------------------

    def _send_band(
        self, oids, qid: int, band: int, ax: float, ay: float,
        radius: float,
    ) -> None:
        """Install the same band on every object of ``oids``, in order."""
        payload = InstallBand(qid, band, ax, ay, radius)
        self._fan_out(oids, MessageKind.INSTALL_REGION, payload)

    def _revoke(self, oids, qid: int) -> None:
        """Take ``qid``'s band off every object of ``oids``."""
        self._fan_out(oids, MessageKind.REVOKE_REGION, RevokeBand(qid))

    def _fan_out(self, oids, kind: MessageKind, payload) -> None:
        """Send the same ``payload`` to every object of ``oids``, in
        iteration order: one run of the subround's outbox while
        :meth:`on_subround` holds one, else one message at a time."""
        if self._outbox is None:
            for oid in oids:
                self.send(oid, kind, payload)
        elif oids:
            self._outbox[kind].append((oids, payload))

    # -- the steps -----------------------------------------------------------

    def _steps(self, tick: int) -> None:
        """Every live query's steps of this subround (:meth:`on_subround`)."""
        live = ~self._q.focal_down
        waits = live & (self._q.phase != IDLE)
        idle = np.flatnonzero(live & ~waits)
        resumed = self._resume(np.flatnonzero(waits), tick)
        rows = resumed[WAIT_PLANNER]
        if rows.shape[0]:
            self._resolve(rows, _RESOLVE)
            idle = np.append(idle, rows[self._q.dirty[rows]])
        # A resumed light repair that fails goes back to idle dispatch:
        # a trigger since it began may make the light path eligible
        # again. It has had no effect yet this subround, so any step's
        # key still orders it.
        rows = resumed[WAIT_LIGHT]
        if rows.shape[0]:
            idle = np.append(
                idle, self._light_fails(rows, *self._q.cand.gather(rows))
            )
        scan, light, full = self._dispatch(idle, tick)
        if scan.shape[0]:
            self._q.planner_tick[scan] = tick
            _, more_light, more_full = self._dispatch(self._scan(scan), tick)
            light = np.append(light, more_light)
            full = np.append(full, more_full)
        if light.shape[0]:
            failed = self._light_fails(*self._begin_light(light))
            full = np.append(full, failed)
        ready = []
        rows = resumed[WAIT_CANDS]
        if rows.shape[0]:
            ready.append((rows, *self._q.cand.gather(rows)))
        select = np.append(resumed[WAIT_FOCAL], self._start_full(full, tick))
        if select.shape[0]:
            ready.append(self._select(select))
        ready = [group for group in ready if group[0].shape[0]]
        if ready:
            self._finish(ready)

    def _resume(self, waiting: np.ndarray, tick: int) -> Dict[int, np.ndarray]:
        """The rows of ``waiting`` whose pending ids are all fresh, by
        phase: one freshness pass over every pending id."""
        if not waiting.shape[0]:
            return {p: waiting for p in _RESUME}
        pend = self._q.pend
        blocked = np.zeros(len(self._q.views), dtype=bool)
        if pend.ids.shape[0]:
            stale = self.table.stale_mask(pend.ids, tick)
            blocked[pend.rows()[stale]] = True
            self._reprobe(waiting, blocked, stale)
        ready = waiting[~blocked[waiting]]
        phase = self._q.phase[ready]
        return {p: ready[phase == p] for p in _RESUME}

    def _light_eligible(self, rows: np.ndarray) -> np.ndarray:
        """Would idle ``rows`` take the light repair path right now?"""
        if not self.params.incremental:
            return np.zeros(rows.shape[0], dtype=bool)
        q = self._q
        return q.dirty[rows] & q.light_ok[rows] & q.banded[rows]

    def _dispatch(self, rows: np.ndarray, tick: int) -> Tuple[np.ndarray, ...]:
        """Idle ``rows`` by their next step: ``(scan, light, full)``.
        The planner runs once per tick — before a light repair, whose
        swap is sound only once this tick's silent-object guarantee is
        re-established, or on a query with nothing owed; a dirty query
        off the light path repairs in full."""
        dirty = self._q.dirty[rows]
        light = self._light_eligible(rows)
        due = self._q.planner_tick[rows] != tick
        return (
            rows[due & (light | ~dirty)],
            rows[light & ~due],
            rows[dirty & ~light],
        )

    def _probe_runs(
        self, rows: np.ndarray, step: int, seg: np.ndarray, ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Claim the stale ids of each row's run (one freshness pass):
        ``(seg, ids)`` of what each row now waits on."""
        stale = self.table.stale_mask(ids, self._tick)
        owner = np.repeat(np.arange(rows.shape[0]), lengths(seg))[stale]
        pending = ids[stale]
        self._claim(_key(rows, step)[owner], pending)
        return offsets(np.bincount(owner, minlength=rows.shape[0])), pending

    # -- planner (silent-object safety) ------------------------------------

    def _scan(self, rows: np.ndarray) -> np.ndarray:
        """The planner over ``rows``: scan each banded row's monitor zone
        for uninformed objects and probe the stale ones. Returns the
        rows not left waiting (no hit, or hits resolved at once)."""
        q = self._q
        qs = q.views
        banded = rows[q.banded[rows]]
        if not banded.shape[0]:
            return rows
        mark = self._zone_mark()
        seg, hits = self._zone_hits(banded)
        seg, hits = seg.tolist(), hits.tolist()
        found, lens, new = [], [], []
        for row, a, b in zip(banded.tolist(), seg, seg[1:]):
            informed = qs[row].informed
            mine = [oid for oid in hits[a:b] if oid not in informed]
            if mine:
                found.append(row)
                lens.append(len(mine))
                new += mine
        found = np.array(found, dtype=np.int64)
        if mark is not None:
            q.scan_mark[banded] = mark
            q.scan_mark[found] = -1
            held = q.scan_mark[q.scan_mark >= 0]
            self.table.forget(int(held.min()) if held.shape[0] else mark)
        if not found.shape[0]:
            return rows
        seg = offsets(lens)
        new = np.array(new, dtype=np.int64)
        for row, a, b in zip(found.tolist(), seg.tolist(), seg[1:].tolist()):
            qs[row].planner_new = new[a:b]
        pseg, pending = self._probe_runs(found, _SCAN, seg, new)
        self._write(found, (pseg, pending))
        waits = lengths(pseg) > 0
        if not waits.all():
            self._resolve(found[~waits], _SCAN)
        if not waits.any():
            return rows
        waiting = found[waits]
        self._q.phase[waiting] = WAIT_PLANNER
        left = np.ones(len(qs), dtype=bool)
        left[waiting] = False
        return rows[left[rows]]

    def _zone_mark(self) -> Optional[int]:
        """Hook: the object table's log mark a zone scan starts at, None:
        every scan searches in full."""
        return self.table.mark()

    def _zone_hits(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ids within the monitor zone of each row's installation,
        ascending ``(distance, oid)`` per row, every uninformed one
        among them: ``(seg, ids)``, by :meth:`_ranges` around the
        anchors.

        A row whose last scan searched this installation and found no
        uninformed object (``scan_mark``, still in the write log)
        re-checks only the objects written since
        (:func:`range_search_written`): every other object is where that
        scan saw it, so it is outside the zone or informed (a row's
        informed set only grows while its installation stands). The
        re-checking rows share one pass over the writes, unless those
        outnumber what their full searches would score."""
        q = self._q
        insts = [q.views[row].install for row in rows.tolist()]
        unc = self.params.uncertainty
        cx = np.array([inst.anchor[0] for inst in insts])
        cy = np.array([inst.anchor[1] for inst in insts])
        radii = np.array([inst.monitor_radius(unc) for inst in insts])
        since = q.scan_mark[rows]
        short = since >= self.table.logged_from  # never for -1
        if not short.any():
            return self._ranges(rows, cx, cy, radii)
        at = np.flatnonzero(short)
        first = int(since[at].min())
        found = range_search_written(
            self.table.grid, cx[at], cy[at], radii[at], q.focal[rows[at]],
            self.table.written_since(first), since[at] - first,
            meter=self.meter,
        )
        if found is None:
            return self._ranges(rows, cx, cy, radii)
        if at.shape[0] == rows.shape[0]:
            return found.seg, found.oid
        full = np.flatnonzero(~short)
        seg, ids = self._ranges(rows[full], cx[full], cy[full], radii[full])
        key = np.concatenate((
            np.repeat(at, lengths(found.seg)), np.repeat(full, lengths(seg))
        ))
        return (
            offsets(np.bincount(key, minlength=rows.shape[0])),
            np.concatenate((found.oid, ids))[np.argsort(key, kind="stable")],
        )

    def _resolve(self, rows: np.ndarray, step: int) -> None:
        """All planner probes of ``rows`` answered: band the harmless,
        repair on true encroachers (one exact-distance pass)."""
        qs = self._q.views
        states = [qs[row] for row in rows.tolist()]
        news = [st.planner_new for st in states]
        insts = [st.install for st in states]
        lens = [new.shape[0] for new in news]
        d = self._exact_dists(
            np.concatenate(news),
            np.repeat([inst.anchor[0] for inst in insts], lens),
            np.repeat([inst.anchor[1] for inst in insts], lens),
        )
        inside = d < np.repeat(
            [inst.outsider_band_radius for inst in insts], lens
        )
        self._clear(rows, cand=False)
        self._q.phase[rows] = IDLE
        at = 0
        for st, inst, new, n in zip(states, insts, news, lens):
            mine = inside[at:at + n]
            at += n
            row = st.row
            encroachers, harmless = new[mine].tolist(), new[~mine].tolist()
            st.planner_new = NO_IDS
            if encroachers:
                # Encroachers are exactly-known entrants: they qualify
                # for the light path unless a heavier trigger (query
                # move) is already pending this round.
                if not self._q.dirty[row]:
                    self._q.light_ok[row] = True
                st.violators.update(encroachers)
                self._q.dirty[row] = True
                continue
            ax, ay = inst.anchor
            self._emit(
                _key(row, step), self._send_band, harmless, st.spec.qid,
                BAND_OUTSIDER, ax, ay, inst.outsider_band_radius,
            )
            st.informed.update(harmless)
            self.meter.charge(CostMeter.BOOKKEEPING, len(harmless))

    # -- light (incremental) repairs ------------------------------------------

    def _begin_light(self, rows: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Stage the light repairs of ``rows``: pool = current answer +
        violators. Violators carried their exact positions in their
        reports; answer members (and the focal) may need probing.
        Returns ``(rows, seg, pool ids)`` of the rows not left
        waiting."""
        pools, probed = [], []
        for row in rows.tolist():
            st = self._q.views[row]
            self._q.dirty[row] = False
            self._q.light_ok[row] = False
            violators, st.violators = st.violators, set()
            inst = st.install
            if self.ownership_probe is not None:
                # A light repair re-reads the answer pool, all of it
                # inside the old band boundary around the anchor.
                ax, ay = inst.anchor
                self._emit(
                    _key(row, _LIGHT), self.ownership_probe.repair_scope,
                    st.spec.qid, ax, ay, inst.threshold + inst.s_eff,
                )
            pool = self._live(set(inst.answer_ids) | violators)
            st.light_violators = self._live(violators)
            pools.append(sorted(pool))
            probed += pools[-1]
            probed.append(st.spec.focal_oid)
        lens = [len(pool) for pool in pools]
        seg = offsets(lens)
        ids = np.array([oid for pool in pools for oid in pool], np.int64)
        pseg, pending = self._probe_runs(
            rows, _LIGHT, offsets([n + 1 for n in lens]),
            np.array(probed, dtype=np.int64),
        )
        self._write(rows, (pseg, pending), (seg, ids))
        waits = lengths(pseg) > 0
        self._q.phase[rows[waits]] = WAIT_LIGHT
        ready = ~waits
        return (
            rows[ready],
            offsets(np.array(lens)[ready]),
            ids[np.repeat(ready, lens)],
        )

    def _light_fails(
        self, rows: np.ndarray, seg: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        """Finalize the light repairs of ``rows`` (pool ``ids[seg[i]:
        seg[i + 1]]`` each); returns the rows that must repair in full
        instead."""
        if not rows.shape[0]:
            return rows
        self._clear(rows)
        self._q.phase[rows] = IDLE
        seg = seg.tolist()
        return np.array(
            [
                row for row, a, b in zip(rows.tolist(), seg, seg[1:])
                if not self._finalize_light(row, ids[a:b])
            ],
            dtype=np.int64,
        )

    def _finalize_light(self, row: int, ids: np.ndarray) -> bool:
        """Re-rank ``row``'s pool ``ids`` and swap bands minimally.

        Soundness: after this tick's planner pass, every object outside
        the pool — intact outsiders, planner-banded entrants, and the
        still-silent — is at true distance >= t_old + s_old from the
        anchor. The pool therefore contains the true kNN, and any new
        threshold t' with ``t' + s <= t_old + s_old`` keeps every
        untouched band sufficient. Returns False when no such t' exists
        (the row is left dirty, for a full repair).
        """
        st = self._q.views[row]
        inst = st.install
        spec = st.spec
        ax, ay = inst.anchor
        t_old, s_old, s_cap = inst.threshold, inst.s_eff, self.params.s_cap
        d = self._exact_dists(ids, ax, ay)
        if ids.shape[0] < spec.k:
            return self._escalate(row)  # population shrank below k
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
            return self._escalate(row)  # the swap does not fit
        s_new = min(s_cap, (upper - lower) / 2.0)
        # The query stays anchored at A; its current drift must fit the
        # new band slack (the focal was probed in _begin_light).
        (drift,) = self._exact_dists(np.array([spec.focal_oid]), ax, ay)
        if drift > s_new:
            return self._escalate(row)  # too little slack for the drift
        t_new = (lower + upper) / 2.0
        qid = spec.qid
        old_answer = set(inst.answer_ids)
        new_ids = [oid for _, oid in new_answer]
        new_set = set(new_ids)
        light = st.light_violators
        # Entrants need an answer band; violators staying in the answer
        # need theirs re-armed (a violated band stays silent until
        # re-installed). Everyone dropped from the pool either just
        # left the answer or violated inward without making the cut;
        # both need a (re-armed) outsider band at the new boundary.
        self._emit(
            _key(row, _LIGHT_FIN), self._send_light, qid, spec.focal_oid,
            ax, ay, t_new, s_new,
            [o for o in new_ids if o not in old_answer or o in light],
            dropped, old_answer != new_set, new_ids,
        )
        # Encroacher-derived pool members were uninformed until now.
        st.informed.update(new_set)
        st.informed.update(dropped)
        st.light_violators = set()
        st.install = Installation(inst.anchor, plan.answer, t_new, s_new)
        self._q.scan_mark[row] = -1
        self.repair_count[qid] += 1
        self.light_repair_count[qid] += 1
        self.meter.charge(CostMeter.REPAIR)
        return True

    def _escalate(self, row: int) -> bool:
        """A light repair that cannot be made: repair in full."""
        self._q.dirty[row] = True
        return False

    def _send_light(
        self, qid, focal, ax, ay, t_new, s_new, entrants, dropped, push,
        new_ids,
    ) -> None:
        """The sends, publication and event of one light repair."""
        self._send_band(entrants, qid, BAND_ANSWER, ax, ay, t_new - s_new)
        self._send_band(dropped, qid, BAND_OUTSIDER, ax, ay, t_new + s_new)
        # Refresh (and re-arm) the query circle at the new slack.
        self._send_band((focal,), qid, BAND_QUERY_CIRCLE, ax, ay, s_new)
        if push:
            self._fan_out(
                (focal,), MessageKind.ANSWER_PUSH,
                AnswerPush(qid, tuple(new_ids)),
            )
        self.publish(qid, new_ids)
        tel = self.telemetry
        if tel.enabled:
            tel.emit(
                self._tick, "server.repair", qid=qid, mode="light",
                answer=new_ids,
            )

    # -- full repairs --------------------------------------------------------

    def _start_full(self, rows: np.ndarray, tick: int) -> np.ndarray:
        """Begin the full repairs of idle dirty ``rows``; returns those
        whose focal position is exact, ready to search. A focal that
        has never reported (first tick ordering) leaves its row dirty
        until it appears; a stale one is probed."""
        if not rows.shape[0]:
            return rows
        self._q.dirty[rows] = False
        self._q.light_ok[rows] = False
        qs, table = self._q.views, self.table
        for row in rows.tolist():
            qs[row].violators = set()
        focals = self._q.focal[rows]
        known = np.array([oid in table for oid in focals.tolist()], dtype=bool)
        self._q.dirty[rows[~known]] = True
        stale = table.stale_mask(focals, tick) & known
        if stale.any():
            rows_, focals_ = rows[stale], focals[stale]
            self._claim(_key(rows_, _FULL), focals_)
            self._write(rows_, (np.arange(rows_.shape[0] + 1), focals_))
            self._q.phase[rows_] = WAIT_FOCAL
        return rows[known & ~stale]

    def _candidate_radius(self, r_k1):
        """The probe radius of a full repair whose ``k+1``-th nearest
        reported position lies ``r_k1`` away (module docstring, step 2)."""
        return r_k1 + 2.0 * self.params.uncertainty + self.params.s_cap

    def _nearest(self, rows: np.ndarray, qx: np.ndarray, qy: np.ndarray):
        """The ``k+1`` nearest reported positions to each row's focal,
        at ``(qx, qy)``: ``(seg, d, ids)``, ascending ``(distance,
        oid)`` within a row."""
        grid = self.table.grid
        focals = self._q.focal[rows]
        if not self._per_row(rows):
            found = knn_search_many(
                grid, qx, qy, self._q.k[rows] + 1, focals, meter=self.meter
            )
            return found.seg, found.d, found.oid
        found = [
            knn_search(
                grid, x, y, k + 1, exclude=self._search_exclude(focal),
                meter=self.meter,
            )
            for x, y, k, focal in zip(
                qx.tolist(), qy.tolist(), self._q.k[rows].tolist(),
                focals.tolist(),
            )
        ]
        pairs = [pair for row in found for pair in row]
        return (
            offsets([len(row) for row in found]),
            np.array([d for d, _ in pairs], dtype=np.float64),
            np.array([oid for _, oid in pairs], dtype=np.int64),
        )

    def _select(self, rows: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Choose the probe sets of ``rows`` (focal positions exact):
        the ``k+1`` nearest fix each candidate circle; its stale members
        are probed. A row with fewer than ``k+1`` known objects installs
        at once (everyone is the answer, nothing can displace them: no
        bands). Returns ``(rows, seg, candidate ids)`` of the rows not
        left waiting."""
        qx, qy = self.table.grid.positions_of(self._q.focal[rows])
        seg, d, oid = self._nearest(rows, qx, qy)
        full = lengths(seg) > self._q.k[rows]
        if not full.all():
            for i in np.flatnonzero(~full).tolist():
                a, b = seg[i], seg[i + 1]
                row = int(rows[i])
                inst = Installation(
                    (float(qx[i]), float(qy[i])),
                    tuple(zip(d[a:b].tolist(), oid[a:b].tolist())),
                    math.inf, self.params.s_cap,
                )
                self._install(row, inst, [], _key(row, _FULL))
            self._clear(rows[~full])
            self._q.phase[rows[~full]] = IDLE
            rows, qx, qy = rows[full], qx[full], qy[full]
        radii = self._candidate_radius(d[seg[1:][full] - 1])
        probe = self.ownership_probe
        if probe is not None:
            # Ownership seam: a full repair reads the table over this
            # circle — the sharded tier borrows candidates from every
            # neighbor shard the circle overlaps.
            for row, x, y, r in zip(
                rows.tolist(), qx.tolist(), qy.tolist(), radii.tolist()
            ):
                self._emit(
                    _key(row, _FULL), probe.repair_scope,
                    self._q.views[row].spec.qid, x, y, r,
                )
        seg, cands = self._ranges(rows, qx, qy, radii)
        pseg, pending = self._probe_runs(rows, _FULL, seg, cands)
        self._write(rows, (pseg, pending), (seg, cands))
        self._q.phase[rows] = WAIT_CANDS
        ready = pseg[1:] == pseg[:-1]
        lens = lengths(seg)
        return (
            rows[ready], offsets(lens[ready]), cands[np.repeat(ready, lens)]
        )

    def _ranges(self, rows, cx, cy, radii) -> Tuple[np.ndarray, np.ndarray]:
        """The ids within ``radii`` of ``(cx, cy)`` per row, over
        reported positions, each row's focal excluded, ascending
        ``(distance, oid)``: ``(seg, ids)``."""
        grid = self.table.grid
        if self._per_row(rows):
            found = [
                range_search_arrays(
                    grid, x, y, r, exclude=self._search_exclude(focal),
                    meter=self.meter,
                )[1]
                for x, y, r, focal in zip(
                    cx.tolist(), cy.tolist(), radii.tolist(),
                    self._q.focal[rows].tolist(),
                )
            ]
            return offsets([ids.shape[0] for ids in found]), (
                np.concatenate(found) if found else NO_IDS
            )
        found = range_search_many(
            grid, cx, cy, radii, self._q.focal[rows], meter=self.meter
        )
        return found.seg, found.oid

    def _finish(self, groups: List[Tuple[np.ndarray, ...]]) -> None:
        """Finalize the full repairs of ``groups`` — ``(rows, seg,
        candidate ids)`` each — in one :meth:`_plan_full` pass, then
        install."""
        rows = np.concatenate([g[0] for g in groups])
        seg = offsets(np.concatenate([lengths(g[1]) for g in groups]))
        plans = self._plan_full(
            rows, seg, np.concatenate([g[2] for g in groups])
        )
        for row, (inst, outsiders) in zip(rows.tolist(), plans):
            self._install(row, inst, outsiders, _key(row, _FIN))
        self._clear(rows)
        self._q.phase[rows] = IDLE

    def _exact_dists(self, ids: np.ndarray, qx, qy) -> np.ndarray:
        """The ``dist()`` recipe from ``(qx, qy)`` — one point, or one
        per id — to each id's table position; DIST_CALC per id."""
        xs, ys = self.table.grid.positions_of(ids)
        ddx = xs - qx
        ddy = ys - qy
        self.meter.charge(CostMeter.DIST_CALC, ids.shape[0])
        return np.sqrt(ddx * ddx + ddy * ddy)

    def _plan_full(
        self, rows: np.ndarray, seg: np.ndarray, ids: np.ndarray
    ) -> List[Tuple[Installation, List[int]]]:
        """Rank, plan and band the full repairs of ``rows`` in one
        segmented pass: ``(installation, banded outsider ids)`` per row.

        Row ``i`` ranks its candidates ``ids[seg[i]:seg[i + 1]]`` by
        exact distance from its focal, takes ``t``, ``s_eff`` and the
        monitor zone with
        :func:`~repro.core.regions.plan_installation`'s expressions and
        bands the ranked tail past ``k`` within the zone (farther ones
        are the per-tick planner's)."""
        grid = self.table.grid
        n = rows.shape[0]
        qx, qy = grid.positions_of(self._q.focal[rows])
        k = self._q.k[rows]
        row = np.repeat(np.arange(n), lengths(seg))
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
        rank = np.arange(ids.shape[0]) - lo[row]  # row is sorted
        answer = rank < k[row]
        banded = (rank >= k[row]) & (d <= zone[row])
        # each row's answer, then its banded tail: runs in row order
        dl, il = d[answer].tolist(), ids[answer].tolist()
        ol = ids[banded].tolist()
        n_ans = np.bincount(row[answer], minlength=n).tolist()
        n_out = np.bincount(row[banded], minlength=n).tolist()
        plans = []
        a = o = 0
        for x, y, t_i, s_i, na, no in zip(
            qx.tolist(), qy.tolist(), t.tolist(), s_eff.tolist(), n_ans, n_out
        ):
            inst = Installation(
                (x, y), tuple(zip(dl[a:a + na], il[a:a + na])), t_i, s_i
            )
            plans.append((inst, ol[o:o + no]))
            a += na
            o += no
        return plans

    def _install(
        self, row: int, inst: Installation, outsiders: List[int], key: int
    ) -> None:
        """Install a fresh full (or trivial) repair of ``row``: outsider
        bands to ``outsiders``. A trivial one (everyone is the answer)
        needs no band; leftovers from earlier installations are
        revoked. The row's sets change now; its sends, publication and
        event at ``key``; the caller clears its runs and phase."""
        st = self._q.views[row]
        qid = st.spec.qid
        trivial = math.isinf(inst.threshold)
        answer_ids = inst.answer_ids
        new_informed = (
            set() if trivial else set(answer_ids) | set(outsiders)
        )
        # The focal node still holds a query circle from the prior
        # non-trivial installation; nothing will ever replace it on the
        # trivial path, so take it down explicitly.
        drop_circle = trivial and bool(self._q.banded[row])
        self._emit(
            key, self._send_install, qid, st.spec.focal_oid, inst,
            answer_ids, outsiders, st.informed - new_informed, drop_circle,
            set(self.answers.get(qid, ())) != set(answer_ids),
        )
        st.informed = new_informed
        st.install = inst
        self._q.scan_mark[row] = -1
        self._q.banded[row] = not trivial
        self.repair_count[qid] += 1
        self.meter.charge(CostMeter.REPAIR)

    def _send_install(
        self, qid, focal, inst, answer_ids, outsiders, revoked, drop_circle,
        push,
    ) -> None:
        """The sends, publication and event of one full repair."""
        ax, ay = inst.anchor
        trivial = math.isinf(inst.threshold)
        if not trivial:
            self._send_band(
                answer_ids, qid, BAND_ANSWER, ax, ay, inst.answer_band_radius
            )
            self._send_band(
                outsiders, qid, BAND_OUTSIDER, ax, ay,
                inst.outsider_band_radius,
            )
            self._send_band(
                (focal,), qid, BAND_QUERY_CIRCLE, ax, ay, inst.s_eff
            )
        self._revoke(revoked, qid)
        if drop_circle:
            self._revoke((focal,), qid)
        if push:
            self._fan_out(
                (focal,), MessageKind.ANSWER_PUSH, AnswerPush(qid, answer_ids)
            )
        new_ids = list(answer_ids)
        self.publish(qid, new_ids)
        tel = self.telemetry
        if tel.enabled:
            tel.emit(
                self._tick,
                "server.repair",
                qid=qid,
                mode="trivial" if trivial else "full",
                answer=new_ids,
            )
