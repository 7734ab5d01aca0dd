"""The broadcast variant of the protocol (DKNN-B).

DKNN-B pushes the distribution of work to its extreme: the server keeps
**no** position table at all. Everything it learns comes from
query-driven broadcasts:

* To (re)compute a query, it broadcasts a :class:`CollectRequest` —
  "everyone within ``R`` of this point, report your exact position" —
  and doubles ``R`` until at least ``k + 1`` objects answer.
* It then broadcasts the full monitoring state
  (:class:`BroadcastInstall`: anchor, threshold, margin, answer ids).
  Every object hears it and monitors *itself*: answer members against
  the inner band, everyone else against the outer band, the focal node
  against the query circle. A violation is reported once per episode
  and triggers the next collect.

Because every object knows every query's current state, there are no
silent objects and no planner: correctness follows directly from the
band invariant of :mod:`repro.core.regions`. The price is client-side
work — every object evaluates every query's band each tick, and every
broadcast wakes every radio (tracked as ``broadcast_receptions``).
Uplink traffic is *density-dependent, not population-dependent*: a
collect draws replies only from the ~``k`` objects near the query, so
total traffic is flat in ``N`` — the headline scaling property of the
distributed approach (experiments E1/E5).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.params import BroadcastParams
from repro.core.protocol import (
    BroadcastInstall,
    CollectReply,
    CollectRequest,
    ProbeReply,
    ProbeRequest,
    ViolationReport,
)
from repro.core.regions import plan_installation
from repro.errors import ProtocolError
from repro.geometry import Rect, dist
from repro.geometry.region import REGION_EPS
from repro.index.knn import _rank
from repro.metrics.cost import CostMeter
from repro.net.faults import FaultPlan
from repro.net.message import Message, MessageKind
from repro.net.node import MobileNode, Population
from repro.net.plane import REPORT_KINDS, ColumnarBatch
from repro.net.simulator import RoundSimulator, ZERO_LATENCY
from repro.server.engine import BaseServer
from repro.server.query_table import QuerySpec

__all__ = [
    "DknnBroadcastServer",
    "BroadcastMobileNode",
    "build_broadcast_system",
]

_IDLE = "idle"
_WAIT_FOCAL = "wait_focal"
_COLLECTING = "collecting"


class _QueryState:
    __slots__ = (
        "spec",
        "phase",
        "dirty",
        "anchor",
        "threshold",
        "s_eff",
        "answer_ids",
        "collect_radius",
        "collected",
        "collect_age",
        "focal_pos",
        "focal_tick",
    )

    def __init__(self, spec: QuerySpec) -> None:
        self.spec = spec
        self.phase = _IDLE
        self.dirty = True
        self.anchor: Optional[Tuple[float, float]] = None
        self.threshold = math.inf
        self.s_eff = 0.0
        self.answer_ids: Tuple[int, ...] = ()
        self.collect_radius = 0.0
        self.collected: Dict[int, Tuple[float, float]] = {}
        self.collect_age = 0
        self.focal_pos: Optional[Tuple[float, float]] = None
        self.focal_tick = -1


class DknnBroadcastServer(BaseServer):
    """Coordinator of the broadcast protocol: tableless, collect-driven."""

    #: the per-query record; the geocast server extends it.
    _STATE = _QueryState

    def __init__(
        self,
        universe: Rect,
        params: BroadcastParams = BroadcastParams(),
        record_history: bool = False,
    ) -> None:
        super().__init__(record_history=record_history)
        self.universe = universe
        self.params = params
        self._states: Dict[int, _QueryState] = {}
        #: focal oid -> the states of its queries (probe replies carry
        #: no qid: the sender identifies them).
        self._by_focal: Dict[int, List[_QueryState]] = {}
        self._tick = 0
        self._max_radius = math.hypot(universe.width, universe.height)
        self.repair_count: Dict[int, int] = {}
        self.collect_rounds: Dict[int, int] = {}

    def register_query(self, spec: QuerySpec) -> None:
        super().register_query(spec)
        st = self._states[spec.qid] = self._STATE(spec)
        self._by_focal.setdefault(spec.focal_oid, []).append(st)
        self.repair_count[spec.qid] = 0
        self.collect_rounds[spec.qid] = 0

    def export_query_state(self, qid: int) -> Dict:
        """Handoff snapshot: the broadcast state machine is tableless,
        so the transferable state is the last installation plus the
        collect-in-flight bookkeeping."""
        doc = super().export_query_state(qid)
        st = self._states.get(qid)
        if st is None:
            return doc
        doc["focal_oid"] = st.spec.focal_oid
        doc["k"] = st.spec.k
        doc["phase"] = st.phase
        doc["dirty"] = st.dirty
        if st.anchor is not None:
            doc["anchor"] = st.anchor
        doc["threshold"] = (
            st.threshold if not math.isinf(st.threshold) else -1.0
        )
        doc["s_eff"] = st.s_eff
        doc["answer"] = tuple(st.answer_ids)
        epoch = getattr(st, "epoch", None)
        if epoch is not None:
            doc["epoch"] = epoch
        return doc

    # -- messages ------------------------------------------------------------

    def on_message(self, msg: Message) -> None:
        payload = msg.payload
        if msg.kind in (MessageKind.VIOLATION, MessageKind.QUERY_MOVE):
            self._violation(
                msg.kind, msg.src, payload.qid, payload.x, payload.y,
                payload.epoch,
            )
        elif msg.kind == MessageKind.PROBE_REPLY:
            # Only focal nodes are probed point-to-point in DKNN-B.
            for st in self._by_focal.get(msg.src, ()):
                st.focal_pos = (payload.x, payload.y)
                st.focal_tick = self._tick
        elif msg.kind == MessageKind.COLLECT_REPLY:
            st = self._require_state(payload.qid)
            if st.phase == _COLLECTING:
                st.collected[msg.src] = (payload.x, payload.y)
        else:
            raise ProtocolError(f"broadcast server cannot handle {msg.kind}")

    def _violation(self, kind, src, qid, x, y, epoch) -> None:
        """A ``VIOLATION`` / ``QUERY_MOVE`` of ``src`` about ``qid`` at
        ``(x, y)``: the query turns dirty, and a report from its focal
        is its position."""
        st = self._require_state(qid)
        st.dirty = True
        if src == st.spec.focal_oid:
            st.focal_pos = (x, y)
            st.focal_tick = self._tick
        tel = self.telemetry
        if tel.enabled:
            tag = "query_move" if kind is MessageKind.QUERY_MOVE else "violation"
            tel.emit(self._tick, "server." + tag, qid=qid, oid=src)

    def on_uplink_batch(self, batch: ColumnarBatch) -> None:
        """Ingest a report flight (:meth:`_violation` row by row), or
        the replies one collect drew, sent as one ``COLLECT_REPLY``
        flight whose rows all name that round's query: the
        COLLECT_REPLY arm of :meth:`on_message` for every source, under
        the same phase gate — a round the server has moved on from is
        ignored whole. Any other kind raises."""
        if batch.kind is None:
            for row in zip(
                [REPORT_KINDS[c] for c in batch.codes.tolist()],
                batch.srcs.tolist(), batch.qids.tolist(),
                batch.xs.tolist(), batch.ys.tolist(), batch.epochs.tolist(),
            ):
                self._violation(*row)
        elif batch.kind is not MessageKind.COLLECT_REPLY:
            super().on_uplink_batch(batch)
        elif batch.count:
            st = self._require_state(int(batch.qids[0]))
            if st.phase == _COLLECTING:
                st.collected.update(
                    zip(
                        batch.srcs.tolist(),
                        zip(batch.xs.tolist(), batch.ys.tolist()),
                    )
                )

    def _require_state(self, qid: int) -> _QueryState:
        st = self._states.get(qid)
        if st is None:
            raise ProtocolError(f"message for unknown query {qid}")
        return st

    # -- driving -----------------------------------------------------------

    def on_tick_start(self, tick: int) -> None:
        super().on_tick_start(tick)
        self._tick = tick

    def on_subround(self, tick: int) -> None:
        self._tick = tick
        for st in self._states.values():
            self._step_query(st, tick)

    def busy(self) -> bool:
        # A collect that drew zero replies leaves the channel empty
        # while the exchange is still mid-flight; keep the subround
        # loop alive until every query is settled.
        return any(
            st.dirty or st.phase != _IDLE for st in self._states.values()
        )

    def _step_query(self, st: _QueryState, tick: int) -> None:
        if st.phase == _IDLE:
            if not st.dirty:
                return
            st.dirty = False
            if st.focal_tick == tick and st.focal_pos is not None:
                self._start_collect(st, fresh=True)
            else:
                self.send(
                    st.spec.focal_oid, MessageKind.PROBE, ProbeRequest()
                )
                st.phase = _WAIT_FOCAL
        elif st.phase == _WAIT_FOCAL:
            if st.focal_tick == tick:
                self._start_collect(st, fresh=True)
        elif st.phase == _COLLECTING:
            st.collect_age += 1
            if st.collect_age >= 2:
                self._evaluate_collect(st)
        else:
            raise ProtocolError(f"unknown phase {st.phase}")

    # -- collect pipeline -----------------------------------------------------

    def _start_collect(self, st: _QueryState, fresh: bool) -> None:
        """Issue a collect around the focal position.

        The first radius comes from history (previous threshold scaled
        by ``collect_slack``) or from the configured initial radius;
        re-collects double it.
        """
        if st.focal_pos is None:
            raise ProtocolError("collect without a focal position")
        if fresh:
            if math.isfinite(st.threshold) and st.threshold > 0:
                radius = (st.threshold + st.s_eff) * self.params.collect_slack
            else:
                radius = self.params.initial_collect_radius
            st.collected = {}
        else:
            radius = st.collect_radius * 2.0
        st.collect_radius = min(radius, self._max_radius)
        st.collect_age = 0
        st.phase = _COLLECTING
        qx, qy = st.focal_pos
        self._send_collect(
            CollectRequest(st.spec.qid, qx, qy, st.collect_radius)
        )
        self.collect_rounds[st.spec.qid] += 1
        self.meter.charge(CostMeter.BOOKKEEPING)
        tel = self.telemetry
        if tel.enabled:
            tel.emit(
                self._tick,
                "server.collect",
                qid=st.spec.qid,
                radius=st.collect_radius,
                fresh=fresh,
            )

    def _send_collect(self, request: CollectRequest) -> None:
        """Dispatch a collect; the geocast variant scopes it to an area."""
        self.broadcast(MessageKind.COLLECT, request)

    def _evaluate_collect(self, st: _QueryState) -> None:
        spec = st.spec
        k = spec.k
        enough = len(st.collected) >= k + 1
        exhausted = st.collect_radius >= self._max_radius
        if not enough and not exhausted:
            self._start_collect(st, fresh=False)
            return
        qx, qy = st.focal_pos  # type: ignore[misc]
        n = len(st.collected)
        ids = np.fromiter(st.collected, np.int64, n)
        # dist()'s recipe over the whole round at once (bit-identical).
        pts = chain.from_iterable(st.collected.values())
        xy = np.fromiter(pts, np.float64, 2 * n)
        dx = xy[0::2] - qx
        dy = xy[1::2] - qy
        d = np.sqrt(dx * dx + dy * dy)
        if n:
            self.meter.charge(CostMeter.DIST_CALC, n)
        order = _rank(d, ids)
        inst = plan_installation(
            (qx, qy), d[order], ids[order], k, self.params.s_cap
        )
        st.anchor = (qx, qy)
        st.threshold = inst.threshold
        st.s_eff = inst.s_eff
        st.answer_ids = inst.answer_ids
        st.collected = {}
        st.phase = _IDLE
        self._send_install(st, inst)
        self.publish(spec.qid, list(inst.answer_ids))
        self.repair_count[spec.qid] += 1
        self.meter.charge(CostMeter.REPAIR)
        tel = self.telemetry
        if tel.enabled:
            tel.emit(
                self._tick,
                "server.repair",
                qid=spec.qid,
                mode="collect",
                answer=list(inst.answer_ids),
            )

    def _send_install(self, st: "_QueryState", inst) -> None:
        """Dispatch a fresh installation; the geocast variant scopes it
        to a leased coverage circle and stamps an epoch."""
        self.broadcast(
            MessageKind.BROADCAST_INSTALL,
            BroadcastInstall(
                st.spec.qid,
                inst.anchor[0],
                inst.anchor[1],
                inst.threshold,
                inst.s_eff,
                inst.answer_ids,
            ),
        )


class BroadcastMobileNode(MobileNode):
    """One mobile object under DKNN-B: monitors every query itself."""

    def __init__(self, oid: int, fleet, my_qids: Sequence[int] = ()) -> None:
        super().__init__(oid, fleet)
        #: queries whose focal object this node is.
        self.my_qids: Set[int] = set(my_qids)
        #: qid -> latest broadcast state.
        self.monitors: Dict[int, BroadcastInstall] = {}
        self._reported: Set[int] = set()
        #: answers known locally (from broadcast installs of own queries).
        self.known_answers: Dict[int, List[int]] = {}

    # reach: reference_system oracle (the build's BroadcastSilentPhase
    # sends these reports from its cells)
    def on_tick_start(self, tick: int) -> None:
        x, y = self.position
        for qid, mon in self.monitors.items():
            if qid in self._reported or math.isinf(mon.threshold):
                continue
            d = dist(x, y, mon.ax, mon.ay)
            # Same float slack as the point-to-point bands: installs
            # place objects exactly on boundaries, so a hair of
            # tolerance prevents spurious violation storms.
            if qid in self.my_qids:
                violated = d > mon.s * (1.0 + REGION_EPS)
            elif self.oid in mon.answer_ids:
                violated = d > (mon.threshold - mon.s) * (1.0 + REGION_EPS)
            else:
                violated = d < (mon.threshold + mon.s) * (1.0 - REGION_EPS)
            if violated:
                kind = (
                    MessageKind.QUERY_MOVE
                    if qid in self.my_qids
                    else MessageKind.VIOLATION
                )
                self.send_server(
                    kind, ViolationReport(qid, x, y, epoch=self._epoch_of(qid))
                )
                self._reported.add(qid)

    # reach: reference_system oracle (on_tick_start's stamp)
    def _epoch_of(self, qid: int) -> int:
        """The epoch a violation of ``qid`` is stamped with; -1 (none:
        no bytes on the wire) under DKNN-B."""
        return -1

    def on_message(self, msg: Message) -> None:
        payload = msg.payload
        if msg.kind == MessageKind.PROBE:
            x, y = self.position
            self.send_server(MessageKind.PROBE_REPLY, ProbeReply(x, y))
        elif msg.kind == MessageKind.COLLECT:
            if payload.qid in self.my_qids:
                return  # the focal position travels via probe/violation
            x, y = self.position
            if dist(x, y, payload.cx, payload.cy) <= payload.radius:
                self.send_server(
                    MessageKind.COLLECT_REPLY,
                    CollectReply(payload.qid, x, y),
                )
        # reach: reference_system oracle (the build's installs go to
        # BroadcastSilentPhase.deliver_area)
        elif msg.kind == MessageKind.BROADCAST_INSTALL:
            self.monitors[payload.qid] = payload
            self._reported.discard(payload.qid)
            if payload.qid in self.my_qids:
                self.known_answers[payload.qid] = list(payload.answer_ids)
        else:
            raise ProtocolError(
                f"broadcast mobile {self.oid} cannot handle {msg.kind}"
            )


def build_broadcast_system(
    fleet,
    specs: Sequence[QuerySpec],
    params: Optional[BroadcastParams] = None,
    latency: str = ZERO_LATENCY,
    record_history: bool = False,
    faults: Optional[FaultPlan] = None,
    telemetry=None,
) -> RoundSimulator:
    """Build a ready-to-run simulator for the broadcast protocol."""
    server = DknnBroadcastServer(
        fleet.universe,
        params if params is not None else BroadcastParams(),
        record_history=record_history,
    )
    return _build_system(
        fleet, specs, server, BroadcastMobileNode, latency, faults, telemetry
    )


def _build_system(
    fleet, specs, server, node_cls, latency, faults, telemetry
) -> RoundSimulator:
    """The DKNN-B/G simulator: ``server`` with ``specs`` registered, one
    ``node_cls`` node per fleet object.

    The client side is the columns of
    :class:`~repro.core.fastpath.BroadcastSilentPhase`, and no node is
    ever built under it: installs are written to its cells, the
    per-tick band checks of all nodes run in one vectorized pass that
    sends the violation reports itself, and the phase answers probes
    and collects for the nodes. Without a phase (a radio fault plan, a
    per-message shard tier) the nodes are built for the per-object
    loop, which is also the reference the phase is held to.
    """
    for spec in specs:
        if not 0 <= spec.focal_oid < fleet.n:
            raise ProtocolError(
                f"query {spec.qid}: focal object {spec.focal_oid} "
                f"not in fleet of {fleet.n}"
            )
    focal_of = {spec.qid: spec.focal_oid for spec in specs}
    qids_by_focal: Dict[int, List[int]] = {}
    for spec in specs:
        server.register_query(spec)
        qids_by_focal.setdefault(spec.focal_oid, []).append(spec.qid)
    # fastpath imports this module's node class.
    from repro.core.fastpath import BroadcastSilentPhase

    return RoundSimulator(
        fleet,
        server,
        Population(
            fleet.n,
            node_cls,
            lambda oid: node_cls(
                oid, fleet, my_qids=qids_by_focal.get(oid, ())
            ),
        ),
        latency=latency,
        faults=faults,
        client_phase=BroadcastSilentPhase(focal_of),
        telemetry=telemetry,
    )
