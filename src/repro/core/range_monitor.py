"""Continuous range queries over moving objects (extension).

The band machinery generalizes beyond kNN: a *moving range query*
maintains the exact set of objects within ``radius`` of a moving focal
point. The broadcast-style distributed scheme:

* the server broadcasts the query state ``(anchor q0, radius, s)``;
* each object self-classifies against the anchor:

  - ``inner``  (``d <= radius - s``): member, silent — for any query
    position within ``s`` of the anchor it stays inside the range;
  - ``outer``  (``d >= radius + s``): non-member, silent;
  - ``gray``   (in between): membership depends on where exactly the
    query sits inside its safe circle, so the object *streams* its
    position while in the gray annulus and sends one final exit report
    when it leaves it (telling the server which side it left to);

* the focal node monitors its safe circle of radius ``s`` and reports
  when it exits, triggering a re-anchored broadcast;
* each tick with gray traffic, the server probes the focal once and
  decides gray memberships from exact positions.

Exactness in zero-latency mode follows from the same triangle-
inequality argument as the kNN bands; the per-tick cost is the gray
population — a thin annulus of width ``2s`` — plus one focal probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.protocol import ProbeReply, ProbeRequest, ViolationReport
from repro.errors import ProtocolError
from repro.geometry import Rect, dist
from repro.geometry.region import REGION_EPS
from repro.metrics.cost import CostMeter
from repro.net.faults import FaultPlan
from repro.net.message import Message, MessageKind
from repro.net.node import MobileNode, Population
from repro.net.simulator import RoundSimulator, ZERO_LATENCY
from repro.server.engine import BaseServer

__all__ = [
    "RangeQuerySpec",
    "RangeInstall",
    "ZoneReport",
    "RangeBroadcastServer",
    "RangeMobileNode",
    "build_range_system",
    "ZONE_INNER",
    "ZONE_GRAY",
    "ZONE_OUTER",
]

ZONE_INNER = 0
ZONE_GRAY = 1
ZONE_OUTER = 2


@dataclass(frozen=True)
class RangeQuerySpec:
    """A continuous moving range query.

    Attributes
    ----------
    qid:
        Unique query id (a separate namespace from kNN queries).
    focal_oid:
        The fleet object the range is centered on (never a member of
        its own answer).
    radius:
        The monitored range.
    """

    qid: int
    focal_oid: int
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ProtocolError(
                f"range query {self.qid}: radius must be positive"
            )
        if self.focal_oid < 0:
            raise ProtocolError(
                f"range query {self.qid}: invalid focal {self.focal_oid}"
            )


class RangeInstall:
    """Broadcast payload: the full monitoring state of a range query."""

    __slots__ = ("qid", "ax", "ay", "radius", "s")

    def __init__(
        self, qid: int, ax: float, ay: float, radius: float, s: float
    ) -> None:
        if s < 0 or s >= radius:
            raise ProtocolError(f"range margin {s} must be in [0, {radius})")
        self.qid = qid
        self.ax = float(ax)
        self.ay = float(ay)
        self.radius = float(radius)
        self.s = float(s)

    def wire_size(self) -> int:
        return 4 + 32

    def zone_of(self, x: float, y: float) -> int:
        """Self-classification against the anchor (with float slack)."""
        d = dist(x, y, self.ax, self.ay)
        if d <= (self.radius - self.s) * (1.0 + REGION_EPS):
            return ZONE_INNER
        if d >= (self.radius + self.s) * (1.0 - REGION_EPS):
            return ZONE_OUTER
        return ZONE_GRAY

    def __repr__(self) -> str:
        return (
            f"RangeInstall(q{self.qid}, ({self.ax:g}, {self.ay:g}), "
            f"r={self.radius:g}, s={self.s:g})"
        )


class ZoneReport:
    """A gray-zone position report (``gray=True``) or an exit report."""

    __slots__ = ("qid", "x", "y", "gray")

    def __init__(self, qid: int, x: float, y: float, gray: bool) -> None:
        self.qid = qid
        self.x = float(x)
        self.y = float(y)
        self.gray = gray

    def wire_size(self) -> int:
        return 24

    def __repr__(self) -> str:
        kind = "gray" if self.gray else "exit"
        return f"ZoneReport(q{self.qid}, ({self.x:g}, {self.y:g}), {kind})"


class _RangeState:
    __slots__ = (
        "spec",
        "anchor",
        "s",
        "members",
        "gray_reports",
        "dirty",
        "phase",
        "focal_pos",
        "focal_tick",
    )

    def __init__(self, spec: RangeQuerySpec) -> None:
        self.spec = spec
        self.anchor: Optional[Tuple[float, float]] = None
        self.s = 0.0
        self.members: Set[int] = set()
        self.gray_reports: Dict[int, Tuple[float, float]] = {}
        self.dirty = True
        self.phase = "idle"  # idle | wait_focal
        self.focal_pos: Optional[Tuple[float, float]] = None
        self.focal_tick = -1


class RangeBroadcastServer(BaseServer):
    """Server for continuous range monitoring (broadcast scheme)."""

    def __init__(
        self,
        universe: Rect,
        s_margin: float = 50.0,
        record_history: bool = False,
    ) -> None:
        super().__init__(record_history=record_history)
        if s_margin < 0:
            raise ProtocolError(f"negative s_margin {s_margin}")
        self.universe = universe
        self.s_margin = float(s_margin)
        self._states: Dict[int, _RangeState] = {}
        self._tick = 0
        self.repair_count: Dict[int, int] = {}

    def register_range_query(self, spec: RangeQuerySpec) -> None:
        if self._started:
            raise ProtocolError("register after start is not supported")
        if spec.qid in self._states:
            raise ProtocolError(f"range query {spec.qid} already registered")
        self._states[spec.qid] = _RangeState(spec)
        self.answers[spec.qid] = []
        self.repair_count[spec.qid] = 0
        if self.record_history:
            self.answer_history[spec.qid] = []

    # -- messages ------------------------------------------------------------

    def on_message(self, msg: Message) -> None:
        payload = msg.payload
        if msg.kind == MessageKind.QUERY_MOVE:
            st = self._require(payload.qid)
            st.dirty = True
            st.focal_pos = (payload.x, payload.y)
            st.focal_tick = self._tick
        elif msg.kind == MessageKind.PROBE_REPLY:
            for st in self._states.values():
                if st.spec.focal_oid == msg.src:
                    st.focal_pos = (payload.x, payload.y)
                    st.focal_tick = self._tick
        elif msg.kind == MessageKind.VIOLATION:
            # Zone traffic: gray position streams and gray-exit reports.
            if not isinstance(payload, ZoneReport):
                raise ProtocolError(f"bad zone payload {payload!r}")
            st = self._require(payload.qid)
            if payload.gray:
                st.gray_reports[msg.src] = (payload.x, payload.y)
            else:
                # Exit: classify by the reported position directly.
                st.gray_reports.pop(msg.src, None)
                d = dist(payload.x, payload.y, st.anchor[0], st.anchor[1])
                self.meter.charge(CostMeter.DIST_CALC)
                if d <= st.spec.radius - st.s:
                    st.members.add(msg.src)
                else:
                    st.members.discard(msg.src)
        else:
            raise ProtocolError(f"range server cannot handle {msg.kind}")

    def _require(self, qid: int) -> _RangeState:
        st = self._states.get(qid)
        if st is None:
            raise ProtocolError(f"message for unknown range query {qid}")
        return st

    # -- driving ----------------------------------------------------------

    def on_tick_start(self, tick: int) -> None:
        super().on_tick_start(tick)
        self._tick = tick
        for st in self._states.values():
            st.gray_reports = {}

    def on_subround(self, tick: int) -> None:
        self._tick = tick
        for st in self._states.values():
            if st.phase == "wait_focal":
                if st.focal_tick == tick:
                    st.phase = "idle"
                else:
                    continue
            if st.phase == "idle" and st.dirty:
                if st.focal_tick == tick and st.focal_pos is not None:
                    st.dirty = False
                    self._reinstall(st)
                else:
                    self.send(
                        st.spec.focal_oid, MessageKind.PROBE, ProbeRequest()
                    )
                    st.phase = "wait_focal"
            elif st.phase == "idle" and st.gray_reports:
                if st.focal_tick != tick:
                    self.send(
                        st.spec.focal_oid, MessageKind.PROBE, ProbeRequest()
                    )
                    st.phase = "wait_focal"
                else:
                    self._resolve_gray(st)

    def busy(self) -> bool:
        return any(
            st.dirty or st.phase != "idle" or st.gray_reports
            for st in self._states.values()
        )

    # -- installation -------------------------------------------------------

    def _reinstall(self, st: _RangeState) -> None:
        """Re-anchor at the exact focal position and re-broadcast."""
        assert st.focal_pos is not None
        qx, qy = st.focal_pos
        st.anchor = (qx, qy)
        st.s = min(self.s_margin, st.spec.radius * 0.5)
        self.broadcast(
            MessageKind.BROADCAST_INSTALL,
            RangeInstall(st.spec.qid, qx, qy, st.spec.radius, st.s),
        )
        # Membership carries over: each node knows which side the
        # server last counted it on and reports (immediately, within
        # this delivery wave) only if the re-anchored classification
        # flips it — or streams if it landed in the gray annulus. See
        # RangeMobileNode.on_message.
        st.gray_reports = {}
        self.repair_count[st.spec.qid] += 1
        self.meter.charge(CostMeter.REPAIR)

    def _resolve_gray(self, st: _RangeState) -> None:
        """Decide gray memberships against the exact focal position."""
        assert st.focal_pos is not None
        qx, qy = st.focal_pos
        r = st.spec.radius
        for oid, (x, y) in st.gray_reports.items():
            d = dist(x, y, qx, qy)
            self.meter.charge(CostMeter.DIST_CALC)
            if d <= r:
                st.members.add(oid)
            else:
                st.members.discard(oid)
        st.gray_reports = {}
        self.publish(st.spec.qid, sorted(st.members))

    def on_tick_end(self, tick: int) -> None:
        for st in self._states.values():
            self.publish(st.spec.qid, sorted(st.members))
        super().on_tick_end(tick)


class RangeMobileNode(MobileNode):
    """Object-side logic: self-classify, stream only while gray."""

    def __init__(self, oid: int, fleet, my_qids: Sequence[int] = ()) -> None:
        super().__init__(oid, fleet)
        self.my_qids: Set[int] = set(my_qids)
        self.monitors: Dict[int, RangeInstall] = {}
        self._zones: Dict[int, int] = {}
        #: which side the server last counted this node on, per query.
        #: None = gray (server decides each tick from the stream).
        self._member: Dict[int, Optional[bool]] = {}
        self._circle_reported: Set[int] = set()

    def _classify_and_report(self, qid: int, mon: RangeInstall) -> None:
        x, y = self.position
        zone = mon.zone_of(x, y)
        previous_member = self._member.get(qid, False)
        if zone == ZONE_GRAY:
            self.send_server(
                MessageKind.VIOLATION, ZoneReport(qid, x, y, gray=True)
            )
            self._member[qid] = None  # server decides from the stream
        else:
            is_member = zone == ZONE_INNER
            if previous_member is None or previous_member != is_member:
                # Settle membership with one exit/flip report; while
                # the silent classification matches what the server
                # already believes, nothing needs to be sent.
                self.send_server(
                    MessageKind.VIOLATION, ZoneReport(qid, x, y, gray=False)
                )
            self._member[qid] = is_member
        self._zones[qid] = zone

    def on_tick_start(self, tick: int) -> None:
        x, y = self.position
        for qid, mon in self.monitors.items():
            if qid in self.my_qids:
                d = dist(x, y, mon.ax, mon.ay)
                if qid not in self._circle_reported and d > mon.s * (
                    1.0 + REGION_EPS
                ):
                    self.send_server(
                        MessageKind.QUERY_MOVE,
                        ViolationReport(qid, x, y),
                    )
                    self._circle_reported.add(qid)
                continue
            self._classify_and_report(qid, mon)

    def on_message(self, msg: Message) -> None:
        if msg.kind == MessageKind.PROBE:
            x, y = self.position
            self.send_server(MessageKind.PROBE_REPLY, ProbeReply(x, y))
        elif msg.kind == MessageKind.BROADCAST_INSTALL:
            payload = msg.payload
            if not isinstance(payload, RangeInstall):
                raise ProtocolError(f"bad range install {payload!r}")
            self.monitors[payload.qid] = payload
            self._zones.pop(payload.qid, None)
            self._circle_reported.discard(payload.qid)
            if payload.qid not in self.my_qids:
                # Re-classify against the fresh anchor immediately so
                # the server's membership set is exact within the tick.
                self._classify_and_report(payload.qid, payload)
        else:
            raise ProtocolError(
                f"range mobile {self.oid} cannot handle {msg.kind}"
            )


def build_range_system(
    fleet,
    specs: Sequence[RangeQuerySpec],
    s_margin: float = 50.0,
    latency: str = ZERO_LATENCY,
    record_history: bool = False,
    faults: Optional[FaultPlan] = None,
) -> RoundSimulator:
    """Build a ready-to-run continuous-range monitoring system.

    Range mobiles carry tri-state (gray) logic that no client phase
    holds as columns, so there is none: every node runs its own
    tick-start every tick.
    """
    for spec in specs:
        if not 0 <= spec.focal_oid < fleet.n:
            raise ProtocolError(
                f"range query {spec.qid}: focal {spec.focal_oid} "
                f"not in fleet of {fleet.n}"
            )
    server = RangeBroadcastServer(
        fleet.universe, s_margin=s_margin, record_history=record_history
    )
    qids_by_focal: Dict[int, List[int]] = {}
    for spec in specs:
        server.register_range_query(spec)
        qids_by_focal.setdefault(spec.focal_oid, []).append(spec.qid)
    mobiles = Population(
        fleet.n,
        RangeMobileNode,
        lambda oid: RangeMobileNode(
            oid, fleet, my_qids=qids_by_focal.get(oid, ())
        ),
    )
    return RoundSimulator(
        fleet, server, mobiles, latency=latency, faults=faults
    )
