"""Object-side logic of the point-to-point DKNN protocol.

Every fleet object runs a :class:`DknnMobileNode`. Per tick it does
three local, message-free checks against its own position:

1. **dead reckoning** — report if drifted more than ``theta`` since the
   last transmitted position;
2. **bands** — for each installed safe region, report a violation the
   first tick the region predicate fails (once per episode: a violated
   band stays quiet until the server re-installs or revokes it);
3. **query circles** — same, for queries whose focal object this is.

It answers probes immediately and applies installs/revokes. Any message
that carries this node's own position doubles as a dead-reckoning
report, so the node resets its drift origin whenever it transmits one.
The fault-tolerant build's node is
:class:`~repro.core.hardened.HardenedDknnNode`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ProtocolError
from repro.geometry import dist
from repro.geometry.region import (
    AnswerBand,
    OutsiderBand,
    QuerySafeCircle,
    SafeRegion,
)
from repro.net.message import Message, MessageKind
from repro.net.node import MobileNode
from repro.core.protocol import (
    BAND_ANSWER,
    BAND_OUTSIDER,
    BAND_QUERY_CIRCLE,
    AnswerPush,
    InstallBand,
    LocationUpdate,
    ProbeReply,
    RevokeBand,
    ViolationReport,
)

__all__ = ["DknnMobileNode"]

#: what a node holds in a map most nodes never write — pushed answers
#: (focal nodes only): one shared read-only empty map, until the node's
#: first write gives it a dict of its own.
_UNWRITTEN: Mapping = MappingProxyType({})

_BAND_CLASSES = {
    BAND_ANSWER: AnswerBand,
    BAND_OUTSIDER: OutsiderBand,
    BAND_QUERY_CIRCLE: QuerySafeCircle,
}


class DknnMobileNode(MobileNode):
    """One mobile object (possibly also a query focal point)."""

    #: answers known locally (pushed by the server), per query.
    known_answers: Dict[int, List[int]] = _UNWRITTEN  # type: ignore

    def __init__(self, oid: int, fleet, theta: float) -> None:
        super().__init__(oid, fleet)
        if theta < 0:
            raise ProtocolError(f"negative theta {theta}")
        self.theta = float(theta)
        #: qid -> installed region (band or query circle).
        self.regions: Dict[int, SafeRegion] = {}
        #: qids whose violation was already reported this episode.
        self._reported: set = set()
        #: last position this node transmitted to the server.
        self._last_sent: Optional[Tuple[float, float]] = None
        self._cur_tick = 0
        self._last_uplink_tick = 0

    # -- transmission helpers ------------------------------------------------

    def _mark_sent(self) -> None:
        self._last_sent = self.position
        self._last_uplink_tick = self._cur_tick

    def _send_location_update(self) -> None:
        x, y = self.position
        self.send_server(MessageKind.LOCATION_UPDATE, LocationUpdate(x, y))
        self._mark_sent()

    def _send_violation(self, qid: int) -> None:
        x, y = self.position
        kind = (
            MessageKind.QUERY_MOVE
            if isinstance(self.regions[qid], QuerySafeCircle)
            else MessageKind.VIOLATION
        )
        self.send_server(kind, ViolationReport(qid, x, y))
        self._reported.add(qid)
        self._mark_sent()

    # -- per-tick local checks --------------------------------------------

    def on_tick_start(self, tick: int) -> None:
        self._cur_tick = tick
        x, y = self.position
        if self._last_sent is None or (
            dist(x, y, self._last_sent[0], self._last_sent[1]) > self.theta
        ):
            self._send_location_update()
        for qid, region in self.regions.items():
            if qid in self._reported:
                continue
            if region.violated(x, y):
                self._send_violation(qid)

    # -- message handling --------------------------------------------------

    def _end_episode(self, qid: int) -> None:
        """Query ``qid`` was repaired (re-installed or revoked): its
        violation is no longer reported."""
        self._reported.discard(qid)

    def _apply_install(self, payload: InstallBand) -> None:
        region_cls = _BAND_CLASSES[payload.band]
        self.regions[payload.qid] = region_cls(
            payload.ax, payload.ay, payload.radius
        )
        self._end_episode(payload.qid)

    def on_message(self, msg: Message) -> None:
        if msg.kind == MessageKind.PROBE:
            x, y = self.position
            self.send_server(MessageKind.PROBE_REPLY, ProbeReply(x, y))
            self._mark_sent()
        elif msg.kind == MessageKind.INSTALL_REGION:
            payload = msg.payload
            if not isinstance(payload, InstallBand):
                raise ProtocolError(f"bad INSTALL_REGION payload {payload!r}")
            self._apply_install(payload)
        elif msg.kind == MessageKind.REVOKE_REGION:
            payload = msg.payload
            if not isinstance(payload, RevokeBand):
                raise ProtocolError(f"bad REVOKE_REGION payload {payload!r}")
            self.regions.pop(payload.qid, None)
            self._end_episode(payload.qid)
        elif msg.kind == MessageKind.ANSWER_PUSH:
            payload = msg.payload
            if not isinstance(payload, AnswerPush):
                raise ProtocolError(f"bad ANSWER_PUSH payload {payload!r}")
            if self.known_answers is _UNWRITTEN:
                self.known_answers = {}
            self.known_answers[payload.qid] = list(payload.ids)
        else:
            raise ProtocolError(
                f"mobile node {self.oid} cannot handle {msg.kind}"
            )
