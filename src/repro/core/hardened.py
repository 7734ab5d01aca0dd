"""The self-healing half of DKNN-P: the fault-tolerant build's server
and client, subclasses of the fault-free protocol's that
:func:`~repro.core.builder.build_dknn_system` composes in when
``params.fault_tolerant`` is set.

**Server** (:class:`HardenedDknnServer`): every band and probe is
leased. Each tick starts with a lease sweep over the objects holding
regions, then retransmits unacked installs and unanswered probes and
sends revival probes to the suspected; a suspected object is evicted
from every query until it speaks again. Sends leave one by one (an
epoch and an ack per install).

**Client** (:class:`HardenedDknnNode`):

* every epoch-stamped install is acknowledged with ``INSTALL_ACK`` and
  deduplicated by ``(qid, epoch)`` — a retransmitted or duplicated
  install re-acks without re-arming an already-reported band;
* installs carry a *lease*: while the node holds any region it sends a
  cheap heartbeat (an ordinary ``LOCATION_UPDATE``) one tick before
  the lease would expire, so the server can tell "silent and safe"
  from "crashed";
* a reported violation whose repair (re-install or revoke) does not
  arrive within ``violation_retry`` ticks is re-reported — a single
  lost uplink cannot strand a query.

A hardened node's clocks may fire on any tick it holds a region, so no
client phase can hold it as columns: a hardened build runs the
per-object loop, every node on every tick, and with no phase to
observe stillness the event driver never skips one of its ticks.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.client import DknnMobileNode
from repro.core.protocol import InstallAck, InstallBand, ProbeRequest
from repro.core.rows import IDLE, NO_IDS
from repro.core.server import _RESUME, DknnServer, _key
from repro.errors import ProtocolError
from repro.geometry.region import QuerySafeCircle
from repro.net.message import Message, MessageKind

__all__ = ["HardenedDknnNode", "HardenedDknnServer"]

#: the uplinks that answer a probe.
_POSITIONS = (MessageKind.LOCATION_UPDATE, MessageKind.PROBE_REPLY)


class HardenedDknnServer(DknnServer):
    """DKNN-P's server with acked installs, leases and suspicion."""

    hardened = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
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

    # -- uplinks ---------------------------------------------------------

    def _heard(self, src: int) -> None:
        self._last_heard[src] = self._tick
        if src in self._suspected:
            self._revive(src)

    def on_message(self, msg: Message) -> None:
        self._heard(msg.src)
        kind, payload = msg.kind, msg.payload
        if kind == MessageKind.INSTALL_ACK:
            if not isinstance(payload, InstallAck):
                raise ProtocolError(f"bad INSTALL_ACK payload {payload!r}")
            entry = self._unacked.get((msg.src, payload.qid))
            if entry is not None and entry[0].epoch == payload.epoch:
                del self._unacked[(msg.src, payload.qid)]
            # A mismatched epoch is a late ack for a superseded
            # install: keep retransmitting the current one.
            return
        super().on_message(msg)
        if kind in _POSITIONS:
            self._probe_sent.pop(msg.src, None)
            self._probe_first.pop(msg.src, None)

    # -- per tick --------------------------------------------------------

    def on_tick_start(self, tick: int) -> None:
        super().on_tick_start(tick)
        self._ft_tick(tick)

    def on_tick_end(self, tick: int) -> None:
        super().on_tick_end(tick)
        # also degraded: installs outstanding, or a suspect answering
        unacked_qids = {qid for _, qid in self._unacked}
        suspected = self._suspected
        for st in self._q.views:
            qid = st.spec.qid
            if qid in unacked_qids or not suspected.isdisjoint(
                self.answers.get(qid, ())
            ):
                self.degraded[qid] = True

    def _ft_tick(self, tick: int) -> None:
        """Per-tick self-healing: lease sweep, then retransmissions."""
        self._lease_sweep(tick)
        timeout = self.params.ack_timeout
        lease = self.params.lease_ticks
        for key in sorted(self._unacked):
            payload, sent = self._unacked[key]
            if tick - sent >= timeout:
                self._unacked[key] = (payload, tick)
                self._resend(tick, key[0], MessageKind.INSTALL_REGION, payload)
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
                self._resend(tick, oid, MessageKind.PROBE, ProbeRequest())
        for oid in sorted(self._suspected):
            # Periodic revival probe: a live-but-suspected node (long
            # blackout, lost heartbeats) answers and is welcomed back.
            if tick - self._suspect_probe.get(oid, tick) >= lease:
                self._suspect_probe[oid] = tick
                self._resend(tick, oid, MessageKind.PROBE, ProbeRequest())

    def _resend(self, tick: int, dst: int, kind: MessageKind, payload) -> None:
        self.send(dst, kind, payload)
        self.channel.stats.record_retransmit(kind)
        if self.telemetry.enabled:
            self.telemetry.emit(
                tick, "fault.retransmit", kind=kind.name, dst=dst
            )

    def _lease_sweep(self, tick: int) -> None:
        """Suspect every leased object silent for more than the lease.

        Only objects that hold a region (and focals holding a query
        circle) are lease-bound — they heartbeat one tick before
        expiry, so silence beyond the lease means crash or partition.
        """
        lease = self.params.lease_ticks
        tracked: Set[int] = set()
        for st, banded in zip(self._q.views, self._q.banded.tolist()):
            tracked |= st.informed
            if banded:
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
        for st in self._q.views:
            row = st.row
            affected = False
            if st.spec.focal_oid == oid:
                self._q.focal_down[row] = True
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
                (st.pending == oid).any()
                or (st.cand_ids == oid).any()
                or (st.planner_new == oid).any()
            ):
                # An in-flight repair is waiting on the dead: restart
                # it from scratch (minus the suspect) next subround.
                self._clear(np.array([row]))
                st.planner_new = NO_IDS
                self._q.phase[row] = IDLE
                affected = True
            if affected and not self._q.focal_down[row]:
                self._q.dirty[row] = True
                self._q.light_ok[row] = False
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
        for st in self._q.views:
            if st.spec.focal_oid == oid:
                row = st.row
                self._q.focal_down[row] = False
                self._q.dirty[row] = True
                self._q.light_ok[row] = False
                st.violators = set()

    # -- the fault-free server's hooks ------------------------------------

    def _sends_per_message(self, sim) -> bool:
        return True  # an epoch and an ack per install

    def _reprobe(self, waiting, blocked, stale) -> None:
        """Re-probe the stale pending ids of the blocked rows: a
        tick may have ended mid-wait (stall-break on a lost message),
        which expires the per-tick freshness of members whose replies
        *did* arrive — without a new probe they would block the wait
        forever."""
        pend = self._q.pend
        seg = pend.seg
        for row in waiting[blocked[waiting]].tolist():
            a, b = seg[row], seg[row + 1]
            self._claim(
                _key(row, _RESUME[int(self._q.phase[row])]),
                np.sort(pend.ids[a:b][stale[a:b]]),
            )

    def _live(self, oids: Set[int]) -> Set[int]:
        return oids - self._suspected if self._suspected else oids

    def _zone_mark(self) -> None:
        """Every zone scan in full: suspect eviction shrinks ``informed``
        and widens the exclusion set under a standing installation."""
        return None

    def _search_exclude(self) -> np.ndarray:
        return np.array(sorted(self._suspected), dtype=np.int64)

    def _send_probes(self, oids: List[int]) -> None:
        for oid in oids:
            self._probe_sent[oid] = self._tick
            self._probe_first[oid] = self._tick
        super()._send_probes(oids)

    def _send_band(
        self, oids, qid: int, band: int, ax: float, ay: float,
        radius: float,
    ) -> None:
        """Each install stamped with a fresh epoch and the lease, and
        registered for retransmission."""
        for oid in oids:
            payload = InstallBand(
                qid, band, ax, ay, radius,
                epoch=self._install_seq, lease=self.params.lease_ticks,
            )
            self._install_seq += 1
            self._unacked[(oid, qid)] = (payload, self._tick)
            self.send(oid, MessageKind.INSTALL_REGION, payload)

    def _revoke(self, oids, qid: int) -> None:
        for oid in oids:
            self._unacked.pop((oid, qid), None)
        super()._revoke(oids, qid)


class HardenedDknnNode(DknnMobileNode):
    """A mobile object that acks installs, heartbeats its lease and
    re-reports unrepaired violations."""

    def __init__(
        self, oid: int, fleet, theta: float, violation_retry: int
    ) -> None:
        super().__init__(oid, fleet, theta)
        if violation_retry < 1:
            raise ProtocolError(
                f"violation_retry must be >= 1, got {violation_retry}"
            )
        self.violation_retry = violation_retry
        #: heartbeat interval learned from installs (0 = no lease).
        self._lease = 0
        #: newest install epoch applied per query (duplicate filter).
        self._install_epochs: Dict[int, int] = {}
        #: tick each outstanding violation report was last sent.
        self._violation_sent: Dict[int, int] = {}

    def _send_violation(self, qid: int) -> None:
        super()._send_violation(qid)
        self._violation_sent[qid] = self._cur_tick

    def on_tick_start(self, tick: int) -> None:
        super().on_tick_start(tick)
        x, y = self.position
        self._retry_violations(tick, x, y)
        if (
            self._lease > 0
            and self.regions
            and tick - self._last_uplink_tick >= max(1, self._lease // 2)
        ):
            # Lease refresh: a cheap heartbeat, sent twice per lease so
            # a single lost one does not get this node suspected of
            # crashing. Doubles as a position report, like every uplink.
            self._send_location_update()

    def _retry_violations(self, tick: int, x: float, y: float) -> None:
        """Re-report violations whose repair never arrived."""
        for qid in sorted(self._reported):
            region = self.regions.get(qid)
            if region is None:
                continue
            sent = self._violation_sent.get(qid)
            if sent is None or tick - sent < self.violation_retry:
                continue
            if not region.violated(x, y):
                # Drifted back inside with no repair in sight: assume
                # the report was lost and re-arm the episode entirely,
                # or a later re-violation would never be reported.
                self._reported.discard(qid)
                self._violation_sent.pop(qid, None)
                continue
            self._reported.discard(qid)  # re-arm so _send_violation re-adds
            self._send_violation(qid)
            self.channel.stats.record_retransmit(
                MessageKind.QUERY_MOVE
                if isinstance(region, QuerySafeCircle)
                else MessageKind.VIOLATION
            )

    def _end_episode(self, qid: int) -> None:
        super()._end_episode(qid)
        self._violation_sent.pop(qid, None)

    def on_message(self, msg: Message) -> None:
        payload = msg.payload
        if (
            msg.kind != MessageKind.INSTALL_REGION
            or not isinstance(payload, InstallBand)
            or payload.epoch < 0
        ):
            super().on_message(msg)
            return
        held = self._install_epochs.get(payload.qid, -1)
        if payload.epoch > held:
            self._install_epochs[payload.qid] = payload.epoch
            if payload.lease > 0:
                self._lease = payload.lease
            self._apply_install(payload)
        # epoch <= held: duplicate or stale retransmit — the region
        # (and its reported/armed state) is left alone.
        self.send_server(
            MessageKind.INSTALL_ACK, InstallAck(payload.qid, payload.epoch)
        )
        # An ack carries no position, so it does not reset the
        # dead-reckoning origin (no _mark_sent).
