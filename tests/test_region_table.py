"""The DKNN-P region table and the batched re-plan, against their oracles.

* ``DknnSilentPhase``'s region table and candidate mask are tested
  against the nodes themselves — the table's live rows are the armed
  regions read off the nodes, and the candidates are the nodes whose
  own ``on_tick_start`` would send or change state (tried on a
  throw-away copy of each node);
* ``DknnWakeupPlanner.wakeups`` is pinned, for every mobility kernel
  and a mover class without one, to the wakeups of the per-node
  scalar planner it replaced: one md5 per case of every tick's
  ``(act, resolve)`` list, captured from that planner. Its soundness
  against the nodes' own ``on_tick_start`` is ``tests/test_engine.py``'s
  ``TestPlannerNeverLate``.

The fleet is driven by hand: ``SinkServer`` swallows every uplink and the
tests play the server's part (installs, revokes, probes) directly —
one message at a time, or as the columnar batches the phase consumes
in place (``deliver_batch``), whose oracle is the same flight delivered
as scalar messages.
"""

from __future__ import annotations

import copy
import hashlib
import math
import random
from typing import Dict, List, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import _BAND_CLASSES, DknnMobileNode
from repro.core.fastpath import DknnSilentPhase
from repro.core.hardened import HardenedDknnNode
from repro.core.protocol import (
    BAND_ANSWER,
    BAND_OUTSIDER,
    BAND_QUERY_CIRCLE,
    AnswerPush,
    InstallBand,
    ProbeRequest,
    RevokeBand,
)
from repro.core.server import _FLUSH_ORDER
from repro.core.wakeups import DknnWakeupPlanner, planner_for
from repro.errors import ProtocolError
from repro.geometry import Rect
from repro.geometry.region import REGION_EPS, AnswerBand
from repro.mobility import (
    FastFleet,
    Fleet,
    GaussianClusterModel,
    HotspotDriftModel,
    MostlyStationaryModel,
    RandomDirectionModel,
    RandomWaypointModel,
    RoadNetworkModel,
)
from repro.mobility.crossing import (
    GENERIC,
    HOLD,
    LAND,
    LINE,
    STILL,
    CheckRows,
    solve_claims,
)
from repro.mobility.stationary import LinearMover, StationaryMover
from repro.net.message import SERVER_ID, Message, MessageKind
from repro.net.node import Population
from repro.net.plane import ColumnarBatch
from repro.net.simulator import RoundSimulator
from tests.helpers import SinkServer, on_the_wire

U = Rect(0.0, 0.0, 600.0, 600.0)
N = 20
QIDS = (0, 1, 2, 3)
THETA = 35.0
BANDS = (BAND_ANSWER, BAND_OUTSIDER, BAND_QUERY_CIRCLE)


class _Recorder:
    """Channel stand-in for a throw-away node copy: remembers sends."""

    def __init__(self) -> None:
        self.sent: List = []
        self.stats = self

    def send(self, kind, src, dst, payload=None):
        self.sent.append(kind)

    def record_retransmit(self, kind) -> None:
        pass


def _build(
    fleet, ft: bool = False, phase: bool = True, lazy: bool = False,
) -> RoundSimulator:
    """``phase=False`` is the reference program: no client phase, every
    node runs its own ``on_tick_start`` every tick. The nodes are
    hardened (``ft``) or plain, built up front, or — ``lazy`` — on
    demand, as a builder's are."""

    def make(oid: int) -> DknnMobileNode:
        if ft:
            return HardenedDknnNode(oid, fleet, theta=THETA, violation_retry=3)
        return DknnMobileNode(oid, fleet, theta=THETA)

    return RoundSimulator(
        fleet, SinkServer(),
        Population(fleet.n, HardenedDknnNode if ft else DknnMobileNode, make)
        if lazy else [make(oid) for oid in range(fleet.n)],
        client_phase=DknnSilentPhase() if phase else None,
    )


def _waypoint_fleet(seed: int = 3, n: int = N) -> FastFleet:
    model = RandomWaypointModel(U, speed_min=8.0, speed_max=30.0, pause_max=3)
    return FastFleet.from_model(model, n, seed=seed)


def _deliver(sim, oid: int, kind: MessageKind, payload) -> None:
    sim._dispatch(sim.mobiles[oid], Message(kind, SERVER_ID, oid, payload))


def _band(sim, oid, qid, band, place, margin, epoch=-1, lease=0) -> InstallBand:
    """An install anchored a fixed offset from node ``oid``'s current
    position: satisfied by ``margin``, violated by it, or with the node
    exactly on the radius (``place`` = "in" / "out" / "edge")."""
    x, y = sim.fleet.positions[oid]
    ax = min(max(x + 37.0, U.xmin), U.xmax)
    ay = min(max(y - 23.0, U.ymin), U.ymax)
    d = math.hypot(x - ax, y - ay)
    if place == "edge":
        radius = d
    elif (place == "in") == (band == BAND_OUTSIDER):
        radius = max(d - margin, 0.0)
    else:
        radius = d + margin
    return InstallBand(qid, band, ax, ay, radius, epoch=epoch, lease=lease)


def _install(sim, oid, *args, **kwargs) -> None:
    _deliver(
        sim, oid, MessageKind.INSTALL_REGION, _band(sim, oid, *args, **kwargs)
    )


def _deliver_batch(
    sim, kind: MessageKind, dsts, payload, batched: bool = True
) -> None:
    """One run of one payload as a downlink flight of its own — or,
    ``batched=False``, as the scalar messages it stands for."""
    if not batched:
        for oid in dsts:
            _deliver(sim, oid, kind, payload)
        return
    sim._deliver_batch(
        ColumnarBatch(
            kind,
            src=SERVER_ID,
            dsts=np.array(dsts, dtype=np.int64),
            payloads=[payload],
            pidx=np.zeros(len(dsts), dtype=np.int64),
        )
    )


def _install_batch(sim, dsts, *args, batched: bool = True, **kwargs) -> None:
    """Placed relative to the first receiver."""
    _deliver_batch(
        sim, MessageKind.INSTALL_REGION, dsts,
        _band(sim, dsts[0], *args, **kwargs), batched,
    )


def _revoke_batch(sim, dsts, qid, batched: bool = True) -> None:
    _deliver_batch(
        sim, MessageKind.REVOKE_REGION, dsts, RevokeBand(qid), batched
    )


def _would_act(phase, node: DknnMobileNode, tick: int) -> bool:
    """Brute force: run ``on_tick_start`` on a copy of ``node`` and see
    whether it sent anything or changed protocol state."""
    twin = copy.copy(node)
    twin.regions = dict(node.regions)
    twin._reported = set(node._reported)
    twin._violation_sent = dict(getattr(node, "_violation_sent", {}))
    twin._channel = _Recorder()
    oid = node.oid
    if phase._desynced[oid]:  # what _sync_node would write back
        twin._last_sent = (
            float(phase._sent_x[oid]), float(phase._sent_y[oid])
        )
        twin._last_uplink_tick = int(phase._uplink_tick[oid])
    before = (set(twin._reported), dict(twin._violation_sent))
    type(node).on_tick_start(twin, tick)
    return bool(twin._channel.sent) or before != (
        twin._reported, twin._violation_sent
    )


def _armed(sim) -> Dict:
    """``{(oid, qid): (class, ax, ay, radius)}`` read off the nodes."""
    return {
        (node.oid, qid): (type(r), r.ax, r.ay, r.radius)
        for node in sim.mobiles
        for qid, r in node.regions.items()
        if qid not in node._reported
    }


def _table_rows(phase) -> Dict:
    t = phase.regions
    live = np.nonzero(t.live)[0].tolist()
    rows = {
        (int(t.oid[i]), int(t.qid[i])): (
            _BAND_CLASSES[int(t.kind[i])],
            float(t.ax[i]), float(t.ay[i]), float(t.radius[i]),
        )
        for i in live
    }
    assert len(rows) == len(live), "two live rows for one (node, query)"
    return rows


def _checked_step(sim) -> None:
    """One full tick; asserts the candidate mask and then the table."""
    phase = sim.client_phase
    nodes = sim.mobiles
    ran: List[int] = []
    real_tick_start = phase.tick_start
    real_send_batch = sim.channel.send_batch

    def send_batch(batch):
        if batch.kind is MessageKind.LOCATION_UPDATE:
            ran.extend(batch.srcs.tolist())
        return real_send_batch(batch)

    def tick_start(tick: int) -> None:
        expected = {n.oid for n in nodes if _would_act(phase, n, tick)}
        timed = {
            n.oid for n in nodes
            if n.regions and isinstance(n, HardenedDknnNode)
        }
        real_tick_start(tick)
        got = set(ran)
        assert len(got) == len(ran)
        assert expected <= got <= expected | timed
        if not timed:
            assert got == expected

    for node in nodes:
        node.on_tick_start = (
            lambda tick, node=node: (
                ran.append(node.oid),
                type(node).on_tick_start(node, tick),
            )
        )
    phase.tick_start = tick_start
    sim.channel.send_batch = send_batch
    try:
        sim.step()
    finally:
        phase.tick_start = real_tick_start
        sim.channel.send_batch = real_send_batch
        for node in nodes:
            del node.on_tick_start
    phase.flush_touched()
    assert _table_rows(phase) == _armed(sim)
    assert phase._attention.tolist() == [bool(n.regions) for n in nodes]


_oids = st.integers(0, N - 1)
_dsts = st.lists(_oids, min_size=1, max_size=N, unique=True)
_places = st.sampled_from(("in", "out", "edge"))
_batches = st.one_of(
    st.tuples(
        st.just("install_batch"), _dsts, st.sampled_from(QIDS),
        st.sampled_from(BANDS), _places, st.floats(2.0, 80.0),
    ),
    st.tuples(st.just("revoke_batch"), _dsts, st.sampled_from(QIDS)),
)
_ops = st.one_of(
    st.tuples(
        st.just("install"), _oids, st.sampled_from(QIDS),
        st.sampled_from(BANDS), _places, st.floats(2.0, 80.0),
    ),
    st.tuples(st.just("revoke"), _oids, st.sampled_from(QIDS)),
    st.tuples(st.just("probe"), _oids),
    st.tuples(st.just("probe_batch"), _dsts),
    _batches,
    st.tuples(st.just("step")),
)


FT_MODES = ["plain", "retry", "lease"]


def _build_mode(
    seed: int, ft: str, phase: bool = True, lazy: bool = False
) -> RoundSimulator:
    return _build(
        _waypoint_fleet(seed), ft=ft != "plain", phase=phase, lazy=lazy
    )


def _play(sim, op, ft: str, epoch: int, batched: bool = True) -> None:
    """Deliver one op of ``_ops`` other than a step; every install is
    epoch-stamped outside ``plain`` mode."""
    stamp = dict(
        epoch=-1 if ft == "plain" else epoch, lease=6 if ft == "lease" else 0
    )
    if op[0] == "install":
        _install(sim, *op[1:], **stamp)
    elif op[0] == "revoke":
        _deliver(sim, op[1], MessageKind.REVOKE_REGION, RevokeBand(op[2]))
    elif op[0] == "probe":
        _deliver(sim, op[1], MessageKind.PROBE, ProbeRequest())
    elif op[0] == "probe_batch":
        _deliver_batch(
            sim, MessageKind.PROBE, op[1], ProbeRequest(), batched
        )
    elif op[0] == "install_batch":
        _install_batch(sim, *op[1:], batched=batched, **stamp)
    else:
        _revoke_batch(sim, *op[1:], batched=batched)


@pytest.mark.parametrize("ft", FT_MODES)
@given(ops=st.lists(_ops, max_size=40), seed=st.integers(0, 5))
@settings(max_examples=120, deadline=None)
def test_table_and_mask_match_the_nodes(ft, ops, seed):
    sim = _build_mode(seed, ft)
    stats = sim.channel.stats
    _checked_step(sim)  # everyone registers: one columnar batch
    for epoch, op in enumerate(ops):
        if op[0] == "step":
            _checked_step(sim)
            continue
        expanded = stats.materialized_by_kind[MessageKind.INSTALL_REGION]
        acks = stats.sent_by_kind[MessageKind.INSTALL_ACK]
        _play(sim, op, ft, epoch)
        if op[0] == "install_batch":
            # An epoch-stamped batch is declined whole — the nodes ack
            # and dedupe it themselves; any other is consumed in place.
            declined = 0 if ft == "plain" else len(op[1])
            assert (
                stats.materialized_by_kind[MessageKind.INSTALL_REGION]
                - expanded
                == stats.sent_by_kind[MessageKind.INSTALL_ACK] - acks
                == declined
            )
    assert not stats.materialized_by_kind[MessageKind.REVOKE_REGION]
    _checked_step(sim)
    _checked_step(sim)


@pytest.mark.parametrize("ft", FT_MODES)
@given(ops=st.lists(_ops, max_size=40), seed=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_batches_leave_the_nodes_as_scalar_messages_would(ft, ops, seed):
    """Twin simulators: the phase fed batches against the reference
    program (no phase) fed the same flights message by message."""
    fast = _build_mode(seed, ft)
    ref = _build_mode(seed, ft, phase=False)
    for sim, batched in ((fast, True), (ref, False)):
        sim.step()
        for epoch, op in enumerate(ops):
            if op[0] == "step":
                sim.step()
            else:
                _play(sim, op, ft, epoch, batched)
        sim.step()
    for got, want in zip(fast.mobiles, ref.mobiles):
        fast.client_phase._sync_node(got.oid)
        assert list(got.regions.items()) == list(want.regions.items())
        assert got._reported == want._reported
        assert got._last_sent == want._last_sent
    assert fast.channel.stats.sent_by_kind == ref.channel.stats.sent_by_kind
    assert fast.channel.stats.bytes_by_kind == ref.channel.stats.bytes_by_kind


@pytest.mark.parametrize("ft", FT_MODES)
@given(
    # batches weighted up: they are what reaches a node not built yet
    ops=st.lists(
        st.one_of(_ops, _batches, st.tuples(st.just("build"), _oids)),
        min_size=8, max_size=40,
    ),
    seed=st.integers(0, 5),
)
@settings(max_examples=60, deadline=None)
def test_a_node_built_late_equals_its_eager_twin(ft, ops, seed):
    """Twin simulators fed the same flights: nodes built on demand
    against nodes built up front. Until a node is built, batches, probe
    replies, drift reports and its own violation reports live in the
    phase's columns alone; built at any point — here on a drawn
    ``build`` op, else when scalar traffic reaches it, else at the end
    — it must hold what its twin holds, and both fleets must have put
    the same messages on the wire in the same order."""
    lazy = _build_mode(seed, ft, lazy=True)
    eager = _build_mode(seed, ft)
    wires = [_recorded_wire(lazy), _recorded_wire(eager)]

    def same(oid: int) -> None:
        got, want = lazy.mobiles[oid], eager.mobiles[oid]
        for sim in (lazy, eager):
            sim.client_phase._sync_node(oid)  # as scalar code would
        assert list(got.regions.items()) == list(want.regions.items())
        assert got._reported == want._reported
        assert got._last_sent == want._last_sent
        assert got._last_uplink_tick == want._last_uplink_tick

    for sim in (lazy, eager):
        sim.step()
    for epoch, op in enumerate(ops):
        if op[0] == "build":
            same(op[1])
            continue
        for sim in (lazy, eager):
            if op[0] == "step":
                sim.step()
            else:
                _play(sim, op, ft, epoch)
    for sim in (lazy, eager):
        sim.step()
    for oid in range(N):
        same(oid)
    assert wires[0] == wires[1]


#: a subround's sends, drawn loosely over a few nodes (so runs meet on
#: a node and a query often); ``_subround`` shapes them.
_few = st.integers(0, 5)
_runs = st.lists(_few, min_size=1, max_size=4, unique=True)
_sends = st.lists(
    st.one_of(
        st.tuples(
            st.just(MessageKind.INSTALL_REGION), _runs, st.sampled_from(QIDS),
            st.sampled_from(BANDS), _places, st.floats(2.0, 80.0),
        ),
        st.tuples(
            st.just(MessageKind.REVOKE_REGION), _runs, st.sampled_from(QIDS)
        ),
        st.tuples(st.just(MessageKind.PROBE), _runs),
        st.tuples(
            st.just(MessageKind.ANSWER_PUSH), _few, st.sampled_from(QIDS),
            st.lists(_oids, max_size=5),
        ),
    ),
    max_size=25,
)


def _subround(sim, sends) -> List:
    """``(kind, oids, payload)`` runs in send order, as a DKNN-P
    subround makes them: per (node, query) installs — re-installs and
    duplicates included — then at most one revoke (a planner band
    followed by an escalation's revoke), each node probed once, answer
    pushes to any node."""
    runs, closed, probed = [], set(), set()
    for send in sends:
        kind = send[0]
        if kind is MessageKind.PROBE:
            oids = [oid for oid in send[1] if oid not in probed]
            probed.update(oids)
            payload = ProbeRequest()
        elif kind is MessageKind.ANSWER_PUSH:
            oids = [send[1]]
            payload = AnswerPush(send[2], tuple(send[3]))
        else:
            qid = send[2]
            oids = [oid for oid in send[1] if (oid, qid) not in closed]
            if kind is MessageKind.REVOKE_REGION:
                closed.update((oid, qid) for oid in oids)
                payload = RevokeBand(qid)
            else:
                payload = _band(sim, send[1][0], *send[2:])
        if oids:
            runs.append((kind, oids, payload))
    return runs


def _flush(sim, runs) -> None:
    """``runs`` as the server's outbox leaves: one batch per kind, in
    ``_FLUSH_ORDER``, send order within a kind."""
    for kind in _FLUSH_ORDER:
        mine = [(oids, payload) for k, oids, payload in runs if k is kind]
        if mine:
            sim._deliver_batch(
                ColumnarBatch(
                    kind,
                    src=SERVER_ID,
                    dsts=np.array(
                        [oid for oids, _ in mine for oid in oids],
                        dtype=np.int64,
                    ),
                    payloads=[payload for _, payload in mine],
                    pidx=np.repeat(
                        np.arange(len(mine)), [len(oids) for oids, _ in mine]
                    ),
                )
            )


@given(
    prelude=st.lists(_batches, max_size=3),
    built=st.lists(_few, max_size=3),
    sends=_sends,
    seed=st.integers(0, 5),
)
@settings(max_examples=150, deadline=None)
def test_a_grouped_subround_flush_equals_its_sends_one_by_one(
    prelude, built, sends, seed
):
    """A subround's downlinks grouped by kind and applied through the
    phase — to nodes built or not, over rows installed, muted or absent
    — leave every node as the same messages dispatched one by one, in
    send order, to eagerly built nodes: regions in dict order,
    ``_reported``, ``known_answers``, and the stream both fleets send
    from then on (probe replies, then a tick's reports, whose order
    within a node is its dict order)."""
    lazy = _build_mode(seed, "plain", lazy=True)
    eager = _build_mode(seed, "plain")
    for sim in (lazy, eager):
        sim.step()
    for op in prelude:
        _play(lazy, op, "plain", 0)
        _play(eager, op, "plain", 0, batched=False)
    for sim in (lazy, eager):
        sim.step()  # a violated band is muted now
    for oid in built:
        lazy.mobiles[oid]
    runs = _subround(lazy, sends)
    wires = [_recorded_wire(lazy), _recorded_wire(eager)]
    _flush(lazy, runs)
    for kind, oids, payload in runs:
        for oid in oids:
            _deliver(eager, oid, kind, payload)
    assert not lazy.channel.stats.materialized_messages
    for sim in (lazy, eager):
        sim.step()
    assert wires[0] == wires[1]
    for oid in range(N):
        got, want = lazy.mobiles[oid], eager.mobiles[oid]
        for sim in (lazy, eager):
            sim.client_phase._sync_node(oid)
        assert list(got.regions.items()) == list(want.regions.items())
        assert got._reported == want._reported
        assert list(got.known_answers.items()) == list(
            want.known_answers.items()
        )
        assert got._last_sent == want._last_sent


def _recorded_wire(sim) -> List:
    """What ``sim`` delivers from now on, batches expanded, per drain."""
    wire: List = []
    collect = sim.channel.collect

    def recording_collect():
        items = collect()
        wire.append(on_the_wire(items))
        return items

    sim.channel.collect = recording_collect
    return wire


def _flushed(n: int = N) -> RoundSimulator:
    """A plain fleet after its registration tick, nothing touched."""
    sim = _build(_waypoint_fleet(n=n))
    sim.step()
    sim.client_phase.flush_touched()
    return sim


def test_batch_receivers_are_current_without_a_flush():
    sim = _flushed()
    phase = sim.client_phase
    _install_batch(sim, [5, 2, 9], 1, BAND_ANSWER, "in", 400.0)
    _install_batch(sim, [2, 7], 0, BAND_OUTSIDER, "in", 5.0)
    _revoke_batch(sim, [9, 3], 1)
    assert not phase._touched
    assert not sim.channel.stats.materialized_by_kind
    assert _table_rows(phase) == _armed(sim)
    assert set(_armed(sim)) == {(5, 1), (2, 1), (2, 0), (7, 0)}
    assert np.nonzero(phase._attention)[0].tolist() == [2, 5, 7]
    # one region object for the whole flight: regions are immutable
    assert sim.mobiles[5].regions[1] is sim.mobiles[2].regions[1]


def test_batch_rearms_a_muted_region():
    sim = _flushed()
    phase = sim.client_phase
    _install(sim, 4, 2, BAND_ANSWER, "out", 30.0)
    _checked_step(sim)  # violated: reports, and the region is muted
    assert sim.mobiles[4]._reported == {2}
    assert (4, 2) not in _table_rows(phase)  # muted: no row
    _install_batch(sim, [4, 11], 2, BAND_ANSWER, "out", 30.0)
    assert not sim.mobiles[4]._reported
    assert _table_rows(phase) == _armed(sim) and (4, 2) in _armed(sim)
    _checked_step(sim)  # armed again: a candidate again, reports again
    assert sim.mobiles[4]._reported == {2}


def test_an_unbuilt_candidate_reports_without_being_built():
    """A timer-free candidate nobody has built runs its tick-start on
    the phase's columns: building it instead costs ``p_dense`` ~3x its
    GC time per tick (DESIGN §8, *Nodes on demand*). The report mutes
    the row, and the node built afterwards holds it in ``_reported``."""
    sim = _build(_waypoint_fleet(), lazy=True)
    phase = sim.client_phase
    sim.step()  # registration: everyone reports, on the columns
    _install_batch(sim, [4], 2, BAND_ANSWER, "out", 30.0)
    before = sim.channel.stats.sent_by_kind[MessageKind.VIOLATION]
    sim.step()
    assert sim.mobiles.built() == []
    assert sim.channel.stats.sent_by_kind[MessageKind.VIOLATION] == before + 1
    assert phase.regions.muted[phase.regions.rows_of(np.array([4]))[0]].all()
    assert sim.mobiles[4]._reported == {2}


def test_batch_hits_a_node_already_touched():
    sim = _flushed()
    phase = sim.client_phase
    _install_batch(sim, [6, 8], 0, BAND_ANSWER, "in", 400.0)
    # Scalar traffic leaves node 6 touched, its rows stale until the
    # flush: query 0 is gone from the node, query 3 not yet in the table.
    _deliver(sim, 6, MessageKind.REVOKE_REGION, RevokeBand(0))
    _install(sim, 6, 3, BAND_QUERY_CIRCLE, "in", 50.0)
    assert phase._touched == {6}
    _install_batch(sim, [8, 6], 1, BAND_OUTSIDER, "in", 5.0)
    _revoke_batch(sim, [6], 3)
    assert phase._touched == {6}  # neither added nor flushed by a batch
    phase.flush_touched()
    assert _table_rows(phase) == _armed(sim)
    assert set(_armed(sim)) == {(8, 0), (8, 1), (6, 1)}


def test_revoking_a_nodes_last_region_clears_attention():
    sim = _flushed()
    phase = sim.client_phase
    _install_batch(sim, [1, 2], 0, BAND_ANSWER, "in", 400.0)
    _install_batch(sim, [2], 3, BAND_ANSWER, "in", 400.0)
    assert phase._attention[[1, 2]].all()
    _revoke_batch(sim, [2, 1], 0)
    assert phase._attention[[1, 2]].tolist() == [False, True]
    assert not sim.mobiles[1].regions and list(sim.mobiles[2].regions) == [3]
    assert _table_rows(phase) == _armed(sim)


def test_revoking_a_query_the_node_does_not_hold():
    sim = _flushed()
    phase = sim.client_phase
    _install_batch(sim, [1, 2], 0, BAND_ANSWER, "in", 400.0)
    before = _table_rows(phase)
    _revoke_batch(sim, [2, 1, 7], 3)
    assert _table_rows(phase) == before == _armed(sim)
    assert np.nonzero(phase._attention)[0].tolist() == [1, 2]
    assert not phase._touched


def test_table_grows_when_a_batch_is_larger_than_the_free_rows():
    sim = _flushed(n=200)
    phase = sim.client_phase
    assert phase.regions.live.shape[0] == 0
    everyone = list(range(200))
    _install_batch(sim, everyone[:5], 0, BAND_ANSWER, "in", 400.0)
    size = phase.regions.live.shape[0]
    assert size >= 5
    _install_batch(sim, everyone, 1, BAND_OUTSIDER, "in", 5.0)
    assert phase.regions.live.shape[0] > size
    assert int(phase.regions.live.sum()) == 205
    assert _table_rows(phase) == _armed(sim)


def test_batches_the_node_must_see_itself_are_declined(monkeypatch):
    """Declined means expanded: the flight reaches the nodes' own
    handlers as scalar messages, whatever they do with it."""
    sim = _flushed()
    phase = sim.client_phase
    expanded = sim.channel.stats.materialized_by_kind
    # epoch-stamped, on nodes that do not ack: applied, not acked
    _install_batch(sim, [3, 4], 0, BAND_ANSWER, "in", 400.0, epoch=7)
    assert expanded[MessageKind.INSTALL_REGION] == 2
    assert phase._touched == {3, 4}
    assert not sim.channel.stats.sent_by_kind[MessageKind.INSTALL_ACK]
    # a band code the node has no region class for
    monkeypatch.delitem(_BAND_CLASSES, BAND_QUERY_CIRCLE)
    with pytest.raises(KeyError):
        _install_batch(sim, [5], 0, BAND_QUERY_CIRCLE, "in", 400.0)
    assert expanded[MessageKind.INSTALL_REGION] == 3
    # a payload of the wrong type
    with pytest.raises(ProtocolError):
        _deliver_batch(sim, MessageKind.REVOKE_REGION, [5], ProbeRequest())
    phase.flush_touched()
    assert _table_rows(phase) == _armed(sim)


def test_rows_are_reused_and_the_table_stays_small():
    """Whichever writer claims the rows: the touched refresh after
    scalar installs (``rewrite``), or a batch written through
    (``install``)."""
    everyone = list(range(N))
    for batched in (False, True):
        sim = _build(_waypoint_fleet())
        phase = sim.client_phase
        sim.step()
        for round_ in range(30):
            for qid in QIDS:
                _install_batch(
                    sim, everyone, qid, BANDS[qid % 3], "in", 500.0,
                    batched=batched,
                )
            phase.flush_touched()
            assert int(phase.regions.live.sum()) == N * len(QIDS)
        assert phase.regions.live.shape[0] <= 2 * N * len(QIDS)
        for qid in QIDS:
            _revoke_batch(sim, everyone, qid, batched=batched)
        phase.flush_touched()
        assert not phase.regions.live.any()


@pytest.mark.parametrize("band", BANDS)
def test_row_predicate_is_the_region_class_predicate_at_the_boundary(band):
    """Objects installed on, and a few ulps either side of, the radius
    and the slack-widened radius: the table's squared-limit compare
    must flip exactly where ``SafeRegion.violated`` flips."""
    sim = _build(_waypoint_fleet(seed=9, n=60))
    phase = sim.client_phase
    sim.step()
    xs, ys = sim.fleet.positions.xs, sim.fleet.positions.ys
    flips = 0
    for scale in (1.0, 1.0 + REGION_EPS, 1.0 - REGION_EPS):
        for ulps in range(-3, 4):
            for oid in range(60):
                x, y = sim.fleet.positions[oid]
                ax, ay = x + 3.0 * (oid + 1), y - 1.7 * (oid + 1)
                radius = math.sqrt((x - ax) ** 2 + (y - ay) ** 2) / scale
                for _ in range(abs(ulps)):
                    radius = math.nextafter(radius, math.inf * ulps)
                _deliver(
                    sim, oid, MessageKind.INSTALL_REGION,
                    InstallBand(0, band, ax, ay, radius),
                )
            phase.flush_touched()
            want = {
                n.oid for n in sim.mobiles
                if n.regions[0].violated(*sim.fleet.positions[n.oid])
            }
            table = phase.regions
            assert set(table.oid[table.violated(xs, ys)].tolist()) == want
            flips += 0 < len(want) < 60
    assert flips  # the sweep did straddle the predicate's edge


class _OddBand(AnswerBand):
    """A region class the table has no row kind for."""


def test_unknown_region_class_is_left_to_the_node():
    sim = _build(_waypoint_fleet())
    phase = sim.client_phase
    planner = DknnWakeupPlanner(sim)
    sim.step()
    _install(sim, 4, 0, BAND_ANSWER, "in", 400.0)
    band = sim.mobiles[4].regions[0]
    sim.mobiles[4].regions[0] = _OddBand(band.ax, band.ay, band.radius)
    calls = []
    sim.mobiles[4].on_tick_start = lambda tick: calls.append(tick)
    for _ in range(3):
        sim.step()
    assert calls == [2, 3, 4]  # a candidate every tick, as before
    act, resolve = planner.wakeups(np.arange(N), sim.tick)
    assert (act[4], resolve[4]) == (sim.tick + 1, -1)


# -- batched re-plan == the per-node planner it replaced ---------------------


def _linear_fleet(seed: int) -> FastFleet:
    rng = np.random.default_rng(seed)
    return FastFleet(
        [
            LinearMover(
                U, rng.uniform(50, 550), rng.uniform(50, 550),
                rng.uniform(-60, 60), rng.uniform(-60, 60),
            )
            for _ in range(N - 1)
        ]
        + [LinearMover(U, 300.0, 300.0, 0.0, 0.0)],
        seed=seed,
    )


def _stationary_fleet(seed: int) -> FastFleet:
    rng = np.random.default_rng(seed)
    return FastFleet(
        [
            StationaryMover(U, rng.uniform(0, 600), rng.uniform(0, 600))
            for _ in range(N)
        ],
        seed=seed,
    )


def _from(model):
    return lambda seed: FastFleet.from_model(model, N, seed=seed)


#: kernel -> (fleet factory, claim modes the run must have exercised).
KERNELS = {
    "stationary": (_stationary_fleet, {STILL}),
    # fast and boxed in: reflections within a tick (_wall_horizon < 1)
    # fall back to the speed bound; one mover has zero velocity.
    "linear": (_linear_fleet, {LINE, GENERIC, STILL}),
    "waypoint": (
        _from(RandomWaypointModel(U, speed_min=8.0, speed_max=30.0, pause_max=3)),
        {LINE, LAND, HOLD},
    ),
    "gaussian": (_from(GaussianClusterModel(U, sigma=80.0)), {LINE, LAND}),
    "hotspot-drift": (
        _from(HotspotDriftModel(U, sigma=80.0, drift_radius=100.0)),
        {LINE, LAND},
    ),
    # leg_left <= 0 at every renewal: GENERIC.
    "direction": (_from(RandomDirectionModel(U)), {LINE, GENERIC}),
    "commute": (
        _from(
            MostlyStationaryModel(
                U, speed_min=8.0, speed_max=30.0, moving_fraction=1.0,
                period=9, active_ticks=4,
            )
        ),
        {LINE, LAND, HOLD},
    ),
    # no kernel: the speed bound alone
    "road": (
        _from(
            RoadNetworkModel(U, rows=6, cols=6, speed_min=8.0, speed_max=30.0)
        ),
        {GENERIC},
    ),
}

REGION_MIXES = {
    "none": (),
    "answer": (BAND_ANSWER,),
    "outsider": (BAND_OUTSIDER,),
    "circle": (BAND_QUERY_CIRCLE,),
    "mixed": BANDS,
    "muted": BANDS,
}


def _force_corner_cases(kernel: str, fleet: FastFleet) -> None:
    """Put one object in a state the motion rarely produces by itself."""
    kern = fleet._kernels[0]
    if kernel in ("waypoint", "gaussian", "hotspot-drift"):
        # sitting exactly on its target: dist == 0
        kern.tx[0] = fleet._xs[kern.oids[0]]
        kern.ty[0] = fleet._ys[kern.oids[0]]
    elif kernel == "commute":
        kern.speed[0] = 0.0  # zero-speed trip, parked short of its target


REPLAN_MD5 = {
    "stationary-none-plain": "be187c7623036c1872daa6a90a5c1c6e",
    "stationary-answer-plain": "2b3fa5d01a03f4e01bc4214440681fa4",
    "stationary-outsider-plain": "2b3fa5d01a03f4e01bc4214440681fa4",
    "stationary-circle-plain": "2b3fa5d01a03f4e01bc4214440681fa4",
    "stationary-mixed-plain": "981d63cd5a83cc3548686143fdddf20a",
    "stationary-muted-plain": "be187c7623036c1872daa6a90a5c1c6e",
    "linear-none-plain": "fd721faac15c612cac891afc046bbd1d",
    "linear-answer-plain": "efd78812b04c1cb38da2eb9df700dda6",
    "linear-outsider-plain": "7b2c6eab891757123200492cbcb4ddb9",
    "linear-circle-plain": "efd78812b04c1cb38da2eb9df700dda6",
    "linear-mixed-plain": "20fbeb9d7b1e9fc85942b93527f7ea75",
    "linear-muted-plain": "fd721faac15c612cac891afc046bbd1d",
    "waypoint-none-plain": "d6d7ab7e0eb0f729facb1e2090ab8a7f",
    "waypoint-answer-plain": "12d967b211fa89d0a47b6129e76f05c3",
    "waypoint-outsider-plain": "b6b32058b8fa2a484458d2bf5fb1f7cd",
    "waypoint-circle-plain": "12d967b211fa89d0a47b6129e76f05c3",
    "waypoint-mixed-plain": "7269bf07a78b8dbb1f70e694b26ec394",
    "waypoint-muted-plain": "d6d7ab7e0eb0f729facb1e2090ab8a7f",
    "gaussian-none-plain": "965be66a8efe78610dbf53327c2d95bc",
    "gaussian-answer-plain": "1eba232219ac652554e54534b3f176bc",
    "gaussian-outsider-plain": "da5f5e6767880a734b8e7db8593737fd",
    "gaussian-circle-plain": "1eba232219ac652554e54534b3f176bc",
    "gaussian-mixed-plain": "74db8049e460f2b121b35dca25fc05bb",
    "gaussian-muted-plain": "965be66a8efe78610dbf53327c2d95bc",
    "hotspot-drift-none-plain": "d4dc80d6b4709266cca15bf5c7594cf9",
    "hotspot-drift-answer-plain": "3b891b14161f94434050ef232479407c",
    "hotspot-drift-outsider-plain": "afd954860f3df1a0f27c2f13edcdb9f3",
    "hotspot-drift-circle-plain": "3b891b14161f94434050ef232479407c",
    "hotspot-drift-mixed-plain": "70c4d29fb11fb8530b557e539d16463a",
    "hotspot-drift-muted-plain": "d4dc80d6b4709266cca15bf5c7594cf9",
    "direction-none-plain": "a3f4e622dcac7df650ec094a48f89869",
    "direction-answer-plain": "a3f4e622dcac7df650ec094a48f89869",
    "direction-outsider-plain": "a3f4e622dcac7df650ec094a48f89869",
    "direction-circle-plain": "a3f4e622dcac7df650ec094a48f89869",
    "direction-mixed-plain": "a3f4e622dcac7df650ec094a48f89869",
    "direction-muted-plain": "a3f4e622dcac7df650ec094a48f89869",
    "commute-none-plain": "e31481010d52c7c288759db7f4cc0b3e",
    "commute-answer-plain": "bee5afbf0efe5091be28be79ca287c27",
    "commute-outsider-plain": "1d9769c945c0c21d40d29ecca762ad74",
    "commute-circle-plain": "bee5afbf0efe5091be28be79ca287c27",
    "commute-mixed-plain": "4076d2e19a257142595a002db459305c",
    "commute-muted-plain": "e31481010d52c7c288759db7f4cc0b3e",
    "road-none-plain": "bdf917504aa4b7f28d7326c160bbd55f",
    "road-answer-plain": "f18744ac53e2ec89274ad5096d761f38",
    "road-outsider-plain": "016d7bddfbff7eda729e436b99849544",
    "road-circle-plain": "f18744ac53e2ec89274ad5096d761f38",
    "road-mixed-plain": "d6622a72eadeff9acc1b01161676d6a5",
    "road-muted-plain": "bdf917504aa4b7f28d7326c160bbd55f",
}

RANDOM_CHECKS_MD5 = {
    "stationary": "228bd8820a468036e4d18ea63232ca1f",
    "linear": "91a77e7123db0cee4716391606a8407d",
    "waypoint": "9a1a6c3abada7989698adb2f430e5141",
    "gaussian": "2e74bf9f224d389ea910ffa6fdfdce9f",
    "hotspot-drift": "2620eedb8acb92e4559bc62a45013f03",
    "direction": "0c4f2cd5c953b58e50150ddffb86fdce",
    "commute": "79ceb872ed872fa25039062f7ba8aafb",
    "road": "eeef32d841068acf3e2fc00d8373a599",
}


def _digest(per_tick: List[List]) -> str:
    """md5 of every tick's ``[(act, resolve), ...]``, None for -1."""
    return hashlib.md5(
        repr(
            [
                [(None if a < 0 else a, None if r < 0 else r) for a, r in tick]
                for tick in per_tick
            ]
        ).encode()
    ).hexdigest()


# plain nodes only: a hardened build gets no planner (``planner_for``)
@pytest.mark.parametrize("nodes", ["plain"])
@pytest.mark.parametrize("mix", list(REGION_MIXES))
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_batched_replan_equals_scalar_wakeup(kernel, mix, nodes):
    make, expected_modes = KERNELS[kernel]
    fleet = make(seed=7)
    sim = _build(fleet)
    planner = DknnWakeupPlanner(sim)
    oids = np.arange(fleet.n)
    seen: Set[int] = set()
    per_tick: List[List] = []
    for tick in range(1, 46):
        sim.step()
        if tick % 6 == 1:
            # (re-)arm: reported regions would otherwise stay muted, the
            # sink never repairs anything
            for oid in range(fleet.n):
                for qid, band in enumerate(REGION_MIXES[mix]):
                    place = ("in", "in", "edge", "out")[(oid + qid) % 4]
                    _install(sim, oid, qid, band, place, 10.0 + 9.0 * oid)
                if mix == "muted":
                    sim.mobiles[oid]._reported.update(range(len(BANDS)))
        if tick == 3:
            _force_corner_cases(kernel, fleet)
        act, resolve = planner.wakeups(oids, sim.tick)
        per_tick.append(list(zip(act.tolist(), resolve.tolist())))
        seen.update(fleet.motion_claims(oids).mode.tolist())
    key = f"{kernel}-{mix}-{nodes}"
    assert _digest(per_tick) == REPLAN_MD5[key]
    assert expected_modes <= seen


def _solve(fleet, checks_of) -> List:
    """One ``solve_claims`` call over the whole fleet; a check is
    ``(cx, cy, radius, enter)``."""
    flat = [(i, c) for i in range(fleet.n) for c in checks_of[i]]
    rows = CheckRows(
        np.array([i for i, _ in flat]),
        *(np.array(column) for column in zip(*(c for _, c in flat))),
    )
    act, resolve = solve_claims(
        fleet.motion_claims(np.arange(fleet.n)), fleet.positions.xs,
        fleet.positions.ys, rows, fleet.max_speeds,
    )
    return list(zip(act.tolist(), resolve.tolist()))


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_array_solvers_equal_scalar_solvers_on_random_checks(kernel):
    """The crossing claims directly, without the planner's check
    building: up to three random checks per object, satisfied, violated
    or crossed soon, re-drawn every tick of a run."""
    fleet = KERNELS[kernel][0](seed=11)
    rng = random.Random(5)
    per_tick = []
    for tick in range(40):
        fleet.advance()
        checks_of = []
        for oid in range(fleet.n):
            x, y = fleet.positions[oid]
            checks = []
            for _ in range(rng.randint(1, 3)):
                cx, cy = rng.uniform(0, 600), rng.uniform(0, 600)
                d = math.hypot(x - cx, y - cy)
                r = max(d + rng.choice((-1, 1, 1)) * rng.uniform(0.5, 90.0), 0.0)
                checks.append((cx, cy, r, rng.choice((False, True))))
            checks_of.append(checks)
        per_tick.append(_solve(fleet, checks_of))
    assert _digest(per_tick) == RANDOM_CHECKS_MD5[kernel]


def test_a_check_met_exactly_on_its_boundary_acts_next_tick():
    """A line claim from exactly on a check's boundary: not violated,
    but any motion may violate — act=1, for either kind."""
    fleet = FastFleet(
        [LinearMover(U, 100.0, 100.0, 3.0, 4.0) for _ in range(3)], seed=0
    )
    checks_of = [
        [(103.0, 104.0, 5.0, False)],
        [(130.0, 140.0, 50.0, True)],
        [(103.0, 104.0, 6.0, False)],  # control: strictly inside
    ]
    assert _solve(fleet, checks_of) == [(1, -1), (1, -1), (2, -1)]


def test_subset_and_order_do_not_matter():
    """Any id subset gets the answers the whole fleet gets."""
    sim = _build(_waypoint_fleet(seed=5, n=60))
    planner = DknnWakeupPlanner(sim)
    for tick in range(1, 12):
        sim.step()
        if tick == 2:
            for oid in range(60):
                _install(sim, oid, oid % 3, BANDS[oid % 3], "in", 25.0)
    act, resolve = planner.wakeups(np.arange(60), sim.tick)
    some = np.array([3, 8, 9, 31, 58])
    a, r = planner.wakeups(some, sim.tick)
    assert a.tolist() == act[some].tolist()
    assert r.tolist() == resolve[some].tolist()
    a, r = planner.wakeups(np.empty(0, dtype=np.int64), sim.tick)
    assert a.shape == r.shape == (0,)


def test_scalar_fleet_or_scalar_clients_fall_back_whole():
    """Without kernel columns (plain Fleet) or without the vectorized
    phase there is nothing to plan from: no planner, and the event
    engine runs every tick in full."""
    model = RandomWaypointModel(U, speed_min=8.0, speed_max=30.0, pause_max=3)
    assert planner_for(_build(Fleet.from_model(model, N, seed=3))) is None
    assert planner_for(_build(_waypoint_fleet(), phase=False)) is None
    assert planner_for(_build(_waypoint_fleet())) is not None
