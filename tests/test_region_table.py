"""The DKNN-P client phase against nodes built up front.

``DknnSilentPhase`` is the whole client side of a fault-free DKNN-P
build: a node is a row of its columns — drift mirrors, a flag for
holding a region, rows of the region table (the muted ones its
``_reported``) and pushed answers — and no node object is built. The
oracle is a phase-less twin: the same fleet with every node built up
front and no client phase, so each node runs its own ``on_tick_start``
every tick and every message reaches its own handler.

Both are driven by hand: ``SinkServer`` swallows every uplink and the
tests play the server's part. The phase gets a subround's downlinks as
the server flushes them, one flight per kind in ``_FLUSH_ORDER``; the
twin gets the same messages one by one, in send order. What the phase
holds of each node must be what the twin node holds, and both must put
the same messages on the wire.
"""

from __future__ import annotations

import math
from typing import List, Tuple

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
from repro.errors import ProtocolError
from repro.geometry import Rect
from repro.geometry.region import REGION_EPS
from repro.mobility import FastFleet, Fleet, RandomWaypointModel
from repro.net.engine import EngineConfig, EventDriver
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


def _waypoint_fleet(seed: int = 3, n: int = N) -> FastFleet:
    model = RandomWaypointModel(U, speed_min=8.0, speed_max=30.0, pause_max=3)
    return FastFleet.from_model(model, n, seed=seed)


def _phased(fleet) -> RoundSimulator:
    """The build's client side: a population nothing has built, held
    by the phase."""
    return RoundSimulator(
        fleet, SinkServer(),
        Population(
            fleet.n, DknnMobileNode,
            lambda oid: DknnMobileNode(oid, fleet, theta=THETA),
        ),
        client_phase=DknnSilentPhase(THETA),
    )


def _twin(fleet) -> RoundSimulator:
    """The oracle: every node built up front, no client phase."""
    return RoundSimulator(
        fleet, SinkServer(),
        [DknnMobileNode(oid, fleet, theta=THETA) for oid in range(fleet.n)],
    )


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


def _flight(kind: MessageKind, dsts, payloads, pidx) -> ColumnarBatch:
    return ColumnarBatch(
        kind, src=SERVER_ID, dsts=np.array(dsts, dtype=np.int64),
        payloads=payloads, pidx=np.array(pidx, dtype=np.int64),
    )


def _deliver_batch(sim, kind: MessageKind, dsts, payload) -> None:
    """One run of one payload as a downlink flight of its own."""
    sim._deliver_batch(_flight(kind, dsts, [payload], [0] * len(dsts)))


def _install_batch(sim, dsts, *args, **kwargs) -> None:
    """Placed relative to the first receiver."""
    _deliver_batch(
        sim, MessageKind.INSTALL_REGION, dsts,
        _band(sim, dsts[0], *args, **kwargs),
    )


def _revoke_batch(sim, dsts, qid) -> None:
    _deliver_batch(sim, MessageKind.REVOKE_REGION, dsts, RevokeBand(qid))


def _held(phase, oid: int) -> Tuple:
    """What the phase holds of node ``oid``: its regions in dict order,
    ``_reported``, ``_last_sent`` and ``known_answers``."""
    table = phase.regions
    rows = table.rows_of(np.array([oid]))[0]
    rows = rows[np.argsort(table.order[rows], kind="stable")]
    regions = [
        (int(q), type(r), r.ax, r.ay, r.radius)
        for q, r in zip(table.qid[rows], table.region[rows])
    ]
    for row, (q, cls, ax, ay, r) in zip(rows.tolist(), regions):
        # the row's columns are its region's
        want = (_BAND_CLASSES[int(table.kind[row])], table.ax[row],
                table.ay[row], table.radius[row])
        assert (cls, ax, ay, r) == want
    x, y = float(phase._sent_x[oid]), float(phase._sent_y[oid])
    return (
        regions,
        {int(q) for q in table.qid[rows[table.muted[rows]]]},
        None if math.isnan(x) else (x, y),
        list(phase._answers.get(oid, {}).items()),
    )


def _node(node: DknnMobileNode) -> Tuple:
    """The same of a built node."""
    return (
        [(q, type(r), r.ax, r.ay, r.radius) for q, r in node.regions.items()],
        node._reported,
        node._last_sent,
        list(node.known_answers.items()),
    )


def _same(phased, twin) -> None:
    """Every node of ``phased`` is, in the phase's columns, its twin."""
    phase = phased.client_phase
    for node in twin.mobiles:
        assert _held(phase, node.oid) == _node(node), node.oid
        assert phase._attention[node.oid] == bool(node.regions)
    assert phased.mobiles.nodes is None


def _recorded_wire(sim) -> List:
    """What ``sim`` delivers from now on, per drain, batches expanded:
    each sender's messages in its order, the senders by oid (a phase
    sends its drift-only updates and its report flight as two runs,
    nodes send in turn)."""
    wire: List = []
    collect = sim.channel.collect

    def recording_collect():
        items = collect()
        wire.append(sorted(on_the_wire(items), key=lambda m: m[1]))
        return items

    sim.channel.collect = recording_collect
    return wire


_oids = st.integers(0, N - 1)
_places = st.sampled_from(("in", "out", "edge"))
#: a subround's sends, drawn loosely over a few nodes (so runs meet on
#: a node and a query often); ``_subround`` shapes them. An install
#: may carry an epoch and a lease, which a plain node ignores.
_few = st.integers(0, 5)
_runs = st.lists(st.one_of(_few, _oids), min_size=1, max_size=6, unique=True)
_sends = st.lists(
    st.one_of(
        st.tuples(
            st.just(MessageKind.INSTALL_REGION), _runs, st.sampled_from(QIDS),
            st.sampled_from(BANDS), _places, st.floats(2.0, 80.0),
            st.sampled_from([-1, 0, 7]), st.sampled_from([0, 6]),
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
    max_size=12,
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
                *place, epoch, lease = send[2:]
                payload = _band(
                    sim, send[1][0], *place, epoch=epoch, lease=lease
                )
        if oids:
            runs.append((kind, oids, payload))
    return runs


def _flush(sim, runs) -> None:
    """``runs`` as the server's outbox leaves: one flight per kind, in
    ``_FLUSH_ORDER``, send order within a kind."""
    for kind in _FLUSH_ORDER:
        mine = [(oids, payload) for k, oids, payload in runs if k is kind]
        if mine:
            sim._deliver_batch(_flight(
                kind, [oid for oids, _ in mine for oid in oids],
                [payload for _, payload in mine],
                np.repeat(np.arange(len(mine)), [len(o) for o, _ in mine]),
            ))


def _one_by_one(sim, runs) -> None:
    for kind, oids, payload in runs:
        for oid in oids:
            _deliver(sim, oid, kind, payload)


@given(
    ops=st.lists(
        st.one_of(_sends, st.just("step")), min_size=1, max_size=12
    ),
    seed=st.integers(0, 5),
)
@settings(max_examples=150, deadline=None)
def test_a_grouped_subround_flush_equals_its_sends_one_by_one(ops, seed):
    """Drawn subrounds — re-installs and duplicates, a planner band
    then a revoke, installs stamped with an epoch and a lease, probes,
    answer pushes — between ticks: each subround's downlinks grouped by
    kind and taken by the phase leave every node, in the phase's
    columns, as the same messages dispatched one by one in send order
    leave its twin — regions in dict order, ``_reported``, the drift
    origin, pushed answers, whether it holds a region — and both put
    the same stream on the wire: probe replies, then each tick's drift
    and violation reports, whose candidates are exactly the nodes that
    send."""
    phased, twin = _phased(_waypoint_fleet(seed)), _twin(_waypoint_fleet(seed))
    wires = [_recorded_wire(phased), _recorded_wire(twin)]
    for sim in (phased, twin):
        sim.step()  # everyone registers
    for op in ops + ["step"]:
        if op == "step":
            for sim in (phased, twin):
                sim.step()
        else:
            runs = _subround(phased, op)
            _flush(phased, runs)
            _one_by_one(twin, runs)
        _same(phased, twin)
    assert not phased.channel.stats.materialized_messages
    assert wires[0] == wires[1]


def test_batch_receivers_are_current_without_a_flush():
    """Install and revoke flights write their receivers' rows as the
    flight is delivered; a run's receivers share its one region
    object (regions are immutable values)."""
    phased, twin = _phased(_waypoint_fleet()), _twin(_waypoint_fleet())
    runs = []
    for sim in (phased, twin):
        sim.step()
    runs.append((MessageKind.INSTALL_REGION, [5, 2, 9],
                 _band(phased, 5, 1, BAND_ANSWER, "in", 400.0)))
    runs.append((MessageKind.INSTALL_REGION, [2, 7],
                 _band(phased, 2, 0, BAND_OUTSIDER, "in", 5.0)))
    for kind, oids, payload in runs:
        _deliver_batch(phased, kind, oids, payload)
    _revoke_batch(phased, [9, 3], 1)
    _one_by_one(twin, runs + [
        (MessageKind.REVOKE_REGION, [9, 3], RevokeBand(1))
    ])
    _same(phased, twin)
    phase = phased.client_phase
    assert not phased.channel.stats.materialized_by_kind
    assert np.nonzero(phase._attention)[0].tolist() == [2, 5, 7]
    rows = phase.regions.rows_of(np.array([5, 2]))[0]
    mine = rows[phase.regions.qid[rows] == 1]
    assert mine.shape[0] == 2
    assert phase.regions.region[mine[0]] is phase.regions.region[mine[1]]


def test_batch_rearms_a_muted_region():
    sim = _phased(_waypoint_fleet())
    phase = sim.client_phase
    table = phase.regions
    sent = sim.channel.stats.sent_by_kind
    sim.step()
    _install_batch(sim, [4], 2, BAND_ANSWER, "out", 30.0)
    sim.step()  # violated: reports, and the row is muted
    assert sent[MessageKind.VIOLATION] == 1
    assert table.muted[table.rows_of(np.array([4]))[0]].all()
    _install_batch(sim, [4, 11], 2, BAND_ANSWER, "out", 30.0)
    assert not table.muted[table.live].any()
    sim.step()  # armed again: candidates again, report again
    assert sent[MessageKind.VIOLATION] == 3


def test_an_unbuilt_candidate_reports_without_being_built():
    """A candidate's tick-start runs on the phase's columns: the
    report leaves in the tick's report flight and mutes the row, and
    no node is built (building one per candidate cost ``p_dense`` ~3x
    its GC time per tick: DESIGN §8)."""
    sim = _phased(_waypoint_fleet())
    phase = sim.client_phase
    sim.step()  # registration: everyone reports, on the columns
    _install_batch(sim, [4], 2, BAND_ANSWER, "out", 30.0)
    before = sim.channel.stats.sent_by_kind[MessageKind.VIOLATION]
    sim.step()
    assert sim.mobiles.nodes is None
    assert sim.channel.stats.sent_by_kind[MessageKind.VIOLATION] == before + 1
    assert phase.regions.muted[phase.regions.rows_of(np.array([4]))[0]].all()


def test_revoking_a_nodes_last_region_clears_attention():
    sim = _phased(_waypoint_fleet())
    phase = sim.client_phase
    sim.step()
    _install_batch(sim, [1, 2], 0, BAND_ANSWER, "in", 400.0)
    _install_batch(sim, [2], 3, BAND_ANSWER, "in", 400.0)
    assert phase._attention[[1, 2]].all()
    _revoke_batch(sim, [2, 1], 0)
    assert phase._attention[[1, 2]].tolist() == [False, True]
    assert _held(phase, 1)[0] == []
    assert [q for q, *_ in _held(phase, 2)[0]] == [3]


def test_revoking_a_query_the_node_does_not_hold():
    sim = _phased(_waypoint_fleet())
    phase = sim.client_phase
    sim.step()
    _install_batch(sim, [1, 2], 0, BAND_ANSWER, "in", 400.0)
    before = [_held(phase, oid) for oid in range(N)]
    _revoke_batch(sim, [2, 1, 7], 3)
    assert [_held(phase, oid) for oid in range(N)] == before
    assert np.nonzero(phase._attention)[0].tolist() == [1, 2]


def test_table_grows_when_a_batch_is_larger_than_the_free_rows():
    sim = _phased(_waypoint_fleet(n=200))
    phase = sim.client_phase
    sim.step()
    assert phase.regions.live.shape[0] == 0
    everyone = list(range(200))
    _install_batch(sim, everyone[:5], 0, BAND_ANSWER, "in", 400.0)
    size = phase.regions.live.shape[0]
    assert size >= 5
    _install_batch(sim, everyone, 1, BAND_OUTSIDER, "in", 5.0)
    assert phase.regions.live.shape[0] > size
    assert int(phase.regions.live.sum()) == 205
    assert [len(_held(phase, oid)[0]) for oid in everyone] == [2] * 5 + [
        1
    ] * 195


def test_a_flight_no_node_takes_is_refused(monkeypatch):
    """An install stamped with an epoch and a lease is taken: a plain
    node ignores both. A flight its handler refuses — a band code with
    no region class, a payload of the wrong type — raises in the phase:
    nothing is expanded into scalar messages and no node is built."""
    sim = _phased(_waypoint_fleet())
    phase = sim.client_phase
    sim.step()
    expanded = sim.channel.stats.materialized_by_kind
    _install_batch(sim, [3, 4], 0, BAND_ANSWER, "in", 400.0, epoch=7, lease=6)
    assert not expanded and phase._attention[[3, 4]].all()
    assert not sim.channel.stats.sent_by_kind[MessageKind.INSTALL_ACK]
    monkeypatch.delitem(_BAND_CLASSES, BAND_QUERY_CIRCLE)
    with pytest.raises(ProtocolError):
        _install_batch(sim, [5], 0, BAND_QUERY_CIRCLE, "in", 400.0)
    with pytest.raises(ProtocolError):
        _deliver_batch(sim, MessageKind.REVOKE_REGION, [5], ProbeRequest())
    assert not expanded and not phase._attention[5]
    assert sim.mobiles.nodes is None


def test_rows_are_reused_and_the_table_stays_small():
    everyone = list(range(N))
    sim = _phased(_waypoint_fleet())
    phase = sim.client_phase
    sim.step()
    for _ in range(30):
        for qid in QIDS:
            _install_batch(sim, everyone, qid, BANDS[qid % 3], "in", 500.0)
        assert int(phase.regions.live.sum()) == N * len(QIDS)
    assert phase.regions.live.shape[0] <= 2 * N * len(QIDS)
    for qid in QIDS:
        _revoke_batch(sim, everyone, qid)
    assert not phase.regions.live.any()


@pytest.mark.parametrize("band", BANDS)
def test_row_predicate_is_the_region_class_predicate_at_the_boundary(band):
    """Objects installed on, and a few ulps either side of, the radius
    and the slack-widened radius: the table's squared-limit compare
    must flip exactly where ``SafeRegion.violated`` flips."""
    sim = _phased(_waypoint_fleet(seed=9, n=60))
    phase = sim.client_phase
    sim.step()
    xs, ys = sim.fleet.positions.xs, sim.fleet.positions.ys
    flips = 0
    for scale in (1.0, 1.0 + REGION_EPS, 1.0 - REGION_EPS):
        for ulps in range(-3, 4):
            payloads = []
            for oid in range(60):
                x, y = sim.fleet.positions[oid]
                ax, ay = x + 3.0 * (oid + 1), y - 1.7 * (oid + 1)
                radius = math.sqrt((x - ax) ** 2 + (y - ay) ** 2) / scale
                for _ in range(abs(ulps)):
                    radius = math.nextafter(radius, math.inf * ulps)
                payloads.append(InstallBand(0, band, ax, ay, radius))
            sim._deliver_batch(_flight(
                MessageKind.INSTALL_REGION, range(60), payloads, range(60)
            ))
            want = {
                oid for oid, p in enumerate(payloads)
                if _BAND_CLASSES[band](p.ax, p.ay, p.radius).violated(
                    *sim.fleet.positions[oid]
                )
            }
            table = phase.regions
            assert set(table.oid[table.violated(xs, ys)].tolist()) == want
            flips += 0 < len(want) < 60
    assert flips  # the sweep did straddle the predicate's edge


def test_scalar_fleet_or_scalar_clients_fall_back_whole():
    """Without kernels to say whether the fleet moved (plain Fleet), or
    without the vectorized phase, stillness cannot be observed: the
    event engine runs every tick in full."""
    model = RandomWaypointModel(U, speed_min=8.0, speed_max=30.0, pause_max=3)

    def skipping(sim) -> bool:
        return EventDriver(sim, EngineConfig(mode="event")).skipping

    assert not skipping(_phased(Fleet.from_model(model, N, seed=3)))
    assert not skipping(_twin(_waypoint_fleet()))
    assert skipping(_phased(_waypoint_fleet()))


def test_a_phase_binds_only_to_plain_nodes_nobody_built():
    """What the columns cannot hold is refused at bind: hardened nodes
    (their clocks fire off no position), a population with a node
    built, a list of built nodes."""
    fleet = _waypoint_fleet()
    hardened = Population(
        fleet.n, HardenedDknnNode,
        lambda oid: HardenedDknnNode(oid, fleet, THETA, 3),
    )
    plain = Population(
        fleet.n, DknnMobileNode, lambda oid: DknnMobileNode(oid, fleet, THETA)
    )
    plain[3]
    built = [DknnMobileNode(oid, fleet, THETA) for oid in range(fleet.n)]
    for mobiles, match in (
        (hardened, "HardenedDknnNode"), (plain, "before any node is built"),
        (built, "before any node is built"),
    ):
        with pytest.raises(ProtocolError, match=match):
            RoundSimulator(
                fleet, SinkServer(), mobiles,
                client_phase=DknnSilentPhase(THETA),
            )
