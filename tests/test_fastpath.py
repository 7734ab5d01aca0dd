"""Bit-identity of the build against the per-object reference loop.

What ``build_system`` builds — vectorized client phase, SoA fleet,
columnar plane — must be *indistinguishable* from the per-object
reference (``tests/helpers.py::reference_system``): same per-tick
answers, same messages (count, kind, bytes, delivery accounting), same
cost-meter units, same fleet trajectories, same RNG stream — for every
protocol, and also under an active fault plan. These tests pin that
contract end to end; the unit-level counterparts for the index/oracle
live in ``test_index_vectorized.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import (
    BroadcastInstall,
    CollectRequest,
    GeocastInstall,
    ProbeRequest,
)
from repro.errors import ProtocolError
from repro.experiments.algorithms import ALGORITHMS, build_system
from repro.experiments.config import RunConfig
from repro.geometry import Rect
from repro.mobility import (
    CommuteMover,
    FastFleet,
    FastReplayFleet,
    Fleet,
    GaussianClusterModel,
    HotspotDriftModel,
    LinearMover,
    RandomDirectionModel,
    RandomWaypointModel,
    RandomWaypointMover,
    ReplayFleet,
    StationaryMover,
    record_trace,
)
from repro.net.channel import Channel
from repro.net.faults import FaultPlan
from repro.net.message import (
    BROADCAST_ID,
    GEOCAST_ID,
    SERVER_ID,
    Message,
    MessageKind,
)
from repro.workloads.generator import build_workload
from repro.workloads.spec import WorkloadSpec
from tests.helpers import built_system, on_the_wire, reference_system

TICKS = 25


def _run(algorithm, build, faults=None, n=250, ticks=TICKS):
    spec = WorkloadSpec(
        ticks=ticks, warmup_ticks=0, seed=42, n_objects=n, n_queries=6, k=5
    )
    cfg = RunConfig(algorithm, record_history=True, faults=faults)
    sim, _ = build(cfg, spec)
    fleet = sim.fleet
    answers = []

    def snap(s):
        hist = getattr(s.server, "history", None)
        if hist is not None:
            answers.append(
                {qid: tuple(a[-1]) if a else None for qid, a in hist.items()}
            )

    sim.run(ticks, on_tick=snap)
    stats = sim.channel.stats
    meter = getattr(sim.server, "meter", None)
    return {
        "answers": answers,
        "messages": dict(stats.sent_by_kind),
        "bytes": dict(stats.bytes_by_kind),
        "delivered": (stats.delivered, stats.broadcast_receptions),
        "meter": dict(meter.units) if meter is not None else None,
        "positions": [tuple(p) for p in fleet.positions],
    }


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fast_path_bit_identical(algorithm):
    scalar = _run(algorithm, reference_system)
    fast = _run(algorithm, built_system)
    assert fast["positions"] == scalar["positions"]
    assert fast["messages"] == scalar["messages"]
    assert fast["bytes"] == scalar["bytes"]
    assert fast["delivered"] == scalar["delivered"]
    assert fast["meter"] == scalar["meter"]
    assert fast["answers"] == scalar["answers"]


@pytest.mark.parametrize(
    "algorithm,plan_kwargs",
    [
        (
            "DKNN-P",
            dict(
                seed=7,
                drop_uplink=0.08,
                drop_downlink=0.08,
                dup_prob=0.03,
                delay_prob=0.05,
                delay_ticks=2,
                blackouts=((13, 8, 12), (77, 15, 18)),
                crashes=((201, 20),),
            ),
        ),
        (
            "DKNN-B",
            dict(
                seed=11,
                drop_uplink=0.05,
                drop_downlink=0.05,
                dup_prob=0.02,
                delay_prob=0.04,
                delay_ticks=1,
            ),
        ),
        (
            "DKNN-G",
            dict(
                seed=11,
                drop_uplink=0.05,
                drop_downlink=0.05,
                dup_prob=0.02,
                delay_prob=0.04,
                delay_ticks=1,
                blackouts=((31, 5, 9),),
            ),
        ),
    ],
)
def test_fast_path_bit_identical_under_faults(algorithm, plan_kwargs):
    """The regression the fast path must survive: an active FaultPlan.

    Faulty channels consume the shared RNG stream per message and down
    nodes must be skipped in exactly the scalar order, so any fast-path
    deviation (extra send, reordered dispatch) shows up as a diverged
    run, not a subtle statistic.
    """
    scalar = _run(algorithm, reference_system, FaultPlan(**plan_kwargs))
    fast = _run(algorithm, built_system, FaultPlan(**plan_kwargs))
    assert fast["positions"] == scalar["positions"]
    assert fast["messages"] == scalar["messages"]
    assert fast["bytes"] == scalar["bytes"]
    assert fast["delivered"] == scalar["delivered"]
    assert fast["meter"] == scalar["meter"]
    assert fast["answers"] == scalar["answers"]


# -- lazy install replay ------------------------------------------------------

REPLAY_N = 12  # fleet of the replay property: 9 objects + 3 focal nodes

_oids = st.integers(0, REPLAY_N - 1)
_install = (
    st.integers(0, 2),  # query index
    st.integers(0, 4),  # epoch
    _oids,  # the node the anchor sits on
    st.sampled_from((50.0, 3000.0, float("inf"))),  # threshold
    st.lists(_oids, max_size=3, unique=True),  # answer ids
)
#: one step of a random delivery history. Installs are deferred (heard
#: by the nodes whose receiver bit is set; None = a full broadcast); an
#: install dispatched to one node as a scalar message, or geocast with a
#: plain BroadcastInstall payload, must be refused; a collect, a probe
#: and a tick are the three things that reach a node in between.
_ops = st.one_of(
    st.tuples(
        st.just("install"),
        *_install,
        st.none() | st.lists(st.booleans(), min_size=REPLAY_N, max_size=REPLAY_N),
    ),
    st.tuples(st.just("unicast"), *_install, _oids),
    st.tuples(st.just("geocast"), *_install),
    st.tuples(
        st.just("collect"),
        st.integers(0, 2),
        _oids,
        st.sampled_from((300.0, 4000.0, 20000.0)),
    ),
    st.tuples(st.just("probe"), _oids),
    st.tuples(st.just("tick")),
)

#: the fault-plan variant: nodes that miss installs, collects, probes
#: and tick-starts while down (ticks advance on the "tick" op).
REPLAY_PLAN = dict(
    blackouts=((2, 1, 4), (7, 3, 6), (10, 2, 9), (REPLAY_N - 1, 2, 5)),
    crashes=((5, 6),),
)


def _node_state(node):
    epochs = getattr(node, "_epochs", None)
    return (
        list(node.monitors.items()),  # order is the uplink order
        set(node._reported),
        dict(node.known_answers),
        None if epochs is None else dict(epochs),
    )


def _mirror_state(phase):
    """Everything the broadcast phase mirrors or logs of the nodes."""
    arrays = (
        phase._ax, phase._ay, phase._bound, phase._member, phase._armed,
        phase._reported, phase._final, phase._first, phase._pending,
        phase._applied,
    )
    epoch = None if phase._epoch is None else phase._epoch.tolist()
    return [a.tolist() for a in arrays] + [epoch, phase._seq, list(phase._log)]


def _replay_system(algorithm, faulty):
    """The builder's system of the replay properties: REPLAY_N objects,
    3 queries, under REPLAY_PLAN if ``faulty``; no node built yet."""
    spec = WorkloadSpec(
        ticks=1, warmup_ticks=0, seed=5, n_objects=REPLAY_N - 3, n_queries=3,
        k=2,
    )
    fleet, queries = build_workload(spec)
    assert fleet.n == REPLAY_N
    plan = FaultPlan(**REPLAY_PLAN) if faulty else None
    return build_system(RunConfig(algorithm, faults=plan), fleet, queries)


def _install_message(sim, algorithm, qi, epoch, anchor, threshold, answer,
                     dst, plain=False):
    """The install an ``_ops`` step draws: a GeocastInstall for DKNN-G
    unless ``plain`` or never-violated (infinite threshold), else a
    BroadcastInstall (epoch 0 to a geocast node)."""
    ax, ay = sim.fleet.positions[anchor]
    qid = sorted(sim.client_phase._qidx)[qi]
    args = (qid, ax, ay, threshold, 20.0, tuple(answer))
    if not plain and algorithm == "DKNN-G" and threshold != float("inf"):
        payload = GeocastInstall(*args, cover=500.0, epoch=epoch)
    else:
        payload = BroadcastInstall(*args)
    return Message(MessageKind.BROADCAST_INSTALL, SERVER_ID, dst, payload)


@pytest.mark.parametrize("algorithm", ["DKNN-B", "DKNN-G"])
@given(ops=st.lists(_ops, max_size=60), faulty=st.booleans())
@settings(max_examples=150, deadline=None)
def test_coalesced_replay_matches_sequential_walk(algorithm, ops, faulty):
    """Deferred, coalesced install replay against eager delivery.

    The oracle is a twin of every node on a channel of its own that
    gets what the per-object loop would give it, when it would: every
    install it is reachable for on delivery, every collect that covers
    it, every probe, and its tick-start every tick. The built nodes
    get their installs through the phase — deferred, coalesced, and
    replayed only before a candidate tick-start — while collects,
    probes and ticks reach them in any order in between. Both sides
    must send the same messages in the same order after every step (a
    ``COLLECT_REPLY`` batch expanded in place), and wherever scalar code
    reads what installs write — at each candidate tick-start and at the
    end — the node holds the twin's monitors in the same dict order,
    the same ``_reported`` (pre-seeded, so re-arming is observable),
    known answers and epochs. Every handler call the oracle made for a
    deferred install is accounted for as delivered or superseded.
    Installs have one way in: one dispatched to a single node, or
    geocast with a payload the phase cannot mirror, raises
    ``ProtocolError`` and leaves every node and the mirror as they were.
    """
    sim = _replay_system(algorithm, faulty)
    fleet, plan, phase = sim.fleet, sim.faults, sim.client_phase
    qids = sorted(phase._qidx)
    nodes = list(sim.mobiles)
    twins = [type(n)(n.oid, fleet, my_qids=n.my_qids) for n in nodes]
    twin_channel = Channel()
    twin_channel.register(SERVER_ID)
    reads = []

    def watch(node, twin):
        run = node.on_tick_start

        def on_tick_start(tick):
            assert _node_state(node) == _node_state(twin)
            reads.append(node.oid)
            run(tick)

        node.on_tick_start = on_tick_start

    for node, twin in zip(nodes, twins):
        twin.attach(twin_channel)
        node._reported.update(qids)
        twin._reported.update(qids)
        watch(node, twin)
    area = GEOCAST_ID if algorithm == "DKNN-G" else BROADCAST_ID
    oracle_calls = 0
    ticks = 0

    def up(oid):
        return plan is None or not plan.is_down(oid, sim.tick)

    def install_message(*args, plain=False):
        return _install_message(sim, algorithm, *args, plain=plain)

    def refused(deliver, msg):
        before = _mirror_state(phase), [_node_state(n) for n in nodes]
        with pytest.raises(ProtocolError):
            deliver(msg)
        assert (_mirror_state(phase), [_node_state(n) for n in nodes]) == before

    for op in ops:
        if op[0] == "install":
            msg = install_message(*op[1:6], BROADCAST_ID)
            heard = [up(oid) and (op[6] is None or op[6][oid])
                     for oid in range(REPLAY_N)]
            if op[6] is None:
                assert phase.deliver_area(msg)
            else:
                phase._defer_install(msg, np.array(heard))
            for oid in np.nonzero(heard)[0]:
                twins[oid].on_message(msg)
                oracle_calls += 1
        elif op[0] == "unicast":
            oid = op[6]
            msg = install_message(*op[1:6], oid)
            refused(lambda m: sim._dispatch(nodes[oid], m), msg)
        elif op[0] == "geocast":
            refused(
                phase.deliver_area,
                install_message(*op[1:6], GEOCAST_ID, plain=True),
            )
        elif op[0] == "collect":
            cx, cy = fleet.positions[op[2]]
            request = CollectRequest(qids[op[1]], cx, cy, op[3])
            msg = Message(MessageKind.COLLECT, SERVER_ID, area, request)
            assert phase.deliver_area(msg)
            for twin in twins:
                if up(twin.oid) and (
                    area == BROADCAST_ID or request.covers(*twin.position)
                ):
                    twin.on_message(msg)
        elif op[0] == "probe":
            oid = op[1]
            msg = Message(MessageKind.PROBE, SERVER_ID, oid, ProbeRequest())
            if up(oid):
                sim._dispatch(nodes[oid], msg)
                twins[oid].on_message(msg)
        else:
            ticks += 1
            fleet.advance()
            sim.tick = fleet.tick
            sim.channel.begin_tick(sim.tick)
            twin_channel.begin_tick(sim.tick)
            ran = len(reads)
            phase.tick_start(sim.tick)  # reads compare against the twins
            for twin in twins:
                if up(twin.oid):
                    twin.on_tick_start(sim.tick)
            for oid in reads[ran:]:
                # what the tick-start reported is muted in the mirror
                told = [qid in nodes[oid]._reported for qid in qids]
                assert not (phase._armed[:, oid] & told).any()
        assert on_the_wire(sim.channel.collect()) == on_the_wire(
            twin_channel.collect()
        )
    for node, twin in zip(nodes, twins):
        phase._replay(node)
        assert _node_state(node) == _node_state(twin)
    assert phase._replayed + phase._superseded == oracle_calls
    assert phase._replayed <= oracle_calls
    if not faulty:
        assert len(reads) >= ticks * len(qids)  # the focal nodes


@pytest.mark.parametrize("faulty", [False, True], ids=["plain", "faulty"])
@pytest.mark.parametrize("algorithm", ["DKNN-B", "DKNN-G"])
@given(
    ops=st.lists(
        st.one_of(_ops, st.tuples(st.just("build"), _oids)), max_size=60
    )
)
@settings(max_examples=150, deadline=None)
def test_a_late_built_broadcast_node_equals_its_eager_twin(
    algorithm, faulty, ops
):
    """Twin builder's systems fed the same steps: nodes built on demand
    against nodes built up front. The lazy side binds its phase without
    a node and builds one only when scalar code needs it — a candidate
    tick-start, a collect answered by handlers, a probe, a refused
    unicast install — or on a drawn ``build`` op; the eager side builds
    them all before the first op. A node built late gets no state
    written onto it: it must hold what its eager twin holds when it is
    built, at every candidate tick-start (after its replay) and at the
    end, both phases must mirror the same cells and replay the same
    installs, and both must put the same stream on the wire."""
    lazy = _replay_system(algorithm, faulty)
    assert lazy.mobiles.built() == []
    eager = _replay_system(algorithm, faulty)
    list(eager.mobiles)
    sims = (lazy, eager)
    #: per side, (oid, node state) at each candidate tick-start
    reads = ([], [])
    for sim, log in zip(sims, reads):
        replay = sim.client_phase._replay

        def recorded(node, replay=replay, log=log):
            replay(node)
            log.append((node.oid, _node_state(node)))

        sim.client_phase._replay = recorded
    area = GEOCAST_ID if algorithm == "DKNN-G" else BROADCAST_ID

    def message(op):
        """The op's message, one object for both sides (monitors hold
        the install itself); the fleets stand on the same positions."""
        if op[0] in ("install", "unicast", "geocast"):
            dst = {"install": BROADCAST_ID, "geocast": GEOCAST_ID}
            return _install_message(
                lazy, algorithm, *op[1:6], dst.get(op[0], op[-1]),
                plain=op[0] == "geocast",
            )
        if op[0] == "collect":
            cx, cy = lazy.fleet.positions[op[2]]
            qid = sorted(lazy.client_phase._qidx)[op[1]]
            request = CollectRequest(qid, cx, cy, op[3])
            return Message(MessageKind.COLLECT, SERVER_ID, area, request)
        if op[0] == "probe":
            return Message(MessageKind.PROBE, SERVER_ID, op[1], ProbeRequest())
        return None

    def play(sim, op, msg):
        phase, plan = sim.client_phase, sim.faults

        def up(oid):
            return plan is None or not plan.is_down(oid, sim.tick)

        if op[0] == "install":
            if op[6] is None:
                assert phase.deliver_area(msg)
            else:
                heard = [up(oid) and op[6][oid] for oid in range(REPLAY_N)]
                phase._defer_install(msg, np.array(heard))
        elif op[0] == "unicast":
            with pytest.raises(ProtocolError):
                sim._dispatch(sim.mobiles[msg.dst], msg)
        elif op[0] == "geocast":
            with pytest.raises(ProtocolError):
                phase.deliver_area(msg)
        elif op[0] == "collect":
            assert phase.deliver_area(msg)
        elif op[0] == "probe":
            if up(msg.dst):
                sim._dispatch(sim.mobiles[msg.dst], msg)
        else:
            sim.fleet.advance()
            sim.tick = sim.fleet.tick
            sim.channel.begin_tick(sim.tick)
            phase.tick_start(sim.tick)

    def same(oid):
        assert _node_state(lazy.mobiles[oid]) == _node_state(eager.mobiles[oid])

    for op in ops:
        if op[0] == "build":
            same(op[1])
            continue
        msg = message(op)
        for sim in sims:
            play(sim, op, msg)
        assert reads[0] == reads[1]
        assert on_the_wire(lazy.channel.collect()) == on_the_wire(
            eager.channel.collect()
        )
    for oid in range(REPLAY_N):
        same(oid)
        for sim in sims:
            sim.client_phase._replay(sim.mobiles[oid])
        same(oid)
    got, want = lazy.client_phase, eager.client_phase
    assert _mirror_state(got) == _mirror_state(want)
    assert (got._replayed, got._superseded) == (
        want._replayed, want._superseded
    )


def test_reporting_candidate_is_rearmed_by_the_mirror_alone():
    """A candidate's tick-start mutes the queries it reports in the
    mirror on the spot, and the install that answers it in the same
    tick arms them again — the phase has no way to re-read a node. The
    run equals the reference tick for tick, and it contains objects
    that violated the same query's band in consecutive ticks, which
    takes a re-arm."""
    ticks = 40
    spec = WorkloadSpec(
        ticks=ticks, warmup_ticks=0, seed=42, n_objects=2_000, n_queries=8,
        k=5,
    )
    cfg = RunConfig("DKNN-B")
    scalar, _ = reference_system(cfg, spec)
    fast, _ = built_system(cfg, spec)

    reports = []  # (tick, oid, qid) of every VIOLATION the build sends
    send = fast.channel.send

    def logged(kind, src, dst, payload=None):
        if kind is MessageKind.VIOLATION:
            reports.append((fast.tick, src, payload.qid))
        return send(kind, src, dst, payload)

    fast.channel.send = logged
    for _ in range(ticks):
        scalar.step()
        fast.step()
        assert fast.server.answers == scalar.server.answers
        assert fast.channel.stats.sent_by_kind == scalar.channel.stats.sent_by_kind
        assert fast.channel.stats.bytes_by_kind == scalar.channel.stats.bytes_by_kind
    seen = set(reports)
    assert any((t + 1, oid, qid) in seen for t, oid, qid in reports)


def test_replay_cost_is_stationary():
    """Tick cost of the lazy-install machinery must not grow with run
    age: per touch at most two handler calls per query, a replay log
    bounded by the query count — and still the reference run, tick for
    tick.
    """
    ticks, n_queries = 160, 8
    spec = WorkloadSpec(
        ticks=ticks, warmup_ticks=0, seed=42, n_objects=2_000,
        n_queries=n_queries, k=5,
    )

    cfg = RunConfig("DKNN-B")
    scalar, _ = reference_system(cfg, spec)
    fast, _ = built_system(cfg, spec)
    phase = fast.client_phase
    replay = phase._replay
    worst_touch = 0

    def counted_replay(node):
        nonlocal worst_touch
        before = phase._replayed
        replay(node)
        worst_touch = max(worst_touch, phase._replayed - before)

    phase._replay = counted_replay
    for _ in range(ticks):
        scalar.step()
        fast.step()
        assert fast.server.answers == scalar.server.answers
        assert fast.channel.stats.sent_by_kind == scalar.channel.stats.sent_by_kind
        assert fast.channel.stats.bytes_by_kind == scalar.channel.stats.bytes_by_kind
        assert len(phase._log) <= 2 * n_queries
    installs = scalar.channel.stats.sent_by_kind[MessageKind.BROADCAST_INSTALL]
    assert installs > 10 * n_queries  # far more installs than log slots
    assert 0 < worst_touch <= 2 * n_queries


# -- fleet backends -----------------------------------------------------------


UNIVERSE = Rect(0.0, 0.0, 5_000.0, 5_000.0)


def _trajectories(fleet, ticks=30):
    frames = [[tuple(p) for p in fleet.positions]]
    for _ in range(ticks):
        fleet.advance()
        frames.append([tuple(p) for p in fleet.positions])
    return frames


@pytest.mark.parametrize(
    "model_fn",
    [
        lambda: RandomWaypointModel(UNIVERSE, speed_min=20.0, speed_max=45.0),
        lambda: RandomDirectionModel(UNIVERSE, speed_min=15.0, speed_max=40.0),
        lambda: GaussianClusterModel(
            UNIVERSE, n_hotspots=5, sigma=300.0, speed_min=10.0, speed_max=35.0
        ),
    ],
    ids=["waypoint", "direction", "gaussian"],
)
def test_fast_fleet_matches_scalar_fleet(model_fn):
    scalar = Fleet.from_model(model_fn(), 120, seed=31)
    fast = FastFleet.from_model(model_fn(), 120, seed=31)
    assert _trajectories(fast) == _trajectories(scalar)
    # The shared RNG stream must be in the same state afterwards, or a
    # later consumer (a faulty channel) would diverge.
    assert fast._rng.random() == scalar._rng.random()


def test_fast_fleet_matches_scalar_fleet_mixed_movers():
    movers = [
        StationaryMover(UNIVERSE, 100.0 * i + 50.0, 200.0) for i in range(10)
    ] + [
        LinearMover(UNIVERSE, 50.0, 100.0 * i + 50.0, 12.5, -7.25)
        for i in range(10)
    ]
    model = RandomWaypointModel(UNIVERSE, speed_min=20.0, speed_max=45.0)
    scalar = Fleet.from_model(model, 40, seed=8, extra_movers=movers)
    movers2 = [
        StationaryMover(UNIVERSE, 100.0 * i + 50.0, 200.0) for i in range(10)
    ] + [
        LinearMover(UNIVERSE, 50.0, 100.0 * i + 50.0, 12.5, -7.25)
        for i in range(10)
    ]
    model2 = RandomWaypointModel(UNIVERSE, speed_min=20.0, speed_max=45.0)
    fast = FastFleet.from_model(model2, 40, seed=8, extra_movers=movers2)
    assert _trajectories(fast) == _trajectories(scalar)


class _SubclassedWaypoint(RandomWaypointMover):
    """Not an exact kernel class: steps scalar every tick."""


SMALL = Rect(0.0, 0.0, 1_000.0, 1_000.0)
#: one mover factory per kernel class, over a universe small enough for
#: arrivals, pauses, leg renewals, wall bounces and commute windows to
#: come round within a few dozen ticks.
_MOVER_KINDS = {
    "waypoint": RandomWaypointModel(SMALL, 20.0, 60.0, pause_max=3).make_mover,
    "gaussian": GaussianClusterModel(
        SMALL, n_hotspots=3, sigma=150.0, speed_min=10.0, speed_max=50.0
    ).make_mover,
    "drift": HotspotDriftModel(
        SMALL, sigma=150.0, speed_min=10.0, speed_max=50.0,
        drift_radius=300.0, drift_period=16,
    ).make_mover,
    "direction": RandomDirectionModel(SMALL, 15.0, 55.0, 1, 6).make_mover,
    "linear": lambda rng: LinearMover(
        SMALL, rng.uniform(0.0, 1e3), rng.uniform(0.0, 1e3),
        rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0),
    ),
    "stationary": lambda rng: StationaryMover(
        SMALL, rng.uniform(0.0, 1e3), rng.uniform(0.0, 1e3)
    ),
    "commute": lambda rng: CommuteMover(SMALL, 20.0, 60.0, 7, 4),
    "scalar": lambda rng: _SubclassedWaypoint(SMALL, 20.0, 60.0, 2),
}


@given(
    kinds=st.lists(st.sampled_from(sorted(_MOVER_KINDS)), max_size=30).flatmap(
        lambda extra: st.permutations(sorted(_MOVER_KINDS) + extra)
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_fast_fleet_matches_scalar_fleet_over_interleaved_kernels(kinds, seed):
    """Every kernel class at shuffled oids, so most kernels gather and
    scatter and their events interleave with other kernels' in the
    ascending-oid scalar loop: 40 ticks equal the scalar fleet's, and
    the shared RNG ends in the same state."""

    def fleet(cls):
        rng = random.Random(seed)
        return cls([_MOVER_KINDS[k](rng) for k in kinds], seed=seed)

    scalar, fast = fleet(Fleet), fleet(FastFleet)
    assert _trajectories(fast, ticks=40) == _trajectories(scalar, ticks=40)
    assert fast._rng.random() == scalar._rng.random()


def test_positions_read_before_an_advance_keep_that_tick():
    """``positions.xs`` / ``.ys`` are the live buffers: an array read
    before an ``advance`` still holds that tick after it, and the view
    holds the new tick."""
    model = RandomWaypointModel(UNIVERSE, speed_min=20.0, speed_max=45.0)
    scalar = Fleet.from_model(model, 60, seed=4)
    fast = FastFleet.from_model(model, 60, seed=4)
    for _ in range(3):
        xs, ys = fast.positions.xs, fast.positions.ys
        before = list(scalar.positions)
        scalar.advance()
        fast.advance()
        assert list(zip(xs.tolist(), ys.tolist())) == before
        now = list(zip(fast.positions.xs.tolist(), fast.positions.ys.tolist()))
        assert now == scalar.positions != before


def test_fast_replay_fleet_matches_scalar_replay():
    model = RandomWaypointModel(UNIVERSE, speed_min=20.0, speed_max=45.0)
    trace = record_trace(Fleet.from_model(model, 50, seed=3), 20)
    scalar = ReplayFleet(trace)
    fast = FastReplayFleet(trace)
    assert _trajectories(fast, ticks=20) == _trajectories(scalar, ticks=20)
