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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import BroadcastInstall, GeocastInstall
from repro.experiments.algorithms import ALGORITHMS, build_system
from repro.experiments.config import RunConfig
from repro.geometry import Rect
from repro.mobility import (
    FastFleet,
    FastReplayFleet,
    Fleet,
    GaussianClusterModel,
    LinearMover,
    RandomDirectionModel,
    RandomWaypointModel,
    ReplayFleet,
    StationaryMover,
    record_trace,
)
from repro.net.faults import FaultPlan
from repro.net.message import BROADCAST_ID, SERVER_ID, Message, MessageKind
from repro.workloads.generator import build_workload
from repro.workloads.spec import WorkloadSpec
from tests.helpers import built_system, reference_system

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

#: one step of a random delivery history: a deferred install (query
#: index, epoch, answer ids, infinite threshold?, receiver bits or None
#: for a full broadcast) or a touch of one node.
_install_ops = st.tuples(
    st.just("install"),
    st.integers(0, 2),
    st.integers(0, 4),
    st.lists(st.integers(0, REPLAY_N - 1), max_size=3, unique=True),
    st.booleans(),
    st.none() | st.lists(st.booleans(), min_size=REPLAY_N, max_size=REPLAY_N),
)
_touch_ops = st.tuples(st.just("touch"), st.integers(0, REPLAY_N - 1))


def _node_state(node):
    return (
        list(node.monitors.items()),  # order is the uplink order
        node._reported,
        node.known_answers,
        getattr(node, "_epochs", None),
    )


@pytest.mark.parametrize("algorithm", ["DKNN-B", "DKNN-G"])
@given(ops=st.lists(_install_ops | _touch_ops, max_size=60))
@settings(max_examples=150, deadline=None)
def test_coalesced_replay_matches_sequential_walk(algorithm, ops):
    """The coalesced ``_replay`` against the linear one it replaced.

    The oracle is the old machinery kept here: an append-only log and
    twin nodes that run their handler on *every* pending install they
    were reachable for, in delivery order. After each touch, from
    whatever point that node had caught up to (and whatever the log has
    dropped since), both nodes must hold the same monitors in the same
    dict order, the same ``_reported`` (pre-seeded, so re-arming is
    observable), known answers and epochs; and every handler call the
    oracle made is accounted for as delivered or superseded.
    """
    spec = WorkloadSpec(
        ticks=1, warmup_ticks=0, seed=5, n_objects=REPLAY_N - 3, n_queries=3,
        k=2,
    )
    fleet, queries = build_workload(spec)
    assert fleet.n == REPLAY_N
    sim = build_system(RunConfig(algorithm), fleet, queries)
    phase = sim.client_phase
    qids = sorted(phase._qidx)
    nodes = phase._node_of
    twins = [type(n)(n.oid, fleet, my_qids=n.my_qids) for n in nodes]
    for node, twin in zip(nodes, twins):
        node._reported.update(qids)
        twin._reported.update(qids)
    oracle_log = []
    caught_up = [0] * REPLAY_N
    oracle_calls = 0

    def touch(oid):
        nonlocal oracle_calls
        phase._replay(nodes[oid])
        for msg, mask in oracle_log[caught_up[oid]:]:
            if mask is None or mask[oid]:
                twins[oid].on_message(msg)
                oracle_calls += 1
        caught_up[oid] = len(oracle_log)
        assert _node_state(nodes[oid]) == _node_state(twins[oid])

    for op in ops:
        if op[0] == "touch":
            touch(op[1])
            continue
        _, qi, epoch, answer, trivial, bits = op
        threshold = float("inf") if trivial else 100.0 + epoch
        args = (qids[qi], 10.0 * qi, 5.0, threshold, 1.0, tuple(answer))
        if algorithm == "DKNN-G" and not trivial:
            payload = GeocastInstall(*args, cover=500.0, epoch=epoch)
        else:
            payload = BroadcastInstall(*args)  # epoch 0 to a geocast node
        msg = Message(
            MessageKind.BROADCAST_INSTALL, SERVER_ID, BROADCAST_ID, payload
        )
        mask = None if bits is None else np.array(bits)
        phase._defer_install(msg, mask)
        oracle_log.append((msg, mask))
    for oid in range(REPLAY_N):
        touch(oid)
    assert phase._replayed + phase._superseded == oracle_calls
    assert phase._replayed <= oracle_calls


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


def test_fast_replay_fleet_matches_scalar_replay():
    model = RandomWaypointModel(UNIVERSE, speed_min=20.0, speed_max=45.0)
    trace = record_trace(Fleet.from_model(model, 50, seed=3), 20)
    scalar = ReplayFleet(trace)
    fast = FastReplayFleet(trace)
    assert _trajectories(fast, ticks=20) == _trajectories(scalar, ticks=20)
