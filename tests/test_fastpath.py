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

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from repro.geometry.region import REGION_EPS
from repro.mobility import (
    CommuteMover,
    FastFleet,
    Fleet,
    GaussianClusterModel,
    GaussianClusterMover,
    HotspotDriftModel,
    LinearMover,
    RandomDirectionModel,
    RandomWaypointModel,
    RandomWaypointMover,
    StationaryMover,
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
from tests.helpers import (
    built_system, logged_sends, messages_of, on_the_wire, reference_system,
)

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


# -- the broadcast mirror against the scalar nodes ----------------------------

MIRROR_N = 12  # fleet of the mirror property: 9 objects + 3 focal nodes

_oids = st.integers(0, MIRROR_N - 1)
_install = (
    st.integers(0, 2),  # query index
    st.integers(0, 4),  # epoch
    _oids,  # the node the anchor sits on
    st.sampled_from((50.0, 3000.0, float("inf"))),  # threshold
    st.lists(_oids, max_size=3, unique=True),  # answer ids
)
#: one step of a random delivery history. An install is heard by the
#: nodes whose receiver bit is set (None = a full broadcast); an
#: install dispatched to one node as a scalar message, or geocast with a
#: plain BroadcastInstall payload, must be refused; a collect, a probe
#: and a tick are the three things that reach a node in between.
_ops = st.one_of(
    st.tuples(
        st.just("install"),
        *_install,
        st.none() | st.lists(st.booleans(), min_size=MIRROR_N, max_size=MIRROR_N),
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


def _oracle_view(node):
    """A scalar node's monitor view, per query in ``monitors`` order
    (its uplink order): qid, anchor, the limit its tick-start compares
    against, whether it fires beyond that limit (answer member or the
    focal's own query) rather than inside it, armed, reported, epoch."""
    epochs = getattr(node, "_epochs", None)
    view = []
    for qid, mon in node.monitors.items():
        # BroadcastMobileNode.on_tick_start's three float expressions.
        if qid in node.my_qids:
            limit = mon.s * (1.0 + REGION_EPS)
        elif node.oid in mon.answer_ids:
            limit = (mon.threshold - mon.s) * (1.0 + REGION_EPS)
        else:
            limit = (mon.threshold + mon.s) * (1.0 - REGION_EPS)
        reported = qid in node._reported
        view.append((
            qid, mon.ax, mon.ay, limit,
            qid in node.my_qids or node.oid in mon.answer_ids,
            not reported and not math.isinf(mon.threshold),
            reported,
            None if epochs is None else epochs[qid],
        ))
    return view


def _mirror_view(phase, oid):
    """The same view read off the broadcast phase's cells of ``oid``
    (through the shared row or the per-cell columns, whichever holds
    it): the queries it has heard an install for, in ``_first`` order."""
    first = phase._first[:, oid]
    heard = sorted(np.flatnonzero(first >= 0), key=lambda qi: first[qi])
    return [
        (
            phase._qids[qi],
            *phase._cell(qi, oid),
            None if phase._epoch is None else int(phase._epoch[qi, oid]),
        )
        for qi in heard
    ]


def _mirror_state(phase):
    """Everything the broadcast phase holds of the nodes: the shared
    rows' payloads and every cell column."""
    rows = [
        None if row is None
        else (*row[:3], row[3].tolist(), row[4].tolist(), row[5])
        for row in phase._row
    ]
    arrays = (
        phase._ax, phase._ay, phase._bound, phase._member, phase._armed,
        phase._reported, phase._first, phase._epoch,
    )
    return [rows] + [None if a is None else a.tolist() for a in arrays] + [
        phase._seq, list(phase._unseen)
    ]


def _mirror_system(algorithm):
    """The builder's system of the mirror property: MIRROR_N objects,
    3 queries; no node built yet."""
    spec = WorkloadSpec(
        ticks=1, warmup_ticks=0, seed=5, n_objects=MIRROR_N - 3, n_queries=3,
        k=2,
    )
    fleet, queries = build_workload(spec)
    assert fleet.n == MIRROR_N
    return build_system(RunConfig(algorithm), fleet, queries)


def _install_message(sim, algorithm, qi, epoch, anchor, threshold, answer,
                     dst, plain=False):
    """The install an ``_ops`` step draws: a GeocastInstall for DKNN-G
    unless ``plain`` or never-violated (infinite threshold), else a
    BroadcastInstall (epoch 0 to a geocast node)."""
    ax, ay = sim.fleet.positions[anchor]
    qid = sim.client_phase._qids[qi]
    args = (qid, ax, ay, threshold, 20.0, tuple(answer))
    if not plain and algorithm == "DKNN-G" and threshold != float("inf"):
        payload = GeocastInstall(*args, cover=500.0, epoch=epoch)
    else:
        payload = BroadcastInstall(*args)
    return Message(MessageKind.BROADCAST_INSTALL, SERVER_ID, dst, payload)


#: a history that takes query 0's row shared -> per-cell -> shared with
#: reports muted in between.
_SWITCH = [
    ("install", 0, 0, 3, 50.0, [1, 4], None),
    ("tick",),
    ("install", 0, 1, 5, 50.0, [2, 3], [True] * 6 + [False] * 6),
    ("tick",),
    ("install", 0, 2, 7, 3000.0, [0, 8], None),
    ("tick",),
    ("install", 1, 1, 8, 50.0, [6], None),
    ("tick",),
]


@pytest.mark.parametrize("algorithm", ["DKNN-B", "DKNN-G"])
@given(ops=st.lists(_ops, max_size=60))
@example(ops=_SWITCH)
@settings(max_examples=150, deadline=None)
def test_the_mirror_is_the_eager_oracle(algorithm, ops):
    """The broadcast phase's cells against eagerly built scalar nodes.

    The oracle is a twin of every node on a channel of its own that
    gets what the per-object loop would give it, when it would: every
    install it is reachable for, every collect that covers it, every
    probe, and its tick-start every tick. The build gets the same steps
    through its phase, which no node's handler or tick-start sees an
    install through. After every step the mirror's view of each node —
    the queries it has heard in ``_first`` order, with anchor, limit,
    role, armed and reported flags and epoch — equals its twin's
    ``monitors`` / ``_reported`` / ``_epochs``, and both sides have put
    the same stream on the wire (a ``COLLECT_REPLY`` batch expanded in
    place): the violation reports the phase sends from the cells are
    the twins' own, in their order. The build never builds a node: a
    probe goes through the simulator into the phase, which replies for
    its focal. Installs have one way in: one sent to a single node, or
    geocast with a payload the phase cannot mirror, raises
    ``ProtocolError`` and leaves the mirror as it was.
    """
    sim = _mirror_system(algorithm)
    fleet, phase = sim.fleet, sim.client_phase
    assert sim.mobiles.nodes is None
    (node_cls,) = sim.mobiles.classes
    twins = [
        node_cls(
            oid, fleet,
            my_qids=[q for q, f in phase._focal_of.items() if f == oid],
        )
        for oid in range(MIRROR_N)
    ]
    twin_channel = Channel()
    twin_channel.register(SERVER_ID)
    for twin in twins:
        twin.attach(twin_channel)
    area = GEOCAST_ID if algorithm == "DKNN-G" else BROADCAST_ID

    def install_message(*args, plain=False):
        return _install_message(sim, algorithm, *args, plain=plain)

    def refused(deliver, msg):
        before = _mirror_state(phase)
        with pytest.raises(ProtocolError):
            deliver(msg)
        assert _mirror_state(phase) == before

    for op in ops:
        if op[0] == "install":
            msg = install_message(*op[1:6], BROADCAST_ID)
            heard = [op[6] is None or op[6][oid] for oid in range(MIRROR_N)]
            if op[6] is None:
                phase.deliver_area(msg)
            else:
                phase._install(msg, np.flatnonzero(heard))
            for oid in np.flatnonzero(heard):
                twins[oid].on_message(msg)
        elif op[0] == "unicast":
            oid = op[6]
            msg = install_message(*op[1:6], oid)
            refused(lambda m: sim._deliver([m]), msg)
        elif op[0] == "geocast":
            refused(
                phase.deliver_area,
                install_message(*op[1:6], GEOCAST_ID, plain=True),
            )
        elif op[0] == "collect":
            cx, cy = fleet.positions[op[2]]
            request = CollectRequest(phase._qids[op[1]], cx, cy, op[3])
            msg = Message(MessageKind.COLLECT, SERVER_ID, area, request)
            phase.deliver_area(msg)
            for twin in twins:
                if area == BROADCAST_ID or request.covers(*twin.position):
                    twin.on_message(msg)
        elif op[0] == "probe":
            oid = op[1]
            msg = Message(MessageKind.PROBE, SERVER_ID, oid, ProbeRequest())
            sim._deliver([msg])
            twins[oid].on_message(msg)
        else:
            fleet.advance()
            sim.tick = fleet.tick
            sim.channel.begin_tick(sim.tick)
            twin_channel.begin_tick(sim.tick)
            phase.tick_start(sim.tick)
            for twin in twins:
                twin.on_tick_start(sim.tick)
        assert on_the_wire(sim.channel.collect()) == on_the_wire(
            twin_channel.collect()
        )
        for twin in twins:
            assert _mirror_view(phase, twin.oid) == _oracle_view(twin)
    assert sim.mobiles.nodes is None


def test_reporting_candidate_is_rearmed_by_the_mirror_alone(monkeypatch):
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
    log = logged_sends(monkeypatch)
    for _ in range(ticks):
        scalar.step()
        fast.step()
        assert fast.server.answers == scalar.server.answers
        assert fast.channel.stats.sent_by_kind == scalar.channel.stats.sent_by_kind
        assert fast.channel.stats.bytes_by_kind == scalar.channel.stats.bytes_by_kind
    # (tick, oid, qid) of every VIOLATION the build sends
    reports = [
        (msg.sent_tick, msg.src, msg.payload.qid)
        for channel, item in log
        if channel is fast.channel
        for msg in messages_of(item)
        if msg.kind is MessageKind.VIOLATION
    ]
    seen = set(reports)
    assert any((t + 1, oid, qid) in seen for t, oid, qid in reports)


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
    # never pausing, so batched: a population-like and a focal-like range
    "waypoint-free": RandomWaypointModel(SMALL, 25.0, 50.0).make_mover,
    "waypoint-focal": RandomWaypointModel(SMALL, 30.0, 60.0).make_mover,
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


#: One pausing mover sends the whole waypoint kernel down the scalar
#: path, so a fleet holds either the pausing kind or the pause-free ones.
_WAYPOINT_FAMILIES = (("waypoint",), ("waypoint-focal", "waypoint-free"))
_OTHER_KINDS = sorted(set(_MOVER_KINDS).difference(*_WAYPOINT_FAMILIES))


def _fleet_kinds(family):
    kinds = _OTHER_KINDS + list(family)
    return st.lists(st.sampled_from(kinds), max_size=30).flatmap(
        lambda extra: st.permutations(kinds + extra)
    )


@given(
    kinds=st.sampled_from(_WAYPOINT_FAMILIES).flatmap(_fleet_kinds),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_fast_fleet_matches_scalar_fleet_over_interleaved_kernels(kinds, seed):
    """Every kernel class at shuffled oids, so most kernels gather and
    scatter and their event runs interleave in ascending oid — batched
    pause-free waypoint and commute arrivals between scalar steps: 40
    ticks equal the scalar fleet's, and the shared RNG ends in the same
    state."""

    def fleet(cls):
        rng = random.Random(seed)
        return cls([_MOVER_KINDS[k](rng) for k in kinds], seed=seed)

    scalar, fast = fleet(Fleet), fleet(FastFleet)
    assert _trajectories(fast, ticks=40) == _trajectories(scalar, ticks=40)
    assert fast._rng.getstate() == scalar._rng.getstate()


def test_one_pausing_mover_keeps_its_waypoint_kernel_scalar(monkeypatch):
    """A pausing waypoint mover among pause-free ones, in one kernel:
    the kernel keeps its pause column and its arrivals step their own
    movers (the base ``arrive``), still equal to the scalar fleet."""

    def movers():
        rng = random.Random(12)
        kinds = ["waypoint-free"] * 12 + ["waypoint"] + ["waypoint-focal"] * 6
        return [_MOVER_KINDS[k](rng) for k in kinds]

    scalar = Fleet(movers(), seed=12)
    expected = _trajectories(scalar, ticks=40)
    steps = []
    step = RandomWaypointMover.step

    def counted(self, x, y, rng):
        steps.append(self)
        return step(self, x, y, rng)

    monkeypatch.setattr(RandomWaypointMover, "step", counted)
    fast = FastFleet(movers(), seed=12)
    (kern,) = fast._kernels
    assert kern.pause is not None
    assert _trajectories(fast, ticks=40) == expected
    assert fast._rng.getstate() == scalar._rng.getstate()
    assert any(m.pause_max == 0 for m in steps)  # pause-free, stepped


@given(
    ranges=st.lists(
        st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)).map(sorted),
        min_size=1, max_size=8,
    ),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=50, deadline=None)
def test_batched_trip_draws_are_random_uniform(ranges, seed):
    """The batched arrival draws ``lo + (hi - lo) * rng.random()``: that
    is ``random.Random.uniform`` draw for draw, RNG state included, on
    this interpreter (a CPython that changes ``uniform`` fails here)."""
    universe = Rect(-250.5, 13.25, 749.5, 1013.25)  # no zero bound
    movers = [RandomWaypointMover(universe, lo, hi, 0) for lo, hi in ranges]
    fleet = FastFleet(movers, seed=1)
    (kern,) = fleet._kernels
    rows = np.arange(0, len(movers), 2)
    batched, scalar = random.Random(seed), random.Random(seed)
    kern._redraw(rows, kern.oids[rows], fleet._bx, fleet._by, batched)
    for row in rows.tolist():
        m = movers[row]
        m._new_trip(scalar)
        assert (kern.tx[row], kern.ty[row]) == m._target
        assert kern.speed[row] == m._speed
    assert batched.getstate() == scalar.getstate()


@pytest.mark.parametrize("kind", ["gaussian", "drift"])
def test_a_cached_gauss_keeps_the_redraws_scalar(kind, monkeypatch):
    """With ``rng.gauss_next`` holding a value, the first ``gauss`` of a
    run of Gaussian arrivals would not draw, and the batch's three
    draws per object would not line up: the kernel steps its movers
    instead (and the cached value then stays, so every later run does
    too). 40 ticks still equal the scalar fleet's, RNG state
    included."""

    def fleet(cls):
        rng = random.Random(5)
        built = cls([_MOVER_KINDS[kind](rng) for _ in range(24)], seed=5)
        built._rng.gauss_next = 0.25
        return built

    scalar = fleet(Fleet)
    expected = _trajectories(scalar, ticks=40)
    steps = []
    step = GaussianClusterMover.step

    def counted(self, x, y, rng):
        steps.append(self)
        return step(self, x, y, rng)

    monkeypatch.setattr(GaussianClusterMover, "step", counted)
    fast = fleet(FastFleet)
    assert _trajectories(fast, ticks=40) == expected
    assert fast._rng.getstate() == scalar._rng.getstate()
    assert steps  # the fallback ran


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
