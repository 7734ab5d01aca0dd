"""Cost counters checked in tier-1: counts, not clocks.

A wall-clock gain needs quiet hosts and alternating pairs; the counts
behind it do not. Each test here runs a benchmark-shaped workload at a
size tier-1 affords and pins an exact count of the work the build does
— nodes built, scalar handler and mover calls — so the gain cannot
quietly go.
"""

from __future__ import annotations

import dataclasses
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import repro.core.server as server_module
import repro.index.knn as knn_module
import repro.mobility.soa as soa
from repro.core.broadcast_variant import BroadcastMobileNode
from repro.core.fastpath import DknnSilentPhase, _RegionTable
from repro.core.geocast_variant import GeocastMobileNode
from repro.experiments.config import RunConfig
from repro.mobility import CommuteMover, HotspotDriftMover, RandomWaypointMover
from repro.net.engine import EngineConfig
from repro.index.grid import UniformGrid
from repro.net.message import SERVER_ID, Message, MessageKind
from repro.net.plane import REPORT_KINDS, ColumnarBatch
from repro.net.shardlink import (
    SHARD_BORROW,
    SHARD_BORROW_REPLY,
    SHARD_FORWARD,
    SHARD_MIGRATE,
    ShardLink,
)
from repro.server.config import RebalancePolicy, ShardConfig
from repro.server.object_table import ObjectTable
from repro.workloads.generator import build_workload
from repro.workloads.spec import WorkloadSpec
from tests.helpers import built_system, logged_sends
from tests.test_engine import SPEC as COMMUTE_SPEC

#: ``b_dense``'s shape (Q = 16, k = 8, random waypoint, query speed 50)
#: at 20k objects; ``p_dense`` has the same shape.
B_DENSE_SHAPED = WorkloadSpec(
    n_objects=20_000, n_queries=16, k=8, ticks=40, warmup_ticks=0, seed=1,
    query_speed=50.0,
)

#: ``shard_drift``'s shape (Q = 64, six loose drifting hotspots) at 5k.
SHARD_DRIFT_SHAPED = WorkloadSpec(
    n_objects=5_000, n_queries=64, k=8, ticks=40, warmup_ticks=0, seed=1,
    mobility="hotspot_drift",
    mobility_options={"drift_period": 120, "n_hotspots": 6,
                      "zipf_s": 0.5, "sigma": 500.0},
)


@pytest.mark.parametrize("algorithm", ["DKNN-B", "DKNN-G"])
def test_broadcast_violations_leave_from_the_mirror(algorithm, monkeypatch):
    """DKNN-B/G send every violation report from the client phase's
    cells: over 40 ticks no node runs a tick-start, no node's handler
    is handed an install, and no node is ever built (the phase answers
    probes and short collect rounds too)."""
    calls = {"tick_start": 0, "install": 0}
    run_tick_start = BroadcastMobileNode.on_tick_start

    def tick_start(self, tick):
        calls["tick_start"] += 1
        run_tick_start(self, tick)

    def counted(handler):
        def on_message(self, msg):
            if msg.kind is MessageKind.BROADCAST_INSTALL:
                calls["install"] += 1
            handler(self, msg)

        return on_message

    monkeypatch.setattr(BroadcastMobileNode, "on_tick_start", tick_start)
    for cls in (BroadcastMobileNode, GeocastMobileNode):
        monkeypatch.setattr(cls, "on_message", counted(cls.on_message))
    sim, _ = built_system(RunConfig(algorithm), B_DENSE_SHAPED)
    sim.run(B_DENSE_SHAPED.ticks)
    stats = sim.channel.stats
    assert stats.sent_by_kind[MessageKind.VIOLATION] > 0  # reports were sent
    assert stats.sent_by_kind[MessageKind.BROADCAST_INSTALL] > 0
    assert calls == {"tick_start": 0, "install": 0}
    assert sim.mobiles.nodes is None


@pytest.mark.parametrize("algorithm", ["DKNN-B", "DKNN-G"])
def test_a_full_broadcast_install_writes_one_payload(algorithm, monkeypatch):
    """A DKNN-B install every node hears whole is one payload in its
    query's row: over 40 ticks every row stays shared, no per-cell
    float column is ever allocated, and no install after a row's first
    allocates n bytes or more. DKNN-G geocasts its installs to a strip,
    so there every row ends per-cell: the switch follows the input."""
    sim, _ = built_system(RunConfig(algorithm), B_DENSE_SHAPED)
    phase = sim.client_phase
    install = phase._install
    heard, peaks = set(), []

    def traced(msg, idx):
        qi = phase._qidx[msg.payload.qid]
        tracemalloc.start()
        try:
            install(msg, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if qi in heard:
            peaks.append(peak)
        heard.add(qi)

    monkeypatch.setattr(phase, "_install", traced)
    sim.run(B_DENSE_SHAPED.ticks)
    assert len(peaks) >= B_DENSE_SHAPED.ticks  # rows were re-installed
    if algorithm == "DKNN-B":
        assert all(row is not None for row in phase._row)
        assert phase._ax is phase._ay is phase._bound is phase._member is None
        assert max(peaks) < sim.fleet.n
    else:
        assert all(row is None for row in phase._row)


def test_dknn_p_full_repairs_finalize_in_the_batched_pass(monkeypatch):
    """DKNN-P plans its full repairs in one ``DknnServer._plan_full``
    pass per subround: over 40 ticks every full repair is a row of such
    a pass, at most one runs per subround, and at most 1 % of the
    rankings of ``_SMALL`` members or more — those that sort and check
    instead of running ``np.lexsort`` outright — fall back to it (the
    fallback runs on exact distance ties only)."""
    calls = {"plan": 0, "planned": 0, "subrounds": 0, "rank": 0,
             "lexsort": 0}
    plan_full = server_module.DknnServer._plan_full
    on_subround = server_module.DknnServer.on_subround
    rank, lexsort = knn_module._rank, np.lexsort

    def counted_plan(self, rows, *args):
        calls["plan"] += 1
        calls["planned"] += rows.shape[0]
        return plan_full(self, rows, *args)

    def counted_subround(self, tick):
        calls["subrounds"] += 1
        on_subround(self, tick)

    def counted(name, f, n_of):
        def call(*args, **kwargs):
            calls[name] += n_of(*args, **kwargs) >= knn_module._SMALL
            return f(*args, **kwargs)

        return call

    counted_rank = counted("rank", rank, lambda d, *_, **__: d.shape[0])
    monkeypatch.setattr(server_module.DknnServer, "_plan_full", counted_plan)
    monkeypatch.setattr(
        server_module.DknnServer, "on_subround", counted_subround
    )
    monkeypatch.setattr(knn_module, "_rank", counted_rank)
    monkeypatch.setattr(server_module, "_rank", counted_rank)
    monkeypatch.setattr(
        np, "lexsort", counted("lexsort", lexsort, lambda k: k[0].shape[0])
    )
    sim, _ = built_system(RunConfig("DKNN-P"), B_DENSE_SHAPED)
    sim.run(B_DENSE_SHAPED.ticks)
    server = sim.server
    full = sum(server.repair_count.values()) - sum(
        server.light_repair_count.values()
    )
    assert full >= B_DENSE_SHAPED.n_queries  # repairs were made
    assert calls["planned"] == full
    assert calls["plan"] <= calls["subrounds"]
    assert calls["rank"] >= B_DENSE_SHAPED.ticks
    assert calls["lexsort"] <= 0.01 * calls["rank"]


@pytest.mark.parametrize("n_queries", [16, 64])
def test_dknn_p_subround_work_does_not_grow_with_the_queries(
    n_queries, monkeypatch
):
    """``shard_drift``'s shape at Q = 16 and Q = 64: a DKNN-P subround
    reads freshness and searches the index a bounded number of times
    whatever the query count — each step one freshness pass and one
    call of an index entry per kind, however many rows are at it. Over
    40 ticks no subround makes more than 5 freshness reads
    (``ObjectTable.stale`` / ``stale_mask``), one kNN search (a full
    repair's ``k+1`` nearest) or two range searches (the zone scan and
    a full repair's candidates); a walk query by query makes one
    freshness read per waiting query per subround."""
    from repro.server.object_table import ObjectTable

    counts = Counter()
    worst = Counter()
    on_subround = server_module.DknnServer.on_subround

    def counted_subround(self, tick):
        counts.clear()
        on_subround(self, tick)
        for name, n in counts.items():
            worst[name] = max(worst[name], n)
        worst["subrounds"] += 1

    def counted(owner, name, kind):
        f = getattr(owner, name)

        def call(*args, **kwargs):
            counts[kind] += 1
            return f(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    monkeypatch.setattr(
        server_module.DknnServer, "on_subround", counted_subround
    )
    counted(ObjectTable, "stale", "fresh")
    counted(ObjectTable, "stale_mask", "fresh")
    counted(server_module, "knn_search_many", "knn")
    for name in ("range_search_many", "range_search_written"):
        counted(server_module, name, "range")
    spec = dataclasses.replace(SHARD_DRIFT_SHAPED, n_queries=n_queries)
    sim, _ = built_system(RunConfig("DKNN-P"), spec)
    sim.run(spec.ticks)
    assert worst["subrounds"] >= 2 * spec.ticks
    assert sum(sim.server.repair_count.values()) >= spec.ticks * n_queries // 2
    assert 1 <= worst["fresh"] <= 5
    assert worst["knn"] == 1
    assert 1 <= worst["range"] <= 2


#: ``cpm_stream``'s shape (Q = 16, k = 8, every object reporting every
#: tick) at 5k objects.
CPM_STREAM_SHAPED = dataclasses.replace(
    B_DENSE_SHAPED, n_objects=5_000, ticks=20
)


@pytest.mark.parametrize("algorithm", ["SEA", "CPM"])
def test_centralized_repairs_are_one_pass_per_tick(algorithm, monkeypatch):
    """``cpm_stream``'s shape: a tick's dirty SEA / CPM queries are
    answered by at most one many-row search per kind, each in one pass
    (no row searched on its own), and the every-object report batch is
    read and written by slice, not by fancy indexing."""
    import repro.baselines.common as common
    import repro.baselines.cpm as cpm
    import repro.index.knn as knn
    from repro.baselines.common import CentralizedServerBase

    calls, worst = Counter(), Counter()
    spans = []

    def counted(owner, name, kind):
        f = getattr(owner, name)

        def call(*args, **kwargs):
            calls[kind] += 1
            return f(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    on_subround = CentralizedServerBase.on_subround

    def counted_subround(self, tick):
        calls.clear()
        on_subround(self, tick)
        for kind, n in calls.items():
            worst[kind] = max(worst[kind], n)

    def logged_span(self, oids):
        at = span(self, oids)
        spans.append((oids.shape[0], type(at) is slice))
        return at

    span = UniformGrid.span
    monkeypatch.setattr(UniformGrid, "span", logged_span)
    monkeypatch.setattr(
        CentralizedServerBase, "on_subround", counted_subround
    )
    counted(knn, "_knn_arrays", "knn")
    counted(common, "knn_search_many", "knn_many")
    counted(knn, "range_search_arrays", "range")
    counted(cpm, "range_search_many", "range_many")
    spec = CPM_STREAM_SHAPED
    sim, _ = built_system(RunConfig(algorithm), spec)
    sim.run(spec.ticks)
    assert worst["knn"] == worst["range"] == 0
    assert worst["knn_many"] == 1
    assert worst["range_many"] == (algorithm == "CPM")
    assert spans == [(sim.fleet.n, True)] * spec.ticks


def _advance_counted(spec, monkeypatch):
    """``spec``'s fleet advanced ``spec.ticks`` times, no protocol: the
    scalar ``step`` calls per mover class, and the event rows handed to
    each kernel class's ``arrive``."""
    steps, arrivals = Counter(), Counter()

    def counted_step(cls):
        step = cls.step

        def call(self, x, y, rng):
            steps[cls] += 1
            return step(self, x, y, rng)

        return call

    def counted_arrive(kern_cls):
        arrive = kern_cls.arrive

        def call(self, rows, *args):
            arrivals[kern_cls] += rows.shape[0]
            return arrive(self, rows, *args)

        return call

    for cls in (RandomWaypointMover, CommuteMover, HotspotDriftMover):
        monkeypatch.setattr(cls, "step", counted_step(cls))
    for kern_cls in (soa._WaypointKernel, soa._CommuteKernel, soa._DriftKernel):
        monkeypatch.setattr(kern_cls, "arrive", counted_arrive(kern_cls))
    fleet, _ = build_workload(spec)
    for _ in range(spec.ticks):
        fleet.advance()
    return steps, arrivals


def test_pause_free_waypoint_arrivals_step_no_scalar_mover(monkeypatch):
    """On the ``b_dense`` / ``p_dense`` / ``cpm_stream`` shape (random
    waypoint, never pausing) every arrival of 40 ticks is drawn in the
    waypoint kernel's batched pass: no ``RandomWaypointMover.step``."""
    steps, arrivals = _advance_counted(B_DENSE_SHAPED, monkeypatch)
    assert arrivals[soa._WaypointKernel] > 0
    assert steps[RandomWaypointMover] == 0


def test_commute_arrivals_step_no_scalar_mover(monkeypatch):
    """``event_sparse``'s shape (1 % commuters, 20 active ticks in 200,
    still focal objects): the commuters' arrivals inside the duty window
    are batched, no ``CommuteMover.step`` runs."""
    spec = WorkloadSpec(
        n_objects=20_000, n_queries=64, k=8, ticks=40, warmup_ticks=0,
        seed=1, mobility="mostly_stationary", query_speed=0.0,
        mobility_options={
            "moving_fraction": 0.01, "period": 200, "active_ticks": 20,
        },
    )
    steps, arrivals = _advance_counted(spec, monkeypatch)
    assert arrivals[soa._CommuteKernel] > 0
    assert steps[CommuteMover] == 0


def test_hotspot_arrivals_step_no_scalar_mover(monkeypatch):
    """``shard_drift``'s shape: the hotspot redraws (``rng.gauss``
    pairs) of 40 ticks are batched in the drift kernel, between the
    focal objects' batched waypoint arrivals: neither steps a scalar
    mover."""
    steps, arrivals = _advance_counted(SHARD_DRIFT_SHAPED, monkeypatch)
    assert arrivals[soa._DriftKernel] > 0
    assert arrivals[soa._WaypointKernel] > 0
    assert steps[HotspotDriftMover] == 0
    assert steps[RandomWaypointMover] == 0


def test_shard_ledger_sends_migrations_and_borrows_in_batches(monkeypatch):
    """``shard_drift``'s shape over 4 rebalancing shards: a plan-free
    uplink batch sends the migrations and forwards of its non-focal
    rows as one backbone batch each, and a subround's borrow legs leave
    in two; at most 2 % of the ``migrate`` / ``forward`` / ``borrow`` /
    ``borrow_reply`` messages of 40 ticks are single ``ShardLink.send``
    calls (the focal rows' :meth:`_report` and forward)."""
    kinds = (SHARD_MIGRATE, SHARD_FORWARD, SHARD_BORROW, SHARD_BORROW_REPLY)
    single = Counter()
    send = ShardLink.send

    def counted(self, kind, *args, **kwargs):
        single[kind] += 1
        return send(self, kind, *args, **kwargs)

    monkeypatch.setattr(ShardLink, "send", counted)
    cfg = RunConfig(
        "DKNN-P",
        shard=ShardConfig(
            shards=4,
            rebalance=RebalancePolicy(check_interval=5, min_window_uplinks=8),
        ),
    )
    sim, _ = built_system(cfg, SHARD_DRIFT_SHAPED)
    sim.run(SHARD_DRIFT_SHAPED.ticks)
    sent = sim.server.link.sent_by_kind
    assert all(sent[kind] > 0 for kind in kinds)
    assert sum(single[k] for k in kinds) <= 0.02 * sum(sent[k] for k in kinds)


#: ``event_sparse``'s shape (commuters, still focal objects) at 5k,
#: with 5 % commuters on a 40-tick period so that 40 ticks revoke too;
#: the event driver still skips about half of them.
EVENT_SPARSE_SHAPED = WorkloadSpec(
    n_objects=5_000, n_queries=16, k=8, ticks=40, warmup_ticks=0, seed=1,
    mobility="mostly_stationary", query_speed=0.0,
    mobility_options={
        "moving_fraction": 0.05, "period": 40, "active_ticks": 20,
    },
)


@pytest.mark.parametrize(
    "cfg, spec",
    [
        (RunConfig("DKNN-P"), B_DENSE_SHAPED),
        (
            RunConfig(
                "DKNN-P",
                shard=ShardConfig(
                    shards=4,
                    rebalance=RebalancePolicy(
                        check_interval=5, min_window_uplinks=8
                    ),
                ),
            ),
            SHARD_DRIFT_SHAPED,
        ),
        (RunConfig("DKNN-P", engine=EngineConfig(mode="event")),
         EVENT_SPARSE_SHAPED),
    ],
    ids=["plain", "S4-rebalance", "event"],
)
def test_dknn_p_subround_downlinks_leave_one_batch_per_kind(
    cfg, spec, monkeypatch
):
    """A DKNN-P subround's downlinks leave as at most one batch per
    kind, and nothing the server sends a mobile is scalar; no mobile
    node is ever built, and the client phase applies each install or
    revoke flight with one ``_RegionTable.rows_of`` pass."""
    passes, window = [], [None]
    on_subround = server_module.DknnServer.on_subround
    rows_of = _RegionTable.rows_of
    deliver_batch = DknnSilentPhase.deliver_batch
    log = logged_sends(monkeypatch)

    def counted_subround(self, tick):
        log.append((None, None))  # a subround starts
        on_subround(self, tick)

    def counted_rows_of(self, oids):
        if window[0] is not None:
            window[0] += 1
        return rows_of(self, oids)

    def counted_deliver(self, batch):
        flight = batch.kind in (
            MessageKind.INSTALL_REGION, MessageKind.REVOKE_REGION
        )
        window[0] = 0 if flight else None
        deliver_batch(self, batch)
        if flight:
            passes.append(window[0])
        window[0] = None

    monkeypatch.setattr(
        server_module.DknnServer, "on_subround", counted_subround
    )
    monkeypatch.setattr(_RegionTable, "rows_of", counted_rows_of)
    monkeypatch.setattr(DknnSilentPhase, "deliver_batch", counted_deliver)
    sim, _ = built_system(cfg, spec)
    sim.run(spec.ticks)
    batches, subround, scalar = Counter(), 0, 0
    for _, item in log:
        if item is None:
            subround += 1
        elif isinstance(item, ColumnarBatch):
            if item.dsts is not None:
                batches[subround, item.kind] += 1
        else:
            scalar += item.src == SERVER_ID and item.dst >= 0
    assert {kind for _, kind in batches} == {
        MessageKind.PROBE, MessageKind.INSTALL_REGION,
        MessageKind.REVOKE_REGION, MessageKind.ANSWER_PUSH,
    }
    assert max(batches.values()) == 1
    assert scalar == 0
    assert sim.mobiles.nodes is None
    assert passes and set(passes) == {1}
    if cfg.engine is not None:
        assert sim.driver.stats()["skipped_ticks"] > 0


@pytest.mark.parametrize(
    "cfg, spec",
    [
        (RunConfig("DKNN-P"), B_DENSE_SHAPED),
        (RunConfig("DKNN-B"), B_DENSE_SHAPED),
        (
            RunConfig(
                "DKNN-P",
                shard=ShardConfig(
                    shards=4,
                    rebalance=RebalancePolicy(
                        check_interval=5, min_window_uplinks=8
                    ),
                ),
            ),
            SHARD_DRIFT_SHAPED,
        ),
        (RunConfig("DKNN-P", engine=EngineConfig(mode="event")),
         EVENT_SPARSE_SHAPED),
    ],
    ids=["P", "B", "S4-rebalance", "event"],
)
def test_region_holders_report_in_one_flight_per_tick(cfg, spec, monkeypatch):
    """A tick's location, violation and query-move reports leave as at
    most one report flight: no such mobile-to-server send is scalar,
    and the server writes its grid in bulk only — no
    ``UniformGrid.update`` call."""
    log = logged_sends(monkeypatch)
    writes = [0]
    update = UniformGrid.update

    def counted_update(self, *args):
        writes[0] += 1
        return update(self, *args)

    monkeypatch.setattr(UniformGrid, "update", counted_update)
    sim, _ = built_system(cfg, spec)
    sim.run(spec.ticks)
    scalar = [
        item for _, item in log
        if isinstance(item, Message) and item.kind in REPORT_KINDS
        and item.dst == SERVER_ID
    ]
    flights = Counter(
        item.sent_tick for _, item in log
        if isinstance(item, ColumnarBatch) and item.kind is None
    )
    assert scalar == []
    assert writes[0] == 0
    assert flights and max(flights.values()) == 1
    stats = sim.channel.stats
    for kind in REPORT_KINDS:
        assert stats.columnar_by_kind[kind] == stats.sent_by_kind[kind]
    assert stats.sent_by_kind[MessageKind.VIOLATION] > 0


def test_an_uplink_batch_spans_its_ids_once(monkeypatch):
    """``ObjectTable.report_batch`` reads a DKNN-P uplink batch's id
    range once: one ``UniformGrid.reserve`` call per batch, for the
    grid and the freshness column alike."""
    per_batch, inside = [], [False]
    reserve, report_batch = UniformGrid.reserve, ObjectTable.report_batch

    def counted_batch(self, *args):
        per_batch.append(0)
        inside[0] = True
        try:
            return report_batch(self, *args)
        finally:
            inside[0] = False

    def counted_reserve(self, capacity):
        if inside[0]:
            per_batch[-1] += 1
        return reserve(self, capacity)

    monkeypatch.setattr(ObjectTable, "report_batch", counted_batch)
    monkeypatch.setattr(UniformGrid, "reserve", counted_reserve)
    spec = dataclasses.replace(B_DENSE_SHAPED, n_objects=2_000, ticks=10)
    sim, _ = built_system(RunConfig("DKNN-P"), spec)
    sim.run(spec.ticks)
    assert len(per_batch) >= spec.ticks
    assert set(per_batch) == {1}


def test_a_skipped_tick_makes_the_same_python_calls_at_any_size():
    """A skipped tick observes stillness from what the kernels, the
    client phase, the channel and the server already know: the Python
    calls of a skipped tick (``sys.setprofile`` call events inside
    ``sim.step``, less those inside the fleet's ``advance``) take the
    same one or two counts at N = 1,500 and at N = 20,000 (the server
    looks at its rows on the first skip after a full tick, and reuses
    that answer after). A per-row compare or a call per moving row
    would break it."""
    calls = {}
    for n in (1_500, 20_000):
        spec = dataclasses.replace(COMMUTE_SPEC, n_objects=n, k=8)
        sim, _ = built_system(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event")), spec
        )
        advance = sim.fleet.advance

        def unprofiled():
            profile = sys.getprofile()
            sys.setprofile(None)
            try:
                advance()
            finally:
                sys.setprofile(profile)

        sim.fleet.advance = unprofiled
        driver = sim.driver
        calls[n] = set()
        for _ in range(spec.ticks):
            count = [0]

            def profile(frame, event, arg):
                count[0] += event == "call"

            skipped = driver.skipped_ticks
            sys.setprofile(profile)
            try:
                sim.step()
            finally:
                sys.setprofile(None)
            if driver.skipped_ticks > skipped:
                calls[n].add(count[0])
    assert 1 <= len(calls[1_500]) <= 2, calls
    assert calls[1_500] == calls[20_000], calls


#: ``event_sparse``'s shape at 20k objects: 1 % commuters, so a tick
#: moves a few hundred of them at most.
EVENT_SPARSE_20K = dataclasses.replace(
    EVENT_SPARSE_SHAPED, n_objects=20_000, n_queries=64,
    mobility_options={
        "moving_fraction": 0.01, "period": 40, "active_ticks": 10,
    },
)


def test_an_event_sparse_tick_allocates_in_proportion_to_what_moved():
    """On ``event_sparse``'s shape at N = 20k, traced by tracemalloc,
    neither a skipped tick (the mobility step and the stillness checks)
    nor a full tick's client-phase tick-start allocates as much as one
    N-long float column: the tick-start evaluates the candidate
    predicate on the moving rows and what changed. The whole-column
    pass peaked at about 40 N bytes here (five N-long temporaries);
    this one at about N. A skipped tick's back-buffer copy allocates
    nothing either way: ``tests/test_mobility_fleet.py`` pins what it
    copies."""
    spec = EVENT_SPARSE_20K
    cfg = RunConfig("DKNN-P", engine=EngineConfig(mode="event"))
    sim, _ = built_system(cfg, spec)
    for _ in range(5):  # the first evaluation reads every column
        sim.step()
    driver, phase = sim.driver, sim.client_phase
    peaks = {"advance": [], "can_skip": [], "tick_start": [], "skip": []}

    def traced(kind, fn):
        def run(*args):
            tracemalloc.start()
            try:
                return fn(*args)
            finally:
                peaks[kind].append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return run

    sim.fleet.advance = traced("advance", sim.fleet.advance)
    driver.can_skip = traced("can_skip", driver.can_skip)
    skip_tick = driver.skip_tick

    def skipped():
        # a skipped tick: the fleet's advance, then the stillness checks
        peaks["skip"].append(max(peaks["advance"][-1], peaks["can_skip"][-1]))
        skip_tick()

    driver.skip_tick = skipped
    phase.tick_start = traced("tick_start", phase.tick_start)
    sim.run(spec.ticks)
    assert phase._recheck is not None  # the incremental evaluation ran
    assert len(peaks["skip"]) >= 5 and len(peaks["tick_start"]) >= 5
    column = 8 * sim.fleet.n
    assert max(peaks["skip"]) < column, peaks["skip"]
    assert max(peaks["tick_start"]) < column, peaks["tick_start"]
