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
from repro.net.channel import Channel
from repro.net.engine import EngineConfig
from repro.net.message import SERVER_ID, MessageKind
from repro.net.node import Population
from repro.net.shardlink import (
    SHARD_BORROW,
    SHARD_BORROW_REPLY,
    SHARD_MIGRATE,
    ShardLink,
)
from repro.server.config import RebalancePolicy, ShardConfig
from repro.workloads.generator import build_workload
from repro.workloads.spec import WorkloadSpec
from tests.helpers import built_system
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
    is handed an install, and at most 1 % of the fleet is ever built
    (the focal nodes a probe reaches, the repliers of short collect
    rounds)."""
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
    assert len(sim.mobiles.built()) <= 0.01 * sim.fleet.n


def test_dknn_p_full_repairs_finalize_in_the_batched_pass(monkeypatch):
    """DKNN-P plans its full repairs in the subround pre-pass: over 40
    ticks at least 90 % of them are ``"fin"`` rows of
    ``DknnServer._prefetch`` (the rest finalize in the step that chose
    their candidates, as one-row calls), and at most 1 % of the
    rankings of ``_SMALL`` members or more — those that sort and check
    instead of running ``np.lexsort`` outright — fall back to it (the
    fallback runs on exact distance ties only)."""
    calls = {"fin": 0, "rank": 0, "lexsort": 0}
    prefetch = server_module.DknnServer._prefetch
    rank, lexsort = knn_module._rank, np.lexsort

    def counted_prefetch(self, tick):
        prefetch(self, tick)
        calls["fin"] += sum(kind == "fin" for kind, _ in self._rows)

    def counted(name, f, n_of):
        def call(*args, **kwargs):
            calls[name] += n_of(*args, **kwargs) >= knn_module._SMALL
            return f(*args, **kwargs)

        return call

    counted_rank = counted("rank", rank, lambda d, *_, **__: d.shape[0])
    monkeypatch.setattr(
        server_module.DknnServer, "_prefetch", counted_prefetch
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
    assert calls["fin"] >= 0.9 * full
    assert calls["rank"] >= B_DENSE_SHAPED.ticks
    assert calls["lexsort"] <= 0.01 * calls["rank"]


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


def test_hotspot_arrivals_stay_scalar_beside_batched_focal_ones(monkeypatch):
    """``shard_drift``'s shape: hotspot redraws (``rng.gauss``) still
    step their scalar mover, run by run between the focal objects'
    batched waypoint arrivals, which step none."""
    steps, arrivals = _advance_counted(SHARD_DRIFT_SHAPED, monkeypatch)
    assert steps[HotspotDriftMover] == arrivals[soa._DriftKernel] > 0
    assert arrivals[soa._WaypointKernel] > 0
    assert steps[RandomWaypointMover] == 0


def test_shard_ledger_sends_migrations_and_borrows_in_batches(monkeypatch):
    """``shard_drift``'s shape over 4 rebalancing shards: a plan-free
    uplink batch sends the migrations of its non-focal rows as one
    backbone batch, and a subround's borrow legs leave in two; at most
    2 % of the ``migrate`` / ``borrow`` / ``borrow_reply`` messages of
    40 ticks are single ``ShardLink.send`` calls (the focal rows'
    :meth:`_report` and scalar-routed uplinks). Forwards stay one call
    per message and are not counted."""
    kinds = (SHARD_MIGRATE, SHARD_BORROW, SHARD_BORROW_REPLY)
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
    kind, and nothing the server sends a mobile is scalar; so no
    mobile node is ever built, and the client phase applies each
    install or revoke flight with one ``_RegionTable.rows_of`` pass."""
    batches, scalar, built, passes = Counter(), [0], [0], []
    subround, window = [0], [None]
    on_subround = server_module.DknnServer.on_subround
    send, send_batch = Channel.send, Channel.send_batch
    build, rows_of = Population.build, _RegionTable.rows_of
    deliver_batch = DknnSilentPhase.deliver_batch

    def counted_subround(self, tick):
        subround[0] += 1
        on_subround(self, tick)

    def counted_send(self, kind, src, dst, payload=None):
        scalar[0] += src == SERVER_ID and dst >= 0
        return send(self, kind, src, dst, payload)

    def counted_send_batch(self, batch):
        if batch.dsts is not None:
            batches[subround[0], batch.kind] += 1
        return send_batch(self, batch)

    def counted_build(self, oid):
        built[0] += 1
        return build(self, oid)

    def counted_rows_of(self, oids):
        if window[0] is not None:
            window[0] += 1
        return rows_of(self, oids)

    def counted_deliver(self, batch):
        flight = batch.kind in (
            MessageKind.INSTALL_REGION, MessageKind.REVOKE_REGION
        )
        window[0] = 0 if flight else None
        taken = deliver_batch(self, batch)
        if flight:
            passes.append((taken, window[0]))
        window[0] = None
        return taken

    monkeypatch.setattr(
        server_module.DknnServer, "on_subround", counted_subround
    )
    monkeypatch.setattr(Channel, "send", counted_send)
    monkeypatch.setattr(Channel, "send_batch", counted_send_batch)
    monkeypatch.setattr(Population, "build", counted_build)
    monkeypatch.setattr(_RegionTable, "rows_of", counted_rows_of)
    monkeypatch.setattr(DknnSilentPhase, "deliver_batch", counted_deliver)
    sim, _ = built_system(cfg, spec)
    sim.run(spec.ticks)
    assert {kind for _, kind in batches} == {
        MessageKind.PROBE, MessageKind.INSTALL_REGION,
        MessageKind.REVOKE_REGION, MessageKind.ANSWER_PUSH,
    }
    assert max(batches.values()) == 1
    assert scalar[0] == 0
    assert built[0] == 0 and sim.mobiles.built() == []
    assert passes and set(passes) == {(True, 1)}
    if cfg.engine is not None:
        assert sim.driver.stats()["skipped_ticks"] > 0


#: Python calls the event driver may make on one tick outside the
#: planner and the fleet, whatever the size of the tick's due set.
DRIVER_CALLS_PER_TICK = 32


def test_event_driver_bookkeeping_does_not_grow_with_the_due_set():
    """The engine driver re-plans a tick's due set with a fixed number
    of Python calls: ``sys.setprofile`` call events inside ``skip_tick``
    and ``after_full_step``, less those inside ``planner.wakeups`` and
    the fleet's ``advance``, stay under a constant on every tick, also
    on the ticks that write more wakeups than that constant (a call
    per written wakeup would break it)."""
    spec = dataclasses.replace(COMMUTE_SPEC, n_objects=1500, k=8)
    sim, _ = built_system(
        RunConfig("DKNN-P", engine=EngineConfig(mode="event")), spec
    )
    driver = sim.driver
    calls, written = [], []

    def unprofiled(fn):
        def run(*args):
            profile = sys.getprofile()
            sys.setprofile(None)
            try:
                return fn(*args)
            finally:
                sys.setprofile(profile)
        return run

    def counted(hook):
        def run():
            n = [0]

            def profile(frame, event, arg):
                n[0] += event == "call"

            scheduled = driver.scheduled
            sys.setprofile(profile)
            try:
                hook()
            finally:
                sys.setprofile(None)
            calls.append(n[0])
            written.append(driver.scheduled - scheduled)
        return run

    driver.planner.wakeups = unprofiled(driver.planner.wakeups)
    sim.fleet.advance = unprofiled(sim.fleet.advance)
    driver.skip_tick = counted(driver.skip_tick)
    driver.after_full_step = counted(driver.after_full_step)
    sim.run(spec.ticks)
    assert len(calls) == spec.ticks
    assert driver.skipped_ticks > 0
    assert max(written) > DRIVER_CALLS_PER_TICK
    assert max(calls) <= DRIVER_CALLS_PER_TICK, calls
