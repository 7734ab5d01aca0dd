"""Cost counters checked in tier-1: counts, not clocks.

A wall-clock gain needs quiet hosts and alternating pairs; the counts
behind it do not. Each test here runs a benchmark-shaped workload at a
size tier-1 affords and pins an exact count of the work the build does
— nodes built, scalar handler and mover calls — so the gain cannot
quietly go.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.core.server as server_module
import repro.index.knn as knn_module
import repro.mobility.soa as soa
from repro.core.broadcast_variant import BroadcastMobileNode
from repro.core.geocast_variant import GeocastMobileNode
from repro.experiments.config import RunConfig
from repro.mobility import CommuteMover, HotspotDriftMover, RandomWaypointMover
from repro.net.message import MessageKind
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
