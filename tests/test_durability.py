"""Durable shard state: WAL/checkpoint store, correlated-failure recovery.

Pinned contracts:

* **Store semantics** — WAL replay is last-write-wins over the
  checkpoint: own-loss records fence queries out, home records
  add/remove rows, unchanged state snapshots are deduplicated, and a
  checkpoint truncates the journal;
* **Correlated recovery** — a shard crashing *together with its
  replication buddy* (nobody covers it) and a whole-tier restart both
  rebuild their tables from checkpoint + WAL: no query is lost, no
  amnesia, and ``healthy_exactness`` stays exactly 1.0 — recovery lag
  is accounted through the degraded channel, never hidden;
* **Amnesia contrast** — the identical failure schedule without a
  store drops the dead shards' rows and re-bootstraps (the knob buys
  state survival, not silent correctness);
* **Zero-fault bit-identity** — the durability knobs are tuning
  parameters: a plan carrying only ``checkpoint_interval`` /
  ``wal_replay_per_tick`` stays disabled and is indistinguishable
  from ``shard_faults=None``.
"""

from __future__ import annotations

import pytest

from repro.api import (
    RunConfig,
    ShardConfig,
    ShardFaultPlan,
    WorkloadSpec,
    build_system,
    build_workload,
    run_once,
)
from repro.errors import FaultError
from repro.obs import RingSink, Telemetry, protocol_events
from repro.server.durability import DurabilityManager, ShardStore

SPEC = WorkloadSpec(
    n_objects=250, n_queries=3, k=4, ticks=48, warmup_ticks=4, seed=13
)

FT_PARAMS = {
    "fault_tolerant": True,
    "ack_timeout": 2,
    "lease_ticks": 8,
    "violation_retry": 2,
}

#: Coverage-defeating schedule: shard 0 and its buddy (1) crash
#: together mid-run, and later the whole tier restarts at once — the
#: two failure classes buddy replication alone cannot survive.
CORRELATED = dict(
    crash_groups=(((0, 1), 12, 20),),
    full_restarts=((32, 35),),
    heartbeat_timeout=3,
)


class TestShardStore:
    def test_wal_replay_is_last_write_wins(self):
        store = ShardStore(0)
        store.append(1, "own", 7, {"qid": 7, "answer": (1,)})
        store.append(2, "state", 7, {"qid": 7, "answer": (1, 2)})
        store.append(3, "home", 40, True)
        store.append(4, "home", 41, True)
        store.append(5, "home", 40, None)
        view = store.recover()
        assert view.queries == {7: {"qid": 7, "answer": (1, 2)}}
        assert view.homes == frozenset({41})
        assert view.replayed_records == 5
        assert view.replayed_bytes == store.wal_bytes

    def test_own_loss_fences_query_out(self):
        store = ShardStore(0)
        store.append(1, "own", 7, {"qid": 7})
        store.append(2, "own", 7, None)
        assert store.recover().queries == {}
        # A later checkpoint-era query + own-loss in the WAL: the fence
        # wins over the checkpoint row too.
        store.checkpoint(3, {8: {"qid": 8}}, frozenset({1}))
        store.append(4, "own", 8, None)
        view = store.recover()
        assert view.queries == {} and view.homes == frozenset({1})

    def test_own_gain_does_not_clobber_newer_state(self):
        # A handoff-gain record carries the state at gain time; a
        # replayed older 'own' must not overwrite a newer 'state'.
        store = ShardStore(0)
        store.append(1, "state", 7, {"v": 2})
        store.append(2, "own", 7, {"v": 1})
        assert store.recover().queries == {7: {"v": 2}}

    def test_state_dedup(self):
        store = ShardStore(0)
        assert store.journal_state(1, 7, {"v": 1}) is not None
        assert store.journal_state(2, 7, {"v": 1}) is None
        assert store.journal_state(3, 7, {"v": 2}) is not None
        assert store.wal_records == 2

    def test_checkpoint_truncates_and_reseeds_dedup(self):
        store = ShardStore(0)
        store.journal_state(1, 7, {"v": 1})
        store.checkpoint(2, {7: {"v": 1}}, frozenset({9}))
        assert store.wal_records == 0
        # Unchanged snapshot after the checkpoint is still a no-op.
        assert store.journal_state(3, 7, {"v": 1}) is None
        view = store.recover()
        assert view.checkpoint_tick == 2
        assert view.queries == {7: {"v": 1}}
        assert view.homes == frozenset({9})


class TestDurabilityManager:
    def test_due_cadence(self):
        dm = DurabilityManager(4, interval=5)
        assert not dm.due(0)
        assert dm.due(5) and dm.due(10)
        assert not dm.due(7)

    def test_replay_ticks_rate_limit(self):
        dm = DurabilityManager(4, interval=5, replay_per_tick=10)
        assert dm.replay_ticks(0) == 0
        assert dm.replay_ticks(10) == 0  # fits in one tick's budget
        assert dm.replay_ticks(11) == 1
        assert dm.replay_ticks(30) == 2
        assert DurabilityManager(4, 5).replay_ticks(10 ** 6) == 0

    def test_counters_accumulate(self):
        dm = DurabilityManager(2, interval=5)
        dm.journal_own(0, 1, 7, {"qid": 7})
        dm.journal_home(1, 1, 40, True)
        dm.journal_state(0, 2, 7, {"qid": 7, "v": 1})
        dm.journal_state(0, 3, 7, {"qid": 7, "v": 1})  # dedup: no append
        assert dm.wal_appends == 3
        assert dm.wal_bytes_total == sum(dm.wal_bytes_by_shard())
        assert dm.wal_records_by_shard() == [2, 1]
        dm.checkpoint(0, 5, {7: {"qid": 7}}, frozenset())
        assert dm.checkpoints == 1 and dm.checkpoint_bytes_total > 0
        assert dm.wal_records_by_shard() == [0, 1]
        view = dm.recover(1)
        assert dm.recoveries == 1
        assert dm.replayed_records == view.replayed_records == 1


class TestPlanKnobs:
    def test_correlated_knobs_enable_the_plan(self):
        assert ShardFaultPlan(crash_groups=(((0, 1), 5, 9),)).enabled
        assert ShardFaultPlan(full_restarts=((5, 8),)).enabled

    def test_durability_knobs_alone_do_not_enable(self):
        plan = ShardFaultPlan(checkpoint_interval=5, wal_replay_per_tick=10)
        assert not plan.enabled

    def test_is_down_covers_groups_and_full_restarts(self):
        plan = ShardFaultPlan(
            crash_groups=(((0, 2), 10, 14),), full_restarts=((20, 22),)
        )
        assert plan.is_down(0, 10) and plan.is_down(2, 13)
        assert not plan.is_down(1, 10) and not plan.is_down(0, 14)
        for s in range(8):
            assert plan.is_down(s, 20) and plan.is_down(s, 21)
            assert not plan.is_down(s, 22)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_groups": (((), 5, 9),)},
            {"crash_groups": (((0, 0), 5, 9),)},
            {"crash_groups": (((0, 1), 9, 9),)},
            {"full_restarts": ((5, 5),)},
            {"full_restarts": ((-1, 5),)},
            {"checkpoint_interval": 0},
            {"wal_replay_per_tick": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(FaultError):
            ShardFaultPlan(**kwargs)


def _durable_plan(**over):
    kwargs = dict(CORRELATED, checkpoint_interval=5, wal_replay_per_tick=25)
    kwargs.update(over)
    return ShardFaultPlan(seed=3, **kwargs)


def _measure(plan):
    cfg = RunConfig(
        "DKNN-P",
        shard=ShardConfig(shards=2, faults=plan),
        params=dict(FT_PARAMS),
    )
    return run_once(cfg, SPEC, accuracy_every=1)


class TestCorrelatedRecovery:
    """The acceptance pin: shard + buddy crash, then a full-tier
    restart, and the durable store brings every query back."""

    def test_wal_recovery_retains_every_query(self):
        m = _measure(_durable_plan())
        # Cold restarts happened (the buddy-pair group defeats
        # coverage; the full restart defeats everything)...
        assert m.extra["cold_restarts"] >= 4
        # ... and every one of them recovered from the store: the
        # full-tier restart alone guarantees all queries pass through
        # a WAL recovery.
        assert m.extra["amnesia_q"] == 0
        assert m.extra["recovered_q"] >= SPEC.n_queries
        assert m.extra["checkpoints"] > 0
        # Honesty through recovery: answers the tier vouched for were
        # exact on every sampled tick.
        assert m.extra["healthy_exactness"] == 1.0
        assert m.extra["degraded_frac"] < 1.0

    def test_amnesia_without_store(self):
        m = _measure(_durable_plan(
            checkpoint_interval=None, wal_replay_per_tick=None
        ))
        assert "checkpoints" not in m.extra
        assert m.extra["amnesia_q"] >= SPEC.n_queries
        assert m.extra.get("recovered_q", 0) == 0
        # Amnesia is honest too: the lost queries ride the degraded
        # channel until they re-bootstrap.
        assert m.extra["healthy_exactness"] == 1.0

    def test_replay_rate_limit_costs_recovery_ticks(self):
        ring = RingSink()
        tel = Telemetry(ring)
        fleet, queries = build_workload(SPEC)
        cfg = RunConfig(
            "DKNN-P",
            shard=ShardConfig(
                shards=2, faults=_durable_plan(wal_replay_per_tick=1)
            ),
            params=dict(FT_PARAMS),
        )
        sim = build_system(cfg, fleet, queries, telemetry=tel)
        sim.run(SPEC.ticks)
        recovers = [
            e for e in protocol_events(ring.events())
            if e.kind == "shard.recover"
        ]
        assert recovers and all(
            e.fields["mode"] == "wal" for e in recovers
        )
        # At one record per tick, some journal tail must have taken
        # extra ticks to replay.
        assert any(e.fields["replay_ticks"] > 0 for e in recovers)
        # Replay completion compacts immediately: the journal never
        # stretches past one interval of live ticks.
        assert sim.server.shard_stats.amnesia_queries == 0

    def test_recovery_is_deterministic(self):
        a = _measure(_durable_plan())
        b = _measure(_durable_plan())
        assert a.extra == b.extra
        assert a.exactness == b.exactness


class TestDurabilityKnobsBitIdentity:
    """checkpoint_interval / wal_replay_per_tick alone keep the plan
    disabled: no store, no journaling, bit-identical runs."""

    def _run(self, shard_faults=None):
        ring = RingSink()
        tel = Telemetry(ring)
        fleet, queries = build_workload(SPEC)
        cfg = RunConfig(
            "DKNN-P",
            record_history=True,
            shard=ShardConfig(shards=2, faults=shard_faults),
        )
        sim = build_system(cfg, fleet, queries, telemetry=tel)
        sim.run(SPEC.ticks)
        hist = {q.qid: sim.server.answer_history[q.qid] for q in queries}
        return hist, sim, ring.events()

    def test_knob_only_plan_is_inert(self):
        base_h, base_sim, base_ev = self._run()
        got_h, got_sim, got_ev = self._run(
            ShardFaultPlan(checkpoint_interval=5, wal_replay_per_tick=10)
        )
        assert got_sim.server._durability is None
        assert got_h == base_h
        a, b = base_sim.channel.stats, got_sim.channel.stats
        assert a.per_kind_table() == b.per_kind_table()
        assert a.total_bytes == b.total_bytes
        key = lambda evs: [
            (e.tick, e.kind, e.fields) for e in protocol_events(evs)
        ]
        assert key(got_ev) == key(base_ev)


class TestHomeMirrorThroughAmnesia:
    """The home table is one int64 array that borrow sizing and cell
    migration read with masks, with or without a fault plan — checked
    against a plain-Python walk over its rows, through an amnesia
    restart, the one place homes are *deleted*."""

    def test_mirror_and_its_readers_stay_true_to_the_home_table(self):
        import numpy as np
        from repro.api import RebalancePolicy

        plan = _durable_plan(
            checkpoint_interval=None, wal_replay_per_tick=None
        )
        cfg = RunConfig(
            "DKNN-P",
            shard=ShardConfig(
                shards=2,
                faults=plan,
                rebalance=RebalancePolicy(
                    check_interval=5, min_window_uplinks=8
                ),
            ),
            params=dict(FT_PARAMS),
        )
        fleet, queries = build_workload(SPEC)
        sim = build_system(cfg, fleet, queries)
        tier = sim.server
        table = tier.inner.table
        dropped = []
        seen = {"homes": 0}

        def check(sim):
            assert tier._home.dtype == np.int64
            homes = {
                oid: home
                for oid, home in enumerate(tier._home.tolist())
                if home >= 0
            }
            if len(homes) < seen["homes"]:
                dropped.append(seen["homes"] - len(homes))
            seen["homes"] = len(homes)
            # borrow sizing against the walk over the home table that
            # defines it, one circle per row: on the shard borders and
            # the universe's corners too, radius 0 and negative
            circles = [(300.0, 700.0, 250.0), (500.0, 500.0, 90.0),
                       (40.0, 40.0, 600.0), (500.0, 250.0, 0.0),
                       (0.0, 0.0, 75.0), (1000.0, 500.0, -3.0),
                       (1000.0, 1000.0, 2000.0)]
            sized = tier._circle_counts(*np.array(circles).T)
            for row, (cx, cy, r) in zip(sized.tolist(), circles):
                counts = [0] * tier.router.n_shards
                for oid, home in homes.items():
                    if oid in table and r >= 0:
                        ox, oy = table.last_position(oid)
                        dx, dy = ox - cx, oy - cy
                        if dx * dx + dy * dy <= r * r:
                            counts[home] += 1
                assert row == counts
            # rows a cell migration would move
            cell_of = tier.router.cell_of
            for cell in range(tier.router.cell_side ** 2):
                for shard in range(tier.router.n_shards):
                    assert tier._oids_in_cell(cell, shard) == sorted(
                        oid for oid, home in homes.items()
                        if home == shard and oid in table
                        and cell_of(*table.last_position(oid)) == cell
                    )

        sim.run(SPEC.ticks, on_tick=check)
        assert tier.shard_stats.amnesia_restarts > 0
        assert dropped and max(dropped) > 10  # homes really were deleted
