"""The shard-tier failure model: plan, backbone faults, failover.

Four contracts are pinned here:

* **Zero-fault bit-identity** — ``shard_faults=None`` and a disabled
  ``ShardFaultPlan()`` produce byte-identical answers, CommStats, and
  protocol trace streams for every algorithm and shard grid, with and
  without a radio FaultPlan (the tier's fault machinery must be
  perfectly inert when the plan is off);
* **Backbone faults** — crash and partition windows drop messages
  deterministically at the link, on top of (and independent of) the
  seeded probabilistic drop; handoff retries back off exponentially
  instead of firing every tick;
* **Failover** — missed heartbeats trigger a buddy takeover (coverage
  and queries), a restart heartbeat hands everything back, answers
  served meanwhile are annotated degraded and the windows close with
  recorded recovery latencies — including the false-suspicion case
  where a partition (not a crash) severed the heartbeats;
* **Loss races** — a dropped ``borrow_reply`` terminates with a
  degraded annotation instead of hanging, and a delayed
  ``handoff_ack`` arriving after a second boundary crossing never
  creates double ownership.
"""

from __future__ import annotations

import pytest

from repro.api import (
    FaultPlan,
    RunConfig,
    ShardConfig,
    ShardFaultPlan,
    WorkloadSpec,
    build_system,
    build_workload,
    run_once,
    shard_attach,
)
from repro.errors import ConfigError, FaultError
from repro.net.shardlink import SHARD_HEARTBEAT, SHARD_REPLICATE, ShardLink
from repro.net.stats import CommStats
from repro.obs import RingSink, Telemetry, protocol_events

SPEC = WorkloadSpec(
    n_objects=250, n_queries=3, k=4, ticks=24, warmup_ticks=4, seed=13
)

RADIO_FAULTS = FaultPlan(
    seed=5, drop_uplink=0.05, drop_downlink=0.05, dup_prob=0.02,
    delay_prob=0.03,
)

FT_PARAMS = {
    "fault_tolerant": True,
    "ack_timeout": 2,
    "lease_ticks": 8,
    "violation_retry": 2,
}

ALGS = ("DKNN-P", "DKNN-B", "DKNN-G")


class TestShardFaultPlan:
    def test_default_plan_is_disabled(self):
        plan = ShardFaultPlan()
        assert not plan.enabled
        assert repr(plan) == "ShardFaultPlan(disabled)"

    def test_each_knob_enables(self):
        assert ShardFaultPlan(link_drop=0.1).enabled
        assert ShardFaultPlan(link_delay=1).enabled
        assert ShardFaultPlan(crashes=((0, 1, 2),)).enabled
        assert ShardFaultPlan(partitions=((0, 1, 2, 3),)).enabled
        assert ShardFaultPlan(shed_uplinks_per_tick=10).enabled
        # Tuning knobs alone do not enable the plan.
        assert not ShardFaultPlan(heartbeat_timeout=5, seed=3).enabled

    def test_crash_windows(self):
        plan = ShardFaultPlan(crashes=((1, 10, 20), (2, 5, None)))
        assert plan.is_down(1, 10) and plan.is_down(1, 19)
        assert not plan.is_down(1, 9) and not plan.is_down(1, 20)
        # t1=None: permanent.
        assert plan.is_down(2, 5) and plan.is_down(2, 10 ** 6)
        assert not plan.is_down(0, 10)

    def test_partitions_are_symmetric_and_windowed(self):
        plan = ShardFaultPlan(partitions=((0, 3, 4, 8),))
        assert plan.is_partitioned(0, 3, 4)
        assert plan.is_partitioned(3, 0, 7)
        assert not plan.is_partitioned(0, 3, 8)
        assert not plan.is_partitioned(0, 1, 5)
        assert plan.active_partitions(5) == ((0, 3),)
        assert plan.active_partitions(9) == ()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_drop": 1.0},
            {"link_drop": -0.1},
            {"link_delay": -1},
            {"heartbeat_timeout": 0},
            {"recovery_settle_ticks": 0},
            {"shed_uplinks_per_tick": 0},
            {"crashes": ((0, 10, 10),)},
            {"crashes": ((0, -1, 5),)},
            {"crashes": ((-1, 0, 5),)},
            {"partitions": ((0, 0, 1, 2),)},
            {"partitions": ((0, 1, 5, 5),)},
            {"replicate": False},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(FaultError):
            ShardFaultPlan(**kwargs)

    def test_unknown_kwarg_gets_near_miss(self):
        with pytest.raises(FaultError, match="did you mean 'link_drop'"):
            ShardFaultPlan(linkdrop=0.1)

    def test_runconfig_plumbs_and_validates(self):
        plan = ShardFaultPlan(crashes=((0, 5, 9),))
        cfg = RunConfig("DKNN-P", shard=ShardConfig(shards=2, faults=plan))
        assert cfg.shard.faults is plan
        assert "ShardFaultPlan" in cfg.describe()["shard"]["faults"]
        # ... a wrong type names the expected one...
        with pytest.raises(ConfigError, match="ShardFaultPlan"):
            ShardConfig(shards=2, faults=RADIO_FAULTS)
        # ... and a disabled plan is allowed anywhere.
        RunConfig("DKNN-P", shard=ShardConfig(faults=ShardFaultPlan()))

    def test_single_shard_rejected_with_actionable_message(self):
        # shards=1 is a single shard server: no buddy to fail over to,
        # no backbone to partition — an enabled plan could never act.
        # The error must say so instead of silently ignoring the plan.
        plan = ShardFaultPlan(crashes=((0, 5, 9),))
        with pytest.raises(ConfigError, match="multi-shard tier"):
            ShardConfig(shards=1, faults=plan)
        # Disabled plans stay allowed: nothing to act on either way.
        ShardConfig(shards=1, faults=ShardFaultPlan())


def _run(algorithm, shards, shard_faults=None, faults=None, params=None):
    ring = RingSink()
    tel = Telemetry(ring)
    fleet, queries = build_workload(SPEC)
    cfg = RunConfig(
        algorithm,
        record_history=True,
        faults=faults,
        shard=ShardConfig(shards=shards, faults=shard_faults),
        params=dict(params or {}),
    )
    sim = build_system(cfg, fleet, queries, telemetry=tel)
    sim.run(SPEC.ticks)
    hist = {q.qid: sim.server.answer_history[q.qid] for q in queries}
    return hist, sim, ring.events()


class TestDisabledPlanBitIdentity:
    """A disabled plan must be indistinguishable from no plan at all:
    same answers, same CommStats, same protocol trace stream."""

    @pytest.mark.parametrize("algorithm", ALGS)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_identical_without_radio_faults(self, algorithm, shards):
        base_h, base_sim, base_ev = _run(algorithm, shards)
        got_h, got_sim, got_ev = _run(
            algorithm, shards, shard_faults=ShardFaultPlan()
        )
        assert got_h == base_h
        a, b = base_sim.channel.stats, got_sim.channel.stats
        assert a.per_kind_table() == b.per_kind_table()
        assert a.total_bytes == b.total_bytes
        assert a.server_to_server_messages == b.server_to_server_messages
        assert a.server_to_server_bytes == b.server_to_server_bytes
        key = lambda evs: [
            (e.tick, e.kind, e.fields) for e in protocol_events(evs)
        ]
        assert key(got_ev) == key(base_ev)

    @pytest.mark.parametrize("algorithm", ALGS)
    @pytest.mark.parametrize("shards", [2, 4])
    def test_identical_under_radio_faultplan(self, algorithm, shards):
        params = FT_PARAMS if algorithm == "DKNN-P" else {}
        base_h, base_sim, base_ev = _run(
            algorithm, shards, faults=RADIO_FAULTS, params=params
        )
        got_h, got_sim, got_ev = _run(
            algorithm,
            shards,
            faults=RADIO_FAULTS,
            shard_faults=ShardFaultPlan(),
            params=params,
        )
        assert got_h == base_h
        a, b = base_sim.channel.stats, got_sim.channel.stats
        assert a.per_kind_table() == b.per_kind_table()
        assert a.total_bytes == b.total_bytes
        key = lambda evs: [
            (e.tick, e.kind, e.fields) for e in protocol_events(evs)
        ]
        assert key(got_ev) == key(base_ev)

    def test_no_heartbeats_or_replication_when_disabled(self):
        _, sim, _ = _run("DKNN-P", 2, shard_faults=ShardFaultPlan())
        link = sim.server.link
        assert link.sent_by_kind[SHARD_HEARTBEAT] == 0
        assert link.sent_by_kind[SHARD_REPLICATE] == 0
        assert sim.server.shard_stats.failovers == 0
        assert not sim.server.per_message


class TestLinkFaults:
    def _link(self, plan, n=4):
        stats = CommStats()
        seen = []
        return ShardLink(n, stats, seen.append, plan), seen

    def test_crash_drops_both_directions(self):
        plan = ShardFaultPlan(crashes=((1, 5, 10),))
        link, seen = self._link(plan)
        link.begin_tick(5)
        assert link.send("forward", 0, 1, 8) is None
        assert link.send("forward", 1, 0, 8) is None
        assert link.crash_dropped == 2 and link.dropped == 2
        link.begin_tick(10)
        assert link.send("forward", 0, 1, 8) is not None
        assert len(seen) == 1
        # Accounting still counts the dropped sends (the bytes were
        # transmitted into the dead endpoint).
        assert link.stats.server_to_server_messages == 3

    def test_partition_drops_cross_pair_only(self):
        plan = ShardFaultPlan(partitions=((0, 2, 3, 6),))
        link, seen = self._link(plan)
        link.begin_tick(4)
        assert link.send("borrow", 0, 2, 8) is None
        assert link.send("borrow", 2, 0, 8) is None
        assert link.send("borrow", 0, 1, 8) is not None
        assert link.partition_dropped == 2
        link.begin_tick(6)
        assert link.send("borrow", 0, 2, 8) is not None
        assert len(seen) == 2

    def test_send_time_semantics_for_delayed_messages(self):
        # A message that left before the partition opened is delivered
        # even though it arrives during the cut: checks are send-time.
        plan = ShardFaultPlan(link_delay=2, partitions=((0, 1, 5, 9),))
        link, seen = self._link(plan)
        link.begin_tick(4)
        assert link.send("migrate", 0, 1, 8) is not None
        link.begin_tick(6)
        assert len(seen) == 1


class TestHandoffBackoff:
    """Satellite: lost handoffs retry with exponential backoff + cap,
    and the first retry fires on the very tick it did pre-backoff."""

    def test_first_retry_tick_matches_legacy_schedule(self):
        # Drive the schedule directly: a fresh handoff sent at tick T
        # over a delay-d link must become retryable at exactly T+d+1.
        fleet, queries = build_workload(SPEC)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        plan = ShardFaultPlan(link_delay=2)
        tier = shard_attach(sim, ShardConfig(shards=4, faults=plan))
        sim.run(2)
        tier._tick = 10
        tier._owner[queries[0].qid] = 0
        tier._handoff_pending[queries[0].qid] = 3
        tier._send_handoff(queries[0].qid, 0, 3)
        assert tier._retry[queries[0].qid] == (10 + 2 + 1, 1)

    def test_backoff_widens_and_caps_under_partition(self):
        # Pin a handoff to a permanently-partitioned destination and
        # step the retry sweep by hand: the gaps must double to the
        # cap (8) and never past it, so the retry count stays far
        # below one-per-tick.
        fleet, queries = build_workload(SPEC)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        plan = ShardFaultPlan(seed=3, partitions=((0, 1, 0, 10 ** 6),))
        tier = shard_attach(sim, ShardConfig(shards=2, faults=plan))
        sim.run(2)
        qid = queries[0].qid
        tier._tick = 10
        tier._owner[qid] = 0
        tier._handoff_pending[qid] = 1
        tier._send_handoff(qid, 0, 1)  # dropped by the partition
        retry_ticks = []
        for tick in range(11, 91):
            tier._tick = tick
            before = tier.shard_stats.handoff_retries
            tier._retry_pending_handoffs()
            if tier.shard_stats.handoff_retries > before:
                retry_ticks.append(tick)
        assert retry_ticks, "retries never fired"
        # First retransmit is on the legacy schedule (tick 11).
        assert retry_ticks[0] == 11
        # The gap saturates at the cap, never past it.
        assert tier._retry[qid][1] == 8
        gaps = [b - a for a, b in zip(retry_ticks, retry_ticks[1:])]
        assert all(2 <= g <= 8 + 7 for g in gaps)
        # Every-tick retrying would fire ~80 times over this window;
        # doubling gaps keep it an order of magnitude lower.
        assert len(retry_ticks) <= 15

    def _retry_schedule(self, side, seed):
        """The exact retry-tick sequence of one pinned lost handoff."""
        fleet, queries = build_workload(SPEC)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        plan = ShardFaultPlan(seed=seed, partitions=((0, 1, 0, 10 ** 6),))
        tier = shard_attach(sim, ShardConfig(shards=side, faults=plan))
        sim.run(2)
        qid = queries[0].qid
        tier._tick = 10
        tier._owner[qid] = 0
        tier._handoff_pending[qid] = 1
        tier._send_handoff(qid, 0, 1)
        ticks = []
        for tick in range(11, 91):
            tier._tick = tick
            before = tier.shard_stats.handoff_retries
            tier._retry_pending_handoffs()
            if tier.shard_stats.handoff_retries > before:
                ticks.append(tick)
        return ticks

    @pytest.mark.parametrize("side", [2, 4, 8])
    def test_retry_schedule_deterministic_per_seed(self, side):
        # The backoff jitter is seeded: the same (plan seed, grid)
        # must replay the identical retransmit schedule, tick for
        # tick, at every grid size — determinism is what makes a
        # failing chaos seed replayable.
        first = self._retry_schedule(side, seed=3)
        again = self._retry_schedule(side, seed=3)
        assert first, "retries never fired"
        assert first == again
        # The first retransmit is always the legacy (pre-backoff)
        # schedule — jitter only enters from the second one on.
        assert first[0] == 11

    def test_retry_jitter_varies_with_seed(self):
        # Different plan seeds draw different jitter: at least one
        # retransmit tick differs (the schedule is seeded, not fixed).
        a = self._retry_schedule(2, seed=3)
        b = self._retry_schedule(2, seed=4)
        assert a and b
        assert a != b


class TestLossRaces:
    """Satellite: the two nastiest backbone races stay safe."""

    def test_dropped_borrow_reply_terminates_degraded(self):
        # A certain-loss backbone: every borrow reply dies. The run
        # must complete (no hang), and the borrowing queries must be
        # annotated degraded rather than silently wrong.
        spec = SPEC.but(ticks=30)
        fleet, queries = build_workload(spec)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        plan = ShardFaultPlan(seed=11, link_drop=0.9)
        tier = shard_attach(sim, ShardConfig(shards=4, faults=plan))
        sim.run(spec.ticks)  # terminates: structurally no reply wait
        if tier.shard_stats.lost_borrows:
            # At least one query carried the degraded annotation at
            # some point (recorded as an opened-and-possibly-closed
            # window).
            flagged = len(tier._degraded_overlay) + len(
                tier.shard_stats.recovery_latencies
            )
            assert flagged > 0

    def test_delayed_ack_after_second_crossing_single_owner(self):
        # Ping-pong a handoff by hand: owner 0 -> 1 (commit delayed),
        # focal swings back before the ack lands. The superseded check
        # must leave exactly one owner at every step.
        fleet, queries = build_workload(SPEC)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        plan = ShardFaultPlan(link_delay=3)
        tier = shard_attach(sim, ShardConfig(shards=2, faults=plan))
        sim.run(2)
        qid = queries[0].qid
        tier._owner[qid] = 0
        tier._maybe_handoff(qid, 1)  # in flight, commits at +3
        assert tier._owner[qid] == 0 and tier._handoff_pending[qid] == 1
        tier._maybe_handoff(qid, 0)  # swings back pre-commit
        assert qid not in tier._handoff_pending
        # The delayed copy lands now: superseded, ignored — the owner
        # map still holds exactly one entry for the query.
        tier.link.begin_tick(tier._tick + 4)
        assert tier._owner[qid] == 0
        assert qid not in tier._handoff_pending

    def test_delayed_backbone_with_crashes_keeps_single_owner(self):
        spec = SPEC.but(ticks=50, query_speed=90.0)
        fleet, queries = build_workload(spec)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        plan = ShardFaultPlan(
            seed=2, link_delay=2, link_drop=0.3,
            crashes=((0, 18, 28), (3, 30, 40)),
        )
        tier = shard_attach(sim, ShardConfig(shards=2, faults=plan))
        owners_seen = []
        sim.run(spec.ticks, on_tick=lambda s: owners_seen.append(
            dict(s.server._owner)
        ))
        for snapshot in owners_seen:
            for qid, owner in snapshot.items():
                assert 0 <= owner < tier.router.n_shards


class TestFailover:
    def _faulty_run(self, plan, spec=None, shards=2, params=FT_PARAMS):
        spec = spec or SPEC.but(ticks=40)
        ring = RingSink()
        tel = Telemetry(ring)
        fleet, queries = build_workload(spec)
        cfg = RunConfig(
            "DKNN-P",
            record_history=True,
            shard=ShardConfig(shards=shards, faults=plan),
            params=dict(params),
        )
        sim = build_system(cfg, fleet, queries, telemetry=tel)
        sim.run(spec.ticks)
        return sim.server, sim, ring.events()

    def test_crash_triggers_failover_and_restore(self):
        plan = ShardFaultPlan(seed=7, crashes=((0, 10, 22),))
        tier, sim, events = self._faulty_run(plan)
        st = tier.shard_stats
        assert st.failovers >= 1
        assert st.restores >= 1
        assert st.heartbeats > 0
        # Failover fires within the heartbeat timeout of the crash.
        fo = [e for e in events if e.kind == "shard.failover"]
        assert fo and fo[0].fields["shard"] == 0
        assert 10 < fo[0].tick <= 10 + plan.heartbeat_timeout + 2
        rs = [e for e in events if e.kind == "shard.restore"]
        assert rs and rs[0].tick >= 22
        # After the run the failed set is empty again.
        assert not tier._failed and not tier._covered_by

    def test_takeover_moves_queries_and_flags_degraded(self):
        # Crash every shard's cell is impossible; instead crash each
        # shard in turn so whichever owns a query gets hit.
        plan = ShardFaultPlan(
            seed=7, crashes=((0, 10, 20), (1, 10, 20), (2, 10, 20))
        )
        tier, sim, events = self._faulty_run(plan)
        st = tier.shard_stats
        if st.queries_taken_over:
            assert st.failovers >= 1
            # Degraded windows opened and closed with latencies.
            assert st.recovery_latencies
            assert all(t >= 0 for t in st.recovery_latencies)
            recovered = [e for e in events if e.kind == "shard.recovered"]
            assert len(recovered) == len(st.recovery_latencies)

    def test_replication_streams_deltas(self):
        plan = ShardFaultPlan(seed=7, crashes=((0, 12, 20),))
        tier, sim, _ = self._faulty_run(plan)
        link = tier.link
        assert link.sent_by_kind[SHARD_REPLICATE] > 0
        assert tier.shard_stats.replications == (
            link.sent_by_kind[SHARD_REPLICATE]
        )
        assert tier.shard_stats.failovers >= 1

    def test_partition_false_suspicion_heals(self):
        # Cut shard 0 from its watcher (buddy 1) long enough to trip
        # the timeout: a failover fires although nothing crashed, and
        # the healed partition restores it via the next heartbeat.
        plan = ShardFaultPlan(seed=7, partitions=((0, 1, 8, 20),))
        tier, sim, events = self._faulty_run(plan)
        st = tier.shard_stats
        assert st.failovers >= 1
        assert st.restores >= 1
        parts = [e for e in events if e.kind == "shard.partition"]
        assert any(e.fields["up"] for e in parts)
        assert any(not e.fields["up"] for e in parts)
        assert not tier._failed

    def test_degraded_fraction_reaches_accuracy_tracker(self):
        spec = SPEC.but(ticks=40)
        plan = ShardFaultPlan(
            seed=7, crashes=((0, 10, 20), (1, 10, 20), (2, 10, 20))
        )
        m = run_once(
            RunConfig(
                "DKNN-P",
                shard=ShardConfig(shards=2, faults=plan),
                params=dict(FT_PARAMS),
            ),
            spec,
            accuracy_every=2,
        )
        if m.extra.get("taken_over"):
            assert m.extra.get("degraded_frac", 0.0) > 0.0
            assert "recovery_ticks" in m.extra


class TestAdmissionControl:
    def test_threshold_sheds_and_flags(self):
        plan = ShardFaultPlan(seed=7, shed_uplinks_per_tick=5)
        fleet, queries = build_workload(SPEC)
        cfg = RunConfig(
            "DKNN-P",
            shard=ShardConfig(shards=2, faults=plan),
            params=dict(FT_PARAMS),
        )
        sim = build_system(cfg, fleet, queries)
        sim.run(SPEC.ticks)
        tier = sim.server
        st = tier.shard_stats
        # 250 objects over 4 shards with threshold 5: constant shedding.
        assert st.shed_uplinks > 0
        # Degraded annotations opened for shed repair traffic, or all
        # shed traffic was position reports (no qid) — either way the
        # tier kept serving.
        assert sum(st.uplinks) > 0

    def test_no_shedding_without_threshold(self):
        plan = ShardFaultPlan(seed=7, link_delay=1)
        fleet, queries = build_workload(SPEC)
        cfg = RunConfig("DKNN-P", shard=ShardConfig(shards=2, faults=plan))
        sim = build_system(cfg, fleet, queries)
        sim.run(SPEC.ticks)
        assert sim.server.shard_stats.shed_uplinks == 0
