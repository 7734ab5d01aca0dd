"""Elastic shard rebalancing: invariants, bit-identity, backpressure.

Pinned contracts of the rebalancer (DESIGN.md section 14):

* **Partition invariant** — with migrations firing, the fine-cell
  ownership array is a partition of the universe every tick: every
  cell has exactly one owner and that owner is a live shard id.
* **Correctness preserved** — a rebalancing tier publishes the same
  per-tick answers as the unsharded reference server; migrating a
  cell moves homes and query ownership, never answer content.
* **Bit-identity when disabled** — ``rebalance=None`` (the default)
  leaves the static tier untouched: answers, CommStats and the
  protocol trace stream are identical to a build of current main
  without the feature.
* **It actually balances** — under a drifting hotspot the windowed
  max/mean uplink imbalance drops versus static boundaries (the E18
  acceptance criterion, smoke-sized here).
* **Chaos composition** — migrations racing crashes, partitions and
  a full-tier restart produce zero invariant violations.
* **Backpressure honesty** — deferred/shed uplinks surface in
  ``shard.defer`` / ``shard.shed`` trace events and flag the affected
  answers degraded; ``healthy_exactness`` stays 1.0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    AdmissionPolicy,
    RebalancePolicy,
    RunConfig,
    ShardConfig,
    ShardFaultPlan,
    WorkloadSpec,
    build_system,
    build_workload,
    run_chaos,
    run_once,
)
from repro.errors import ConfigError
from repro.net.message import Message, MessageKind
from repro.obs import RingSink, Telemetry, protocol_events
from tests.helpers import built_system, reference_system

#: Hotspot-drift workload small enough for CI but hot enough that the
#: rebalancer has something to chase (three Zipf-weighted hotspots
#: orbiting through the grid).
DRIFT = WorkloadSpec(
    n_objects=600, n_queries=4, k=4, ticks=60, warmup_ticks=5, seed=11,
    mobility="hotspot_drift",
    mobility_options={"n_hotspots": 3, "zipf_s": 1.0, "drift_period": 50},
)

POLICY = RebalancePolicy(
    check_interval=5, trigger=1.2, max_moves_per_cycle=6,
    cells_per_shard=4, min_window_uplinks=8,
)

FT_PARAMS = {
    "fault_tolerant": True,
    "ack_timeout": 2,
    "lease_ticks": 8,
    "violation_retry": 2,
}


def _build(spec, shard, params=None, record_history=True):
    ring = RingSink()
    tel = Telemetry(ring)
    fleet, queries = build_workload(spec)
    cfg = RunConfig(
        "DKNN-P",
        record_history=record_history,
        shard=shard,
        params=dict(params or {}),
    )
    sim = build_system(cfg, fleet, queries, telemetry=tel)
    return sim, queries, ring


def _trace_key(events):
    return [(e.tick, e.kind, e.fields) for e in protocol_events(events)]


class TestPolicyValidation:
    """Typed-config failures raise ConfigError naming the field."""

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"check_interval": 0}, "check_interval"),
            ({"max_moves_per_cycle": 0}, "max_moves_per_cycle"),
            ({"cells_per_shard": 0}, "cells_per_shard"),
            ({"cells_per_shard": 17}, "cells_per_shard"),
            ({"min_window_uplinks": -1}, "min_window_uplinks"),
            ({"trigger": 0.9}, "trigger"),
            ({"trigger": "hot"}, "trigger"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_rebalance_policy_fields(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            RebalancePolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"max_uplinks_per_tick": 0}, "max_uplinks_per_tick"),
            ({"max_uplinks_per_tick": 10, "defer": 1}, "defer"),
        ],
    )
    def test_admission_policy_fields(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            AdmissionPolicy(**kwargs)

    def test_rebalance_needs_a_multi_shard_tier(self):
        with pytest.raises(ConfigError, match="multi-shard tier"):
            ShardConfig(shards=1, rebalance=POLICY)

    def test_wrong_policy_type_named(self):
        with pytest.raises(ConfigError, match="RebalancePolicy"):
            ShardConfig(shards=2, rebalance=POLICY.describe())
        with pytest.raises(ConfigError, match="AdmissionPolicy"):
            ShardConfig(shards=2, admission=5)

    def test_two_admission_controllers_rejected(self):
        plan = ShardFaultPlan(shed_uplinks_per_tick=10)
        with pytest.raises(ConfigError, match="one admission controller"):
            ShardConfig(
                shards=2,
                admission=AdmissionPolicy(max_uplinks_per_tick=10),
                faults=plan,
            )


class TestPartitionInvariant:
    def test_cell_ownership_is_a_partition_every_tick(self):
        sim, _, _ = _build(
            DRIFT, ShardConfig(shards=2, rebalance=POLICY)
        )
        tier = sim.server
        n = tier.router.n_shards
        side = tier.router.cell_side

        def check(x):
            owner = x.server.router.owner
            assert owner is not None
            assert len(owner) == side * side
            assert not ((owner < 0) | (owner >= n)).any()

        sim.run(DRIFT.ticks, on_tick=check)
        # The run exercised the migration path, not a quiet no-op.
        assert tier.shard_stats.rebalances >= 1
        assert tier.shard_stats.cells_moved >= 1
        assert tier.shard_stats.rehomed_objects >= 1

    def test_owner_array_starts_as_the_static_grid(self):
        sim, _, _ = _build(
            DRIFT, ShardConfig(shards=2, rebalance=POLICY)
        )
        tier = sim.server
        cps = POLICY.cells_per_shard
        owner = np.asarray(tier.router.owner).reshape(
            tier.router.cell_side, tier.router.cell_side
        )
        for row in range(tier.router.cell_side):
            for col in range(tier.router.cell_side):
                assert owner[row, col] == (row // cps) * 2 + (col // cps)


class TestCorrectnessPreserved:
    def test_rebalancing_answers_match_unsharded(self):
        base_sim, queries, _ = _build(DRIFT, None)
        base_sim.run(DRIFT.ticks)
        base = {
            q.qid: base_sim.server.answer_history[q.qid] for q in queries
        }
        sim, queries2, _ = _build(
            DRIFT, ShardConfig(shards=2, rebalance=POLICY)
        )
        sim.run(DRIFT.ticks)
        got = {q.qid: sim.server.answer_history[q.qid] for q in queries2}
        assert got == base
        assert sim.server.shard_stats.cells_moved >= 1
        # Migrations ride the backbone, not the radio.
        radio, base_radio = sim.channel.stats, base_sim.channel.stats
        assert radio.total_messages == base_radio.total_messages
        assert radio.total_bytes == base_radio.total_bytes

    def test_exactness_stays_perfect(self):
        cfg = RunConfig(
            "DKNN-P", shard=ShardConfig(shards=2, rebalance=POLICY)
        )
        m = run_once(cfg, DRIFT, accuracy_every=5)
        assert m.exactness == 1.0
        assert m.extra["rebalances"] >= 1


class TestDisabledBitIdentity:
    """``rebalance=None`` is indistinguishable from a static tier —
    answers, CommStats, and the protocol trace stream."""

    def test_static_config_unchanged_by_the_feature(self):
        spec = DRIFT
        runs = []
        for shard in (ShardConfig(shards=2), ShardConfig(shards=2)):
            sim, queries, ring = _build(spec, shard)
            sim.run(spec.ticks)
            runs.append((
                {q.qid: sim.server.answer_history[q.qid] for q in queries},
                sim.channel.stats.per_kind_table(),
                sim.channel.stats.total_bytes,
                _trace_key(ring.events()),
            ))
        assert runs[0] == runs[1]
        # And the static tier never allocates the fine-cell machinery's
        # rebalance bookkeeping beyond the always-on gauge.
        sim, _, ring = _build(spec, ShardConfig(shards=2))
        sim.run(spec.ticks)
        st = sim.server.shard_stats
        assert st.rebalances == st.cells_moved == st.rehomed_objects == 0
        kinds = {e.kind for e in protocol_events(ring.events())}
        assert not kinds & {"shard.rebalance", "shard.migrate"}

    def test_rebalance_trace_events_present_when_enabled(self):
        sim, _, ring = _build(
            DRIFT, ShardConfig(shards=2, rebalance=POLICY)
        )
        sim.run(DRIFT.ticks)
        events = protocol_events(ring.events())
        cycles = [e for e in events if e.kind == "shard.rebalance"]
        moves = [e for e in events if e.kind == "shard.migrate"]
        assert cycles and moves
        for e in cycles:
            assert e.fields["moves"] >= 1
            assert e.fields["imbalance"] >= POLICY.trigger
        for e in moves:
            assert e.fields["src_shard"] != e.fields["dst_shard"]
            assert 0 <= e.fields["cell"] < sim.server.router.cell_side ** 2


class TestItActuallyBalances:
    def test_imbalance_drops_versus_static(self):
        static = run_once(
            RunConfig("DKNN-P", shard=ShardConfig(shards=2)),
            DRIFT, accuracy_every=0,
        )
        rebal = run_once(
            RunConfig(
                "DKNN-P", shard=ShardConfig(shards=2, rebalance=POLICY)
            ),
            DRIFT, accuracy_every=0,
        )
        assert rebal.extra["rebalances"] >= 1
        assert (
            rebal.extra["imbalance_windowed"]
            < static.extra["imbalance_windowed"]
        )


class TestChaosComposition:
    def test_migrations_racing_crashes_zero_violations(self):
        result = run_chaos(seed=3, side=2, ticks=120, rebalance=True)
        assert result.ok, result.violations[:5]
        # Both the fault schedule and the rebalancer actually fired.
        assert result.counters["failovers"] >= 1
        assert result.counters["rebalances"] >= 1
        assert result.counters["cells_moved"] >= 1

    def test_chaos_run_is_deterministic(self):
        a = run_chaos(seed=7, side=2, ticks=90, rebalance=True)
        b = run_chaos(seed=7, side=2, ticks=90, rebalance=True)
        assert a.counters == b.counters
        assert a.violations == b.violations


class TestBackpressureHonesty:
    def _overloaded(self, defer):
        shard = ShardConfig(
            shards=2,
            admission=AdmissionPolicy(max_uplinks_per_tick=8, defer=defer),
        )
        sim, queries, ring = _build(DRIFT, shard, params=FT_PARAMS)
        sim.run(DRIFT.ticks)
        return sim, queries, ring

    def test_deferred_uplinks_flag_degraded_and_trace(self):
        sim, _, ring = self._overloaded(defer=True)
        st = sim.server.shard_stats
        assert st.deferred_uplinks > 0
        kinds = [e for e in protocol_events(ring.events())
                 if e.kind == "shard.defer"]
        assert kinds
        for e in kinds:
            assert 0 <= e.fields["shard"] < sim.server.router.n_shards

    def test_shed_uplinks_flag_degraded_and_trace(self):
        sim, _, ring = self._overloaded(defer=False)
        st = sim.server.shard_stats
        assert st.shed_uplinks > 0
        assert any(
            e.kind == "shard.shed" for e in protocol_events(ring.events())
        )

    def test_healthy_exactness_survives_overload(self):
        # A budget the drift bursts exceed only part of the time, so
        # the run has both degraded and vouched-for samples.
        shard = ShardConfig(
            shards=2,
            admission=AdmissionPolicy(max_uplinks_per_tick=150, defer=True),
        )
        cfg = RunConfig("DKNN-P", shard=shard, params=dict(FT_PARAMS))
        m = run_once(cfg, DRIFT, accuracy_every=2)
        assert m.extra["deferred/tick"] > 0
        # Overload degraded some answers — but every answer the tier
        # vouched for was exact (the admission path flags, not hides).
        assert 0 < m.extra["degraded_frac"] < 1
        assert m.extra["healthy_exactness"] == 1.0

    @pytest.mark.parametrize(
        "plan, settle",
        [(None, 8), (ShardFaultPlan(link_delay=1, recovery_settle_ticks=20), 20)],
    )
    def test_admission_window_settles_on_the_plan_bound(self, plan, settle):
        # A shed that no republish follows stays degraded for the
        # settle bound: 8 ticks without a fault plan, the plan's
        # recovery_settle_ticks with one.
        shard = ShardConfig(
            shards=2,
            admission=AdmissionPolicy(max_uplinks_per_tick=10**6, defer=False),
            faults=plan,
        )
        sim, _, _ = _build(DRIFT, shard, params=FT_PARAMS)
        sim.run(10)
        tier = sim.server
        qid, owner = sorted(tier._owner.items())[0]
        assert qid not in tier._degraded_overlay
        tier._tick_uplinks[owner] = 2 * 10**6 + 1
        msg = Message(MessageKind.QUERY_MOVE, 0, 0)
        assert not tier._admit(msg, owner, qid)
        flagged = tier._tick
        for tick in range(flagged, flagged + settle):
            tier._settle_degraded(tick)
            assert qid in tier._degraded_overlay, tick
        tier._settle_degraded(flagged + settle)
        assert qid not in tier._degraded_overlay


class TestHotspotDriftParity:
    """The drift kernel's SoA fast path is bit-identical to the scalar
    reference model (same RNG draw order, positions a pure function of
    the tick counter)."""

    def test_fast_and_scalar_answers_identical(self):
        spec = DRIFT.but(ticks=30)
        results = {}
        cfg = RunConfig("DKNN-B", record_history=True)
        for build in (reference_system, built_system):
            sim, queries = build(cfg, spec)
            sim.run(spec.ticks)
            results[build] = {
                q.qid: sim.server.answer_history[q.qid] for q in queries
            }
        assert results[built_system] == results[reference_system]
