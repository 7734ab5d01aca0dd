"""The sharded server tier: identity, accounting, ownership, handoff.

The tier's contract has two halves and both are pinned here:

* **Bit-identity** — for every algorithm and every shard grid size,
  with and without a FaultPlan, the sharded run's per-tick answers and
  radio traffic equal the single-server run on the same seed;
* **Real distribution ledger** — routing, query ownership (never two
  owners), handoff under boundary crossings (including over a lossy
  backbone and during radio blackouts), cross-shard borrowing, and the
  separate ``server_to_server`` accounting bucket.
"""

from __future__ import annotations

import pytest

from repro.api import (
    FaultPlan,
    RunConfig,
    ShardConfig,
    ShardedServer,
    ShardRouter,
    WorkloadSpec,
    build_system,
    build_workload,
    shard_attach,
)
from repro.errors import ConfigError, ExperimentError, NetworkError
from repro.geometry import Rect
from repro.net.shardlink import SHARD_HANDOFF, ShardLink
from repro.net.stats import CommStats

SPEC = WorkloadSpec(
    n_objects=250, n_queries=3, k=4, ticks=24, warmup_ticks=4, seed=13
)

FAULTS = FaultPlan(
    seed=5, drop_uplink=0.05, drop_downlink=0.05, dup_prob=0.02,
    delay_prob=0.03,
)

ALGS = ("DKNN-P", "DKNN-B", "DKNN-G")


def _history(algorithm, shards, faults=None, spec=SPEC, params=None):
    fleet, queries = build_workload(spec)
    cfg = RunConfig(
        algorithm,
        record_history=True,
        faults=faults,
        shard=None if shards is None else ShardConfig(shards=shards),
        params=dict(params or {}),
    )
    sim = build_system(cfg, fleet, queries)
    sim.run(spec.ticks)
    hist = {q.qid: sim.server.answer_history[q.qid] for q in queries}
    return hist, sim


class TestRouter:
    UNIVERSE = Rect(0, 0, 1000, 1000)

    def test_cells_tile_the_universe(self):
        router = ShardRouter(self.UNIVERSE, 2)
        assert router.n_shards == 4
        assert router.shard_of(10, 10) == 0
        assert router.shard_of(990, 10) == 1
        assert router.shard_of(10, 990) == 2
        assert router.shard_of(990, 990) == 3
        # Edges (and anything clamped) stay inside the grid.
        assert router.shard_of(1000, 1000) == 3
        assert router.shard_of(-5, 2000) in range(4)

    def test_rect_of_inverts_shard_of(self):
        router = ShardRouter(self.UNIVERSE, 3)
        for sid in range(router.n_shards):
            rect = router.rect_of(sid)
            cx, cy = (rect.xmin + rect.xmax) / 2, (rect.ymin + rect.ymax) / 2
            assert router.shard_of(cx, cy) == sid

    def test_circle_overlap_exact(self):
        router = ShardRouter(self.UNIVERSE, 2)
        assert router.shards_overlapping_circle(250, 250, 100) == [0]
        assert router.shards_overlapping_circle(500, 250, 10) == [0, 1]
        assert router.shards_overlapping_circle(500, 500, 10) == [0, 1, 2, 3]
        # Near the cell corner but outside the circle: corner cells
        # whose nearest point is farther than r are excluded.
        assert router.shards_overlapping_circle(490, 250, 11) == [0, 1]
        assert router.shards_overlapping_circle(490, 250, 9) == [0]

    def test_invalid_grid_rejected(self):
        with pytest.raises(NetworkError):
            ShardRouter(self.UNIVERSE, 0)


class TestBitIdentity:
    """The correctness bar: sharded == single-server, bit for bit."""

    @pytest.mark.parametrize("algorithm", ALGS)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_per_tick_answers_identical(self, algorithm, shards):
        base, base_sim = _history(algorithm, None)
        got, sim = _history(algorithm, shards)
        assert got == base
        radio = sim.channel.stats
        assert radio.total_messages == base_sim.channel.stats.total_messages
        assert radio.total_bytes == base_sim.channel.stats.total_bytes

    @pytest.mark.parametrize("algorithm", ALGS)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_identical_under_faultplan(self, algorithm, shards):
        params = {"fault_tolerant": True} if algorithm == "DKNN-P" else {}
        base, _ = _history(algorithm, None, faults=FAULTS, params=params)
        got, _ = _history(algorithm, shards, faults=FAULTS, params=params)
        assert got == base

    def test_tier_actually_distributes(self):
        _, sim = _history("DKNN-P", 4)
        st = sim.server.shard_stats
        loaded = sum(1 for n in st.uplinks if n > 0)
        assert loaded > 1, "every uplink landed on one shard"
        assert st.migrations > 0
        assert sim.channel.stats.server_to_server_messages > 0


class TestServerToServerBucket:
    """Satellite: backbone traffic never pollutes the radio totals."""

    def test_s1_sharded_equals_unsharded_radio_totals(self):
        _, plain = _history("DKNN-B", None)
        _, s1 = _history("DKNN-B", 1)
        a, b = plain.channel.stats, s1.channel.stats
        assert a.total_messages == b.total_messages
        assert a.total_bytes == b.total_bytes
        assert a.per_kind_table() == b.per_kind_table()
        # One shard: no neighbors, so the backbone is silent too.
        assert b.server_to_server_messages == 0

    def test_s4_backbone_is_its_own_bucket(self):
        _, plain = _history("DKNN-P", None)
        _, s4 = _history("DKNN-P", 4)
        a, b = plain.channel.stats, s4.channel.stats
        assert b.server_to_server_messages > 0
        # ... and the radio side is byte-identical anyway.
        assert a.total_messages == b.total_messages
        assert a.total_bytes == b.total_bytes
        assert a.uplink_messages == b.uplink_messages
        assert a.downlink_messages == b.downlink_messages

    def test_record_and_views(self):
        stats = CommStats()
        stats.record_server_to_server("handoff", 100)
        stats.record_server_to_server("handoff", 50)
        stats.record_server_to_server("borrow", 30)
        assert stats.server_to_server_messages == 3
        assert stats.server_to_server_bytes == 180
        assert stats.total_messages == 0  # radio untouched
        table = stats.server_to_server_table()
        assert table["handoff"] == {"messages": 2, "bytes": 150}

    def test_merge_and_delta(self):
        a, b = CommStats(), CommStats()
        a.record_server_to_server("forward", 40)
        b.record_server_to_server("forward", 60)
        a.merge(b)
        assert a.server_to_server_bytes == 100
        mark = a.snapshot()
        a.record_server_to_server("forward", 10)
        assert a.delta_since(mark).server_to_server_messages == 1


class TestOwnershipAndHandoff:
    def _tier(self, shards=2, ticks=SPEC.ticks, **link_kw):
        fleet, queries = build_workload(SPEC)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        tier = shard_attach(sim, ShardConfig(shards=shards), **link_kw)
        sim.run(ticks)
        return tier, sim

    def test_every_query_has_exactly_one_owner(self):
        tier, sim = self._tier(shards=4)
        qids = [spec.qid for spec in tier.inner.queries]
        # _owner is a plain dict keyed by qid: single ownership is
        # structural. What needs checking is total coverage + validity.
        assert sorted(tier._owner) == sorted(qids)
        for owner in tier._owner.values():
            assert 0 <= owner < tier.router.n_shards

    def test_owner_tracks_focal_home(self):
        tier, sim = self._tier(shards=4)
        for spec in tier.inner.queries:
            if spec.qid in tier._handoff_pending:
                continue
            assert tier._owner[spec.qid] == tier._home[spec.focal_oid]

    def test_handoffs_happen_and_commit(self):
        tier, _ = self._tier(shards=4, ticks=60)
        assert tier.shard_stats.handoffs > 0
        assert tier.link.sent_by_kind[SHARD_HANDOFF] >= (
            tier.shard_stats.handoffs
        )
        assert not tier._handoff_pending  # perfect link: all committed

    def test_lossy_backbone_retries_until_committed(self):
        tier, _ = self._tier(
            shards=4, ticks=60, link_drop=0.5, link_seed=3
        )
        # Drops force retransmits; ownership still converges (at most
        # the in-flight tail stays pending at cut-off).
        if tier.shard_stats.handoffs:
            assert tier.link.dropped > 0
        for qid, owner in tier._owner.items():
            assert 0 <= owner < tier.router.n_shards

    def test_delayed_backbone_keeps_single_owner(self):
        tier, _ = self._tier(shards=4, ticks=60, link_delay=2)
        assert sorted(tier._owner) == sorted(
            spec.qid for spec in tier.inner.queries
        )

    def test_double_wrap_rejected(self):
        fleet, queries = build_workload(SPEC)
        sim = build_system(
            RunConfig("DKNN-P", shard=ShardConfig(shards=2)), fleet, queries
        )
        with pytest.raises(NetworkError):
            shard_attach(sim, ShardConfig(shards=2))

    def test_bare_shard_count_rejected(self):
        fleet, queries = build_workload(SPEC)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        with pytest.raises(ConfigError, match="ShardConfig"):
            shard_attach(sim, 2)


class TestHandoffUnderBlackout:
    """Property: a focal crossing shards during a radio blackout still
    re-converges to the exact kNN within the lease bound, and ownership
    stays single throughout."""

    def test_reconverges_within_lease_bound(self):
        lease = 8
        spec = WorkloadSpec(
            n_objects=200,
            n_queries=4,
            k=4,
            ticks=70,
            warmup_ticks=4,
            seed=23,
            query_speed=90.0,  # fast focals: guaranteed crossings
        )
        blackout = (20, 30)
        plan = FaultPlan(
            seed=9,
            blackouts=tuple(
                (oid, blackout[0], blackout[1])
                for oid in range(spec.population)
            ),
        )
        fleet, queries = build_workload(spec)
        cfg = RunConfig(
            "DKNN-P",
            record_history=True,
            faults=plan,
            shard=ShardConfig(shards=3),
            params={"fault_tolerant": True, "lease_ticks": lease},
        )
        sim = build_system(cfg, fleet, queries)

        crossings = []
        owners_seen = []

        def on_tick(s):
            tier = s.server
            owners_seen.append(dict(tier._owner))
            crossings.append(tier.shard_stats.handoffs)

        sim.run(spec.ticks, on_tick=on_tick)
        tier = sim.server

        # The scenario is live: focals crossed shard boundaries, some
        # inside the blackout window.
        assert tier.shard_stats.handoffs > 0, "no boundary crossing"

        # Ownership invariant held on every tick: _owner is one map,
        # and every owner id was always a valid shard.
        for snapshot in owners_seen:
            for owner in snapshot.values():
                assert 0 <= owner < tier.router.n_shards

        # Re-convergence: within lease + retry slack after the blackout
        # lifts, published answers are exact again (and stay exact at
        # the probe ticks we check).
        deadline = blackout[1] + lease + 4
        from repro.index.bruteforce import brute_knn_ids

        replay = {}
        for q in queries:
            for tick, answer in sim.server.answer_history[q.qid]:
                replay.setdefault(tick, {})[q.qid] = answer
        # Rebuild ground truth by re-running the same workload.
        fleet2, _ = build_workload(spec)
        exact_since = None
        for tick in range(1, spec.ticks + 1):
            fleet2.advance()
            if tick < deadline or tick % 2:
                continue
            ok = True
            for q in queries:
                qx, qy = fleet2.positions[q.focal_oid]
                truth = brute_knn_ids(
                    fleet2.positions, qx, qy, q.k, frozenset((q.focal_oid,))
                )
                if sorted(replay[tick][q.qid]) != sorted(truth):
                    ok = False
            if ok and exact_since is None:
                exact_since = tick
        assert exact_since is not None, (
            f"never exact again after blackout + lease (deadline "
            f"{deadline})"
        )


class TestBatchedRepairSearchesUnderSharding:
    """The inner server's subround pre-pass searches its repairs as one
    many-row pass; the tier is still told of every repair circle one by
    one and borrows repair by repair. The reference searches per query
    (``reference_system``)."""

    @pytest.mark.parametrize("shards", (2, 4))
    def test_rebalancing_tier_matches_the_per_query_reference(self, shards):
        from repro.api import RebalancePolicy
        from tests.helpers import built_system, recorded_run, reference_system

        ticks = 30
        spec = WorkloadSpec(
            n_objects=1500, n_queries=12, k=6, ticks=ticks, warmup_ticks=0,
            seed=4, mobility="hotspot_drift",
            mobility_options={"n_hotspots": 4, "zipf_s": 0.5,
                              "drift_period": 40, "sigma": 400.0},
        )
        cfg = RunConfig(
            "DKNN-P",
            shard=ShardConfig(
                shards=shards,
                rebalance=RebalancePolicy(
                    check_interval=5, min_window_uplinks=8
                ),
            ),
        )
        built = recorded_run(cfg, spec, built_system, ticks)
        reference = recorded_run(cfg, spec, reference_system, ticks)
        for key in reference:
            assert built[key] == reference[key], key
        borrows, borrowed, cells_moved = built["shard_ledger"][6:9]
        assert borrows > 0 and borrowed > 0 and cells_moved > 0


class TestShardLink:
    def test_delivery_and_accounting(self):
        stats = CommStats()
        seen = []
        link = ShardLink(4, stats, seen.append)
        link.send("forward", 0, 3, 16)
        assert len(seen) == 1 and seen[0].size == 24
        assert stats.server_to_server_bytes == 24
        assert link.per_pair_table() == [(0, 3, 1)]

    def test_delay_holds_until_tick(self):
        stats = CommStats()
        seen = []
        link = ShardLink(2, stats, seen.append, delay_ticks=2)
        link.begin_tick(1)
        link.send("migrate", 0, 1, 8)
        assert not seen and link.pending() == 1
        link.begin_tick(2)
        assert not seen
        link.begin_tick(3)
        assert len(seen) == 1

    def test_drop_is_seeded_and_separate(self):
        stats = CommStats()
        seen = []
        link = ShardLink(2, stats, seen.append, drop_prob=0.5, seed=1)
        for _ in range(50):
            link.send("borrow", 0, 1, 4)
        assert link.dropped > 0
        assert len(seen) == 50 - link.dropped
        # Accounting counts sends, not deliveries.
        assert stats.server_to_server_messages == 50

    def test_validation(self):
        stats = CommStats()
        with pytest.raises(NetworkError):
            ShardLink(0, stats, lambda m: None)
        with pytest.raises(NetworkError):
            ShardLink(2, stats, lambda m: None, drop_prob=1.0)
        link = ShardLink(2, stats, lambda m: None)
        with pytest.raises(NetworkError):
            link.send("forward", 0, 5, 4)


class TestFacade:
    def test_api_surface_is_importable_and_complete(self):
        import repro.api as api

        assert api.__all__  # non-empty, explicit
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_sharded_run_through_facade_only(self):
        from repro.api import RunConfig, ShardConfig, WorkloadSpec, run_once

        spec = WorkloadSpec(
            n_objects=120, n_queries=2, k=3, ticks=12, warmup_ticks=2,
            seed=3,
        )
        m = run_once(
            RunConfig("DKNN-B", shard=ShardConfig(shards=2)),
            spec,
            accuracy_every=0,
        )
        assert m.extra["shards"] == 4
        assert "s2s/tick" in m.extra
        assert "shard_imbalance" in m.extra
