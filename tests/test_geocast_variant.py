"""Behavioral tests for the geocast protocol (DKNN-G)."""

import math

import pytest

from repro.core.geocast_variant import GeocastParams, build_geocast_system
from repro.errors import ProtocolError
from repro.net.message import MessageKind
from repro.experiments.config import RunConfig
from repro.workloads import WorkloadSpec, build_workload
from tests.helpers import ExactnessChecker, reference_system


def _system(n=150, q=2, k=5, seed=29, query_speed=50.0, **params):
    spec = WorkloadSpec(
        n_objects=n, n_queries=q, k=k, seed=seed, ticks=10,
        warmup_ticks=1, query_speed=query_speed,
    )
    fleet, queries = build_workload(spec)
    sim = build_geocast_system(
        fleet, queries, GeocastParams(**params) if params else None
    )
    return sim, fleet, queries


class TestParams:
    def test_invalid_lease_raises(self):
        with pytest.raises(ProtocolError):
            GeocastParams(lease_ticks=0)

    def test_broadcast_fields_validated(self):
        with pytest.raises(ProtocolError):
            GeocastParams(collect_slack=0.5)

    def test_as_broadcast_conversion(self):
        g = GeocastParams(s_cap=33.0, lease_ticks=7)
        assert g.as_broadcast().s_cap == 33.0


class TestTrafficShape:
    def test_uses_geocasts_not_broadcasts(self):
        sim, fleet, _ = _system()
        sim.run(10)
        stats = sim.channel.stats
        assert stats.geocast_messages > 0
        assert stats.broadcast_messages == 0  # only trivial installs broadcast

    def test_wakeups_far_below_broadcast_variant(self):
        from repro.core.broadcast_variant import build_broadcast_system

        spec = WorkloadSpec(
            n_objects=300, n_queries=2, k=5, seed=31, ticks=40, warmup_ticks=5
        )
        fleet_b, queries_b = build_workload(spec)
        sim_b = build_broadcast_system(fleet_b, queries_b)
        sim_b.run(40)
        fleet_g, queries_g = build_workload(spec)
        sim_g = build_geocast_system(fleet_g, queries_g)
        sim_g.run(40)
        assert (
            sim_g.channel.stats.broadcast_receptions
            < sim_b.channel.stats.broadcast_receptions / 3
        )

    def test_exactness_over_run(self):
        sim, fleet, queries = _system()
        checker = ExactnessChecker(fleet, queries)
        sim.run(50, on_tick=checker)
        checker.assert_clean()

    def test_exact_with_static_query_and_lease_renewals(self):
        # Near-static world: repairs are rare, so leases actually
        # expire and the renewal path runs.
        spec = WorkloadSpec(
            n_objects=150, n_queries=2, k=5, seed=33, ticks=10,
            warmup_ticks=1, query_speed=0.0, speed_min=0.5, speed_max=1.0,
        )
        fleet, queries = build_workload(spec)
        sim = build_geocast_system(
            fleet, queries, GeocastParams(lease_ticks=5)
        )
        checker = ExactnessChecker(fleet, queries)
        sim.run(60, on_tick=checker)
        checker.assert_clean()
        assert sim.server.renewals > 0

    @pytest.mark.parametrize("lease", [1, 3, 25])
    def test_exact_across_leases(self, lease):
        sim, fleet, queries = _system(seed=37, lease_ticks=lease)
        checker = ExactnessChecker(fleet, queries)
        sim.run(40, on_tick=checker)
        checker.assert_clean()


class TestEpochs:
    def test_epochs_increase_with_repairs(self):
        sim, fleet, queries = _system()
        sim.run(20)
        for q in queries:
            st = sim.server._states[q.qid]
            assert st.epoch == sim.server.repair_count[q.qid]

    def test_stale_violations_are_dropped_not_fatal(self):
        from repro.core.protocol import ViolationReport
        from repro.net.message import Message, SERVER_ID

        sim, fleet, queries = _system()
        sim.run(5)
        before = sim.server.stale_violations
        sim.server.on_message(
            Message(
                MessageKind.VIOLATION, 0, SERVER_ID,
                ViolationReport(queries[0].qid, 1.0, 1.0, epoch=0),
            )
        )
        assert sim.server.stale_violations == before + 1

    def test_mobile_ignores_older_epoch_install(self):
        from repro.core.protocol import GeocastInstall
        from repro.net.message import Message, SERVER_ID

        # On the per-object reference: in a built system the monitors
        # live in the client phase's cells, and no node holds one.
        spec = WorkloadSpec(
            n_objects=150, n_queries=2, k=5, seed=29, ticks=10,
            warmup_ticks=1, query_speed=50.0,
        )
        sim, _ = reference_system(RunConfig("DKNN-G"), spec)
        sim.run(5)
        node = sim.mobiles[0]
        monitored_qid = next(iter(node.monitors))
        held = node._epochs[monitored_qid]
        stale = GeocastInstall(
            monitored_qid, 0, 0, 10.0, 1.0, (99,), cover=100.0,
            epoch=max(held - 1, 0),
        )
        current = node.monitors[monitored_qid]
        node.on_message(
            Message(MessageKind.BROADCAST_INSTALL, SERVER_ID, node.oid, stale)
        )
        if held > 0:
            assert node.monitors[monitored_qid] is current


class TestTrivialPopulation:
    def test_population_below_k_uses_broadcast_fallback(self):
        sim, fleet, queries = _system(n=3, q=1, k=8)
        checker = ExactnessChecker(fleet, queries)
        sim.run(20, on_tick=checker)
        checker.assert_clean()
        assert math.isinf(sim.server._states[queries[0].qid].threshold)
        assert sim.channel.stats.broadcast_messages >= 1

    def test_negative_vmax_raises(self, universe):
        from repro.core.geocast_variant import DknnGeocastServer

        with pytest.raises(ProtocolError):
            DknnGeocastServer(universe, v_max=-1.0)


class TestOneTickLatency:
    def test_geocast_runs_with_latency_and_records_coverage(self):
        from repro.net.simulator import ONE_TICK_LATENCY

        spec = WorkloadSpec(
            n_objects=150, n_queries=2, k=5, seed=29, ticks=12,
            warmup_ticks=1, query_speed=50.0,
        )
        fleet, queries = build_workload(spec)
        sim = build_geocast_system(
            fleet, queries, None, latency=ONE_TICK_LATENCY
        )
        sim.run(12)
        stats = sim.channel.stats
        # the collect geocasts went out and their coverage-based
        # receptions were recorded by the simulator's delivery loop
        assert stats.geocast_messages > 0
        assert stats.broadcast_receptions > 0
        for q in queries:
            assert len(sim.server.answers[q.qid]) == q.k
