"""Behavioral tests for the point-to-point DKNN server (beyond exactness)."""

import pytest

from repro.core import DknnParams, build_dknn_system
from repro.errors import ProtocolError
from repro.geometry import Rect
from repro.mobility import Fleet, StationaryMover
from repro.net.message import MessageKind
from repro.server import QuerySpec
from repro.workloads import WorkloadSpec, build_workload
from tests.helpers import built_system, reference_system


def _system(n=100, q=2, k=5, seed=17, query_speed=50.0, **params):
    spec = WorkloadSpec(
        n_objects=n, n_queries=q, k=k, seed=seed, ticks=10,
        warmup_ticks=1, query_speed=query_speed,
    )
    fleet, queries = build_workload(spec)
    sim = build_dknn_system(
        fleet, queries, DknnParams(**params) if params else None
    )
    return sim, fleet, queries


class TestSilenceProperty:
    def test_static_world_goes_silent_after_installation(self):
        """With everything parked, there must be zero traffic after
        the initial installation settles — the distributed headline."""
        universe = Rect(0, 0, 10_000, 10_000)
        import random

        rng = random.Random(2)
        movers = [
            StationaryMover(universe, rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            for _ in range(50)
        ]
        fleet = Fleet(movers)
        queries = [QuerySpec(qid=0, focal_oid=0, k=5)]
        sim = build_dknn_system(fleet, queries)
        sim.run(2)  # registration + installation
        mark = sim.channel.stats.snapshot()
        sim.run(10)
        assert sim.channel.stats.delta_since(mark).total_messages == 0

    def test_slow_world_sends_less_than_centralized_stream(self):
        sim, fleet, _ = _system(n=200, q=1)
        sim.run(2)
        mark = sim.channel.stats.snapshot()
        sim.run(20)
        msgs = sim.channel.stats.delta_since(mark).total_messages
        assert msgs < 200 * 20  # strictly below one-report-per-object-tick


class TestProbeDeduplication:
    def test_same_object_probed_once_per_round(self):
        """Two co-located queries probing overlapping candidates must
        share probes (the in-flight set)."""
        universe = Rect(0, 0, 10_000, 10_000)
        import random

        rng = random.Random(5)
        movers = [
            StationaryMover(universe, 5000 + rng.uniform(-200, 200),
                            5000 + rng.uniform(-200, 200))
            for _ in range(20)
        ]
        fleet = Fleet(movers)
        # Two queries with the same focal: identical candidate sets.
        queries = [
            QuerySpec(qid=0, focal_oid=0, k=5),
            QuerySpec(qid=1, focal_oid=0, k=5),
        ]
        sim = build_dknn_system(fleet, queries)
        sim.run(2)
        stats = sim.channel.stats
        probes = stats.messages_of(MessageKind.PROBE)
        replies = stats.messages_of(MessageKind.PROBE_REPLY)
        assert probes == replies
        assert probes <= 20  # never more than one probe per object


class TestRepairAccounting:
    def test_repair_count_grows_with_query_motion(self):
        slow, _, q_slow = _system(seed=19, query_speed=0.0)
        slow.run(10)
        fast, _, q_fast = _system(seed=19, query_speed=150.0)
        fast.run(10)
        assert sum(fast.server.repair_count.values()) > sum(
            slow.server.repair_count.values()
        )

    def test_answers_published_for_all_queries(self):
        sim, _, queries = _system()
        sim.run(3)
        for q in queries:
            assert len(sim.server.answers[q.qid]) == q.k


class TestValidation:
    def test_focal_outside_fleet_raises(self):
        sim, fleet, _ = _system()
        with pytest.raises(ProtocolError):
            build_dknn_system(fleet, [QuerySpec(qid=7, focal_oid=10**6, k=3)])

    def test_unknown_violation_query_raises(self):
        sim, fleet, _ = _system(n=10, q=1)
        from repro.core.protocol import ViolationReport
        from repro.net.message import Message, SERVER_ID

        sim.run(1)
        with pytest.raises(ProtocolError):
            sim.server.on_message(
                Message(
                    MessageKind.VIOLATION, 0, SERVER_ID,
                    ViolationReport(999, 1, 1),
                )
            )

    def test_invalid_params_raise(self):
        with pytest.raises(ProtocolError):
            DknnParams(theta=-1)
        with pytest.raises(ProtocolError):
            DknnParams(s_cap=-1)
        with pytest.raises(ProtocolError):
            DknnParams(grid_cells=0)
        with pytest.raises(ProtocolError):
            DknnParams(latency_slack=-1)

    def test_uncertainty_combines_theta_and_slack(self):
        p = DknnParams(theta=80, latency_slack=20)
        assert p.uncertainty == 100


class TestLatencyModeSetup:
    def test_latency_slack_defaults_to_fleet_speed(self):
        from repro.net.simulator import ONE_TICK_LATENCY

        spec = WorkloadSpec(
            n_objects=50, n_queries=1, k=3, seed=23, ticks=10, warmup_ticks=1
        )
        fleet, queries = build_workload(spec)
        sim = build_dknn_system(fleet, queries, latency=ONE_TICK_LATENCY)
        assert sim.server.params.latency_slack == fleet.max_speed

    def test_explicit_slack_preserved(self):
        from repro.net.simulator import ONE_TICK_LATENCY

        spec = WorkloadSpec(
            n_objects=50, n_queries=1, k=3, seed=23, ticks=10, warmup_ticks=1
        )
        fleet, queries = build_workload(spec)
        sim = build_dknn_system(
            fleet, queries, DknnParams(latency_slack=77.0),
            latency=ONE_TICK_LATENCY,
        )
        assert sim.server.params.latency_slack == 77.0


class TestRepairRoundStaysInArrays:
    """Count-based (no timers): the build's repair round reads
    freshness and positions per repair, not per candidate."""

    @staticmethod
    def _run(n, build=built_system, monkeypatch=None, ticks=40):
        from repro.experiments.config import RunConfig
        from repro.index.grid import UniformGrid
        from repro.server.object_table import ObjectTable

        calls = {"is_fresh": 0, "position_of": 0}
        if monkeypatch is not None:
            for cls, name in (
                (ObjectTable, "is_fresh"), (UniformGrid, "position_of")
            ):
                def counted(self, *args, _orig=getattr(cls, name), _n=name):
                    calls[_n] += 1
                    return _orig(self, *args)

                monkeypatch.setattr(cls, name, counted)
        spec = WorkloadSpec(
            n_objects=n, n_queries=8, k=8, seed=42, ticks=ticks,
            warmup_ticks=0,
        )
        sim, _ = build(RunConfig("DKNN-P"), spec)
        per_tick = []
        sim.run(
            ticks,
            on_tick=lambda s: per_tick.append((
                {q: tuple(a) for q, a in s.server.answers.items()},
                dict(s.channel.stats.sent_by_kind),
                dict(s.channel.stats.bytes_by_kind),
                dict(s.server.meter.units),
            )),
        )
        repairs = sum(sim.server.repair_count.values())
        return per_tick, repairs, calls

    @pytest.mark.parametrize("n", [2000, 6000])
    def test_calls_per_repair_do_not_grow_with_candidates(
        self, n, monkeypatch
    ):
        _, repairs, calls = self._run(n, monkeypatch=monkeypatch)
        assert repairs >= 250
        # The list-walking round made ~90 / ~27 calls per repair at
        # N=2000 and ~160 / ~37 at N=6000 (three freshness passes over
        # every candidate, one position read per kNN cell member); the
        # array round makes ~1.2 / ~6 at any density.
        assert calls["is_fresh"] <= 4 * repairs
        assert calls["position_of"] <= 12 * repairs

    def test_fast_build_equals_scalar_tick_for_tick(self):
        fast, fast_repairs, _ = self._run(2000)
        scalar, scalar_repairs, _ = self._run(2000, reference_system)
        assert fast_repairs == scalar_repairs
        assert fast == scalar
