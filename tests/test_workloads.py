"""Unit tests for workload specs and generation."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import (
    MOBILITY_MODELS,
    WorkloadSpec,
    build_workload,
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        WorkloadSpec()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_objects", 0),
            ("n_queries", 0),
            ("k", 0),
            ("universe_size", 0.0),
            ("query_speed", -1.0),
            ("ticks", 0),
            ("warmup_ticks", -1),
            ("mobility", "teleport"),
        ],
    )
    def test_invalid_fields_raise(self, field, value):
        with pytest.raises(WorkloadError):
            WorkloadSpec(**{field: value})

    def test_warmup_must_be_less_than_ticks(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(ticks=10, warmup_ticks=10)

    def test_speed_range_validated(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(speed_min=10, speed_max=5)

    def test_but_replaces_fields(self):
        spec = WorkloadSpec().but(k=3, n_objects=10)
        assert spec.k == 3 and spec.n_objects == 10
        assert WorkloadSpec().k != 3 or WorkloadSpec().n_objects != 10

    def test_but_revalidates(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec().but(k=0)

    def test_population_and_max_speed(self):
        spec = WorkloadSpec(n_objects=100, n_queries=4, query_speed=120.0)
        assert spec.population == 104
        assert spec.max_speed == 120.0


class TestBuildWorkload:
    def test_fleet_size_and_query_anchors(self):
        spec = WorkloadSpec(n_objects=50, n_queries=3, ticks=10, warmup_ticks=1)
        fleet, queries = build_workload(spec)
        assert fleet.n == 53
        assert [q.focal_oid for q in queries] == [50, 51, 52]
        assert [q.qid for q in queries] == [0, 1, 2]

    def test_static_queries_do_not_move(self):
        spec = WorkloadSpec(
            n_objects=10, n_queries=2, query_speed=0.0, ticks=10, warmup_ticks=1
        )
        fleet, queries = build_workload(spec)
        before = [fleet.position_of(q.focal_oid) for q in queries]
        for _ in range(5):
            fleet.advance()
        after = [fleet.position_of(q.focal_oid) for q in queries]
        assert before == after

    def test_moving_queries_move(self):
        spec = WorkloadSpec(
            n_objects=10, n_queries=2, query_speed=80.0, ticks=10, warmup_ticks=1
        )
        fleet, queries = build_workload(spec)
        before = [fleet.position_of(q.focal_oid) for q in queries]
        for _ in range(5):
            fleet.advance()
        after = [fleet.position_of(q.focal_oid) for q in queries]
        assert before != after

    def test_deterministic_given_seed(self):
        spec = WorkloadSpec(n_objects=20, n_queries=2, ticks=10, warmup_ticks=1)
        f1, _ = build_workload(spec)
        f2, _ = build_workload(spec)
        for _ in range(5):
            f1.advance()
            f2.advance()
        assert f1.positions == f2.positions

    @pytest.mark.parametrize("mobility", MOBILITY_MODELS)
    def test_all_mobility_models_buildable(self, mobility):
        spec = WorkloadSpec(
            n_objects=20, n_queries=1, mobility=mobility, ticks=10, warmup_ticks=1
        )
        fleet, _ = build_workload(spec)
        for _ in range(5):
            fleet.advance()

    def test_mobility_options_forwarded(self):
        spec = WorkloadSpec(
            n_objects=20,
            n_queries=1,
            mobility="gaussian_cluster",
            mobility_options={"n_hotspots": 2, "sigma": 100.0},
            ticks=10,
            warmup_ticks=1,
        )
        fleet, _ = build_workload(spec)
        assert fleet.n == 21

