"""Pin of the public API surface (``repro.api``).

``repro.api.__all__`` is the compatibility contract: removing or
renaming anything here is a breaking change and must be done on
purpose, with this pin updated in the same commit. Additions are
cheap — add the name to the matching group below.

Beyond the name list, the signatures of the typed entry points are
pinned too: ``RunConfig``, ``ShardConfig`` and the policy dataclasses
are keyword-stable (downstream scripts spell the fields out), so a
renamed field is as breaking as a renamed class.
"""

from __future__ import annotations

import dataclasses
import inspect

import repro.api as api

#: The supported surface, grouped as in ``repro/api.py``. Order inside
#: a group is not part of the contract; membership is.
EXPECTED = {
    # entry points
    "RunConfig", "build_system", "run_once", "run_experiment",
    "Measurement", "ResultTable", "ALGORITHMS", "EXPERIMENTS",
    # errors
    "ReproError", "ExperimentError", "ConfigError",
    # workloads & mobility
    "WorkloadSpec", "MOBILITY_MODELS", "build_workload", "Fleet",
    "RandomWaypointModel", "RandomDirectionModel", "GaussianClusterModel",
    "HotspotDriftModel", "MostlyStationaryModel", "RoadNetworkModel",
    # geometry & queries
    "Rect", "QuerySpec", "RangeQuerySpec",
    # direct system builders (scripted scenarios)
    "DknnParams", "BroadcastParams", "GeocastParams",
    "build_dknn_system", "build_broadcast_system", "build_geocast_system",
    "build_periodic_system", "build_seacnn_system", "build_cpm_system",
    "build_range_system",
    # sharded server tier
    "ShardConfig", "RebalancePolicy", "AdmissionPolicy",
    "ShardRouter", "ShardStats", "ShardedServer", "shard_attach",
    "DurabilityManager",
    # network & faults
    "RoundSimulator", "CommStats", "FaultPlan", "ShardFaultPlan",
    # event engine
    "EngineConfig",
    # chaos harness
    "run_chaos", "chaos_plans", "default_checkers", "ChaosResult",
    # observability
    "Telemetry", "use_telemetry",
    # ground truth & accuracy
    "brute_knn", "brute_knn_ids", "brute_range", "is_valid_knn",
    "AccuracyTracker", "CostMeter",
    # analytical models
    "object_density", "expected_knn_distance", "expected_rank_gap",
    "dead_reckoning_rate", "query_repair_rate",
    "centralized_messages_per_tick", "dknn_b_messages_per_repair",
    "crossover_queries",
    # visualization
    "render_world", "render_query",
}


def test_all_matches_the_pin_exactly():
    exported = set(api.__all__)
    missing = EXPECTED - exported
    extra = exported - EXPECTED
    assert not missing, f"names removed from repro.api: {sorted(missing)}"
    assert not extra, (
        f"new public names {sorted(extra)} — add them to the pin in "
        "tests/test_api_surface.py to make the addition deliberate"
    )


def test_every_exported_name_resolves():
    for name in api.__all__:
        assert getattr(api, name, None) is not None, name


def test_no_duplicate_exports():
    assert len(api.__all__) == len(set(api.__all__))


def _params(obj):
    return list(inspect.signature(obj).parameters)


class TestEntryPointSignatures:
    def test_run_config_fields(self):
        assert _params(api.RunConfig) == [
            "algorithm", "latency", "record_history", "faults",
            "warmup", "ticks",
            "shard",
            "engine",
            "params",
        ]

    def test_retired_shard_kwargs_raise_config_error(self):
        # The pre-ShardConfig kwargs are gone for good; the failure
        # mode is a ConfigError naming the replacement, not a bare
        # TypeError, so stale scripts get a migration pointer.
        import pytest

        for kwargs in ({"shards": 2}, {"shard_faults": None}):
            with pytest.raises(
                api.ConfigError, match=r"shard=ShardConfig"
            ):
                api.RunConfig("DKNN-P", **kwargs)

    def test_retired_fast_keyword(self):
        # One build: neither entry point lists the keyword any more;
        # ``fast=True`` (what benchmarks/layered still passes) is
        # dropped, anything else refused (tests/test_run_config.py).
        import pytest

        assert _params(api.build_workload) == ["spec"]
        assert api.RunConfig("DKNN-P", fast=True) == api.RunConfig("DKNN-P")
        with pytest.raises(api.ConfigError, match="one build"):
            api.RunConfig("DKNN-P", fast=False)

    def test_engine_config_fields(self):
        assert _params(api.EngineConfig) == ["mode"]

    def test_shard_config_fields(self):
        assert _params(api.ShardConfig) == [
            "shards", "rebalance", "admission", "faults",
        ]

    def test_shard_attach_signature(self):
        assert _params(api.shard_attach) == ["sim", "config"]

    def test_rebalance_policy_fields(self):
        assert _params(api.RebalancePolicy) == [
            "check_interval", "trigger", "max_moves_per_cycle",
            "cells_per_shard", "min_window_uplinks", "seed",
        ]

    def test_admission_policy_fields(self):
        assert _params(api.AdmissionPolicy) == [
            "max_uplinks_per_tick", "defer",
        ]

    def test_run_once_signature(self):
        assert _params(api.run_once) == [
            "config", "spec", "accuracy_every", "telemetry",
        ]

    def test_build_system_signature(self):
        assert _params(api.build_system) == [
            "config", "fleet", "specs", "telemetry",
        ]

    def test_typed_configs_are_frozen(self):
        for cls in (api.RunConfig, api.ShardConfig, api.RebalancePolicy,
                    api.AdmissionPolicy, api.WorkloadSpec,
                    api.EngineConfig):
            assert dataclasses.is_dataclass(cls), cls
            assert cls.__dataclass_params__.frozen, f"{cls} not frozen"

    def test_config_errors_are_catchable_as_experiment_errors(self):
        # Typed-config validation stays inside the documented hierarchy.
        assert issubclass(api.ConfigError, api.ExperimentError)
        assert issubclass(api.ExperimentError, api.ReproError)
