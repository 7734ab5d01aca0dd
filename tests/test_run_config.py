"""RunConfig: validation, the removed legacy API, and the catalog."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (
    ALGORITHMS,
    FaultPlan,
    RunConfig,
    ShardConfig,
    ShardFaultPlan,
    WorkloadSpec,
    build_system,
    build_workload,
    run_once,
)
from repro.errors import ConfigError, ExperimentError
from repro.experiments.catalog import CENTRALIZED, DISTRIBUTED

SPEC = WorkloadSpec(
    n_objects=120, n_queries=2, k=4, ticks=15, warmup_ticks=2, seed=17
)


class TestValidation:
    def test_unknown_algorithm_suggests_near_miss(self):
        with pytest.raises(ExperimentError, match="DKNN-P"):
            RunConfig("DKNN-p")

    def test_unknown_param_suggests_near_miss(self):
        with pytest.raises(ExperimentError, match="lease_ticks"):
            RunConfig("DKNN-G", params={"lease_tick": 5})

    def test_unknown_param_lists_valid_names(self):
        with pytest.raises(ExperimentError, match="period"):
            RunConfig("PER", params={"frequency": 3})

    def test_unknown_latency_rejected(self):
        with pytest.raises(ExperimentError):
            RunConfig("PER", latency="two_ticks")

    def test_faults_must_be_a_plan(self):
        with pytest.raises(ExperimentError):
            RunConfig("PER", faults={"drop": 0.1})

    def test_negative_bounds_rejected(self):
        with pytest.raises(ExperimentError):
            RunConfig("PER", ticks=-1)
        with pytest.raises(ExperimentError):
            RunConfig("PER", warmup=-1)


class TestImmutability:
    def test_frozen(self):
        cfg = RunConfig("DKNN-P")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.algorithm = "PER"

    def test_params_mapping_is_read_only(self):
        cfg = RunConfig("DKNN-P", params={"theta": 50.0})
        with pytest.raises(TypeError):
            cfg.params["theta"] = 1.0

    def test_hashable_and_usable_as_key(self):
        a = RunConfig("DKNN-P", params={"theta": 50.0})
        b = RunConfig("DKNN-P", params={"theta": 50.0})
        assert a == b
        assert {a: 1}[b] == 1

    def test_but_revalidates(self):
        cfg = RunConfig("DKNN-P")
        longer = cfg.but(ticks=90)
        assert longer.ticks == 90 and cfg.ticks is None
        with pytest.raises(ExperimentError):
            cfg.but(params={"warp_factor": 9})

    def test_describe_is_json_safe(self):
        cfg = RunConfig(
            "DKNN-G", faults=FaultPlan(seed=3, drop_uplink=0.1),
            params={"lease_ticks": 4},
        )
        doc = json.loads(json.dumps(cfg.describe()))
        assert doc["algorithm"] == "DKNN-G"
        assert doc["resolved_params"]["lease_ticks"] == 4
        assert "drop_up=0.1" in doc["faults"]


class TestCatalog:
    def test_param_defaults_exposed_programmatically(self):
        assert ALGORITHMS["DKNN-G"].param_defaults == {
            "s_cap": 50.0,
            "initial_collect_radius": 1000.0,
            "collect_slack": 1.5,
            "lease_ticks": 10,
        }
        assert ALGORITHMS["PER"].param_defaults == {
            "grid_cells": 32,
            "period": 1,
        }

    def test_lease_ticks_defaults_diverge_on_purpose(self):
        # DKNN-P's lease is a failure-detection timeout; DKNN-G's is a
        # renewal geocast interval. They are different knobs that share
        # a name — see repro/experiments/catalog.py. Unifying them
        # silently re-tunes E12/E14.
        assert ALGORITHMS["DKNN-P"].param_defaults["lease_ticks"] == 8
        assert ALGORITHMS["DKNN-G"].param_defaults["lease_ticks"] == 10

    def test_families_cover_every_algorithm(self):
        assert set(DISTRIBUTED) | set(CENTRALIZED) == set(ALGORITHMS)

    def test_docstring_table_is_generated_from_catalog(self):
        import repro.experiments.algorithms as algorithms

        doc = algorithms.__doc__
        assert "theta=100.0" in doc
        assert "lease_ticks=10" in doc
        assert "{PARAM_TABLE}" not in doc

    def test_resolved_params_overlay(self):
        cfg = RunConfig("DKNN-P", params={"theta": 7.0})
        resolved = cfg.resolved_params()
        assert resolved["theta"] == 7.0
        assert resolved["s_cap"] == 50.0


class TestLegacyApiRemoved:
    """The pre-1.0 string-algorithm forms are gone, not deprecated:
    both entry points take a ``RunConfig`` only and raise an
    ``ExperimentError`` naming it for anything else, a string too."""

    def test_build_system_string_form_raises_with_migration(self):
        fleet, queries = build_workload(SPEC)
        with pytest.raises(ExperimentError, match="RunConfig"):
            build_system("DKNN-P", fleet, queries)

    def test_run_once_string_form_raises_with_migration(self):
        with pytest.raises(ExperimentError, match="RunConfig"):
            run_once("PER", SPEC)

    def test_legacy_kwargs_no_longer_accepted(self):
        with pytest.raises(TypeError):
            run_once(RunConfig("PER"), SPEC, alg_params={"period": 2})
        with pytest.raises(TypeError):
            run_once(RunConfig("PER"), SPEC, faults=None)

    def test_config_from_legacy_is_gone(self):
        import repro.experiments.config as config_mod

        assert not hasattr(config_mod, "config_from_legacy")

    def test_build_system_rejects_non_config(self):
        fleet, queries = build_workload(SPEC)
        with pytest.raises(ExperimentError):
            build_system(42, fleet, queries)

    def test_ticks_and_warmup_override_the_spec(self):
        m = run_once(
            RunConfig("PER", ticks=9, warmup=3), SPEC, accuracy_every=0
        )
        assert m.ticks_measured == 6
        assert m.spec.ticks == 9 and m.spec.warmup_ticks == 3


class TestShardField:
    def test_default_is_unsharded(self):
        cfg = RunConfig("DKNN-P")
        assert cfg.shard is None

    def test_validation(self):
        cfg = RunConfig("DKNN-P", shard=ShardConfig(shards=1))
        assert cfg.shard.shards == 1
        with pytest.raises(ConfigError, match="shards"):
            ShardConfig(shards=0)
        with pytest.raises(ConfigError, match="shards"):
            ShardConfig(shards=65)
        with pytest.raises(ConfigError, match="ShardConfig"):
            RunConfig("DKNN-P", shard=2)

    def test_in_describe_and_hash(self):
        sharded = RunConfig("DKNN-P", shard=ShardConfig(shards=2))
        assert sharded.describe()["shard"]["shards"] == 2
        assert "shards" not in sharded.describe()
        assert sharded != RunConfig("DKNN-P")
        assert hash(sharded) != hash(RunConfig("DKNN-P"))

    def test_build_system_installs_the_tier(self):
        from repro.api import ShardedServer

        fleet, queries = build_workload(SPEC)
        sim = build_system(
            RunConfig("DKNN-P", shard=ShardConfig(shards=2)), fleet, queries
        )
        assert isinstance(sim.server, ShardedServer)
        assert sim.server.router.n_shards == 4

    def test_but_roundtrips(self):
        cfg = RunConfig("DKNN-P", shard=ShardConfig(shards=2))
        copy = cfg.but(record_history=True)
        assert copy.shard == cfg.shard
        swapped = cfg.but(shard=ShardConfig(shards=4))
        assert swapped.shard.shards == 4


class TestRetiredShardKwargs:
    """``shards=`` / ``shard_faults=`` are gone: the tier is
    ``shard=ShardConfig(...)``, and either old keyword is as unknown as
    any other."""

    def test_the_old_keywords_are_unknown(self):
        plan = ShardFaultPlan(crashes=((0, 5, 9),))
        with pytest.raises(TypeError):
            RunConfig("DKNN-P", shards=2)
        with pytest.raises(TypeError):
            RunConfig("DKNN-P", shard_faults=plan)
        with pytest.raises(TypeError):
            RunConfig("DKNN-P").but(shards=2)

    def test_fields_are_gone(self):
        cfg = RunConfig("DKNN-P", shard=ShardConfig(shards=2))
        assert not hasattr(cfg, "shards")
        assert not hasattr(cfg, "shard_faults")

    def test_truly_unknown_kwarg_is_still_a_typeerror(self):
        with pytest.raises(TypeError):
            RunConfig("DKNN-P", sharding=2)


class TestRetiredFastKeyword:
    """There is one build. ``fast=True`` is accepted and dropped (the
    repo benchmark's two call sites still pass it); any other value
    asked for the per-object build and raises."""

    def test_true_is_dropped_everywhere(self):
        cfg = RunConfig("DKNN-B", fast=True, ticks=40)
        assert cfg == RunConfig("DKNN-B", ticks=40)
        assert hash(cfg) == hash(RunConfig("DKNN-B", ticks=40))
        assert not hasattr(cfg, "fast")
        assert "fast" not in cfg.describe()
        assert "fast" not in [f.name for f in dataclasses.fields(RunConfig)]
        assert cfg.but(fast=True) == cfg

    @pytest.mark.parametrize("value", [False, None, 0, "yes"])
    def test_anything_else_raises(self, value):
        with pytest.raises(ConfigError, match="one build"):
            RunConfig("DKNN-B", fast=value)
        with pytest.raises(ConfigError, match="one build"):
            RunConfig("DKNN-B").but(fast=value)
        with pytest.raises(ConfigError, match="one build"):
            build_workload(SPEC, fast=value)

    def test_build_workload_drops_true(self):
        fleet, queries = build_workload(SPEC, fast=True)
        plain, _ = build_workload(SPEC)
        assert type(fleet) is type(plain)
        assert fleet.positions == plain.positions
