"""Tests of the experiment harness: tables, runner, registry."""

import dataclasses
import pathlib

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ALGORITHMS,
    EXPERIMENTS,
    Measurement,
    ResultTable,
    registry,
    run_experiment,
    run_once,
)
from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.experiments.runner import _IDLE
from repro.net.engine import EngineConfig
from repro.net.faults import FaultPlan, ShardFaultPlan
from repro.server.config import AdmissionPolicy, RebalancePolicy, ShardConfig
from repro.workloads import WorkloadSpec, build_workload

SMALL = WorkloadSpec(
    n_objects=120, n_queries=2, k=4, ticks=25, warmup_ticks=5, seed=3
)


class TestResultTable:
    def test_requires_columns(self):
        with pytest.raises(ExperimentError):
            ResultTable("t", [])

    def test_add_row_rejects_unknown_columns(self):
        t = ResultTable("t", ["a"])
        with pytest.raises(ExperimentError):
            t.add_row({"b": 1})

    def test_missing_columns_render_blank(self):
        t = ResultTable("t", ["a", "b"])
        t.add_row({"a": 1})
        assert "1" in t.render()

    def test_column_extraction(self):
        t = ResultTable("t", ["a"])
        t.add_row({"a": 1})
        t.add_row({"a": 2})
        assert t.column("a") == [1, 2]
        with pytest.raises(ExperimentError):
            t.column("zz")

    def test_render_contains_title_and_values(self):
        t = ResultTable("My Table", ["x", "y"])
        t.add_row({"x": 1500.0, "y": 0.123456})
        out = t.render()
        assert "My Table" in out
        assert "1,500" in out
        assert "0.123" in out

    def test_csv_roundtrip(self, tmp_path):
        t = ResultTable("t", ["a", "b"])
        t.add_row({"a": 1, "b": "x"})
        path = tmp_path / "out.csv"
        t.to_csv(str(path))
        content = path.read_text()
        assert content.splitlines()[0] == "a,b"
        assert content.splitlines()[1] == "1,x"


class TestRunner:
    def test_measurement_fields_populated(self):
        m = run_once(RunConfig("DKNN-B"), SMALL, accuracy_every=5)
        assert m.algorithm == "DKNN-B"
        assert m.ticks_measured == 20
        assert m.msgs_per_tick > 0
        assert m.exactness == 1.0
        assert m.mean_overlap == 1.0
        assert m.repairs_per_tick is not None
        assert m.per_kind_msgs
        row = m.as_row()
        assert row["algorithm"] == "DKNN-B"

    def test_accuracy_can_be_disabled(self):
        m = run_once(RunConfig("PER"), SMALL, accuracy_every=0)
        assert m.exactness == 1.0  # reported as unchecked default

    def test_negative_accuracy_interval_raises(self):
        with pytest.raises(ExperimentError):
            run_once(RunConfig("PER"), SMALL, accuracy_every=-1)

    def test_alg_params_forwarded(self):
        m1 = run_once(RunConfig("DKNN-P", params={"theta": 10.0}),
                      SMALL, accuracy_every=0)
        m2 = run_once(RunConfig("DKNN-P", params={"theta": 2000.0}),
                      SMALL, accuracy_every=0)
        # Tiny theta floods dead-reckoning updates.
        assert m1.per_kind_msgs.get("location_update", 0) > m2.per_kind_msgs.get(
            "location_update", 0
        )

    def test_centralized_msgs_match_population(self):
        m = run_once(RunConfig("PER"), SMALL, accuracy_every=0)
        assert m.uplink_per_tick == SMALL.population


_FT = registry._FT  # hardened DKNN-P, as the fault sweeps run it


class TestAsRow:
    """``as_row()`` is the one source of table columns."""

    CONFIGS = {
        "plain": RunConfig("PER"),
        "radio-faults": RunConfig(
            "DKNN-P", faults=FaultPlan(seed=7, drop_uplink=0.1), params=_FT
        ),
        "engine": RunConfig("DKNN-P", engine=EngineConfig(mode="event")),
        "elastic-tier": RunConfig(
            "DKNN-P",
            shard=ShardConfig(
                shards=2,
                rebalance=RebalancePolicy(check_interval=5, trigger=1.1),
                admission=AdmissionPolicy(max_uplinks_per_tick=40, defer=True),
            ),
            params=_FT,
        ),
        "durable-tier": RunConfig(
            "DKNN-P",
            shard=ShardConfig(
                shards=2,
                faults=ShardFaultPlan(
                    seed=3,
                    crash_groups=(((0, 1), 10, 14),),
                    heartbeat_timeout=3,
                    checkpoint_interval=4,
                    wal_replay_per_tick=25,
                ),
            ),
            params=_FT,
        ),
    }

    @pytest.fixture(scope="class")
    def runs(self):
        return {
            label: run_once(config, SMALL, accuracy_every=2)
            for label, config in self.CONFIGS.items()
        }

    def test_every_extra_key_has_an_idle_value(self, runs):
        # A key run_once writes but _IDLE lacks would be a column that
        # exists in some runs only.
        for label, m in runs.items():
            assert set(m.extra) <= set(_IDLE) | {"full_ticks"}, label
            row = m.as_row()
            assert {k: row[k] for k in m.extra} == m.extra, label
        # ...and the five runs together reach the radio-fault, shard,
        # rebalance, admission, failover, durability and engine ledgers.
        seen = set().union(*(m.extra for m in runs.values()))
        assert {
            "retransmits/tick", "s2s/tick", "rebalances", "deferred/tick",
            "failovers", "checkpoints", "skipped_ticks", "degraded_frac",
        } <= seen

    def test_same_columns_for_every_run(self, runs):
        keys = [list(m.as_row()) for m in runs.values()]
        assert all(k == keys[0] for k in keys)

    def test_plain_run_reads_idle(self, runs):
        m = runs["plain"]
        assert m.extra == {}
        row = m.as_row()
        assert {k: row[k] for k in _IDLE} == _IDLE
        assert row["full_ticks"] == m.ticks_measured == 20
        assert row["bcast+geo/tick"] == 0.0 and row["msgs/tick"] > 0


class TestAlgorithmsRegistry:
    def test_all_five_registered(self):
        assert set(ALGORITHMS) == {
            "DKNN-P", "DKNN-B", "DKNN-G", "PER", "SEA", "CPM"
        }

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ExperimentError):
            RunConfig("FancyNewThing")

    def test_unknown_params_rejected(self):
        with pytest.raises(ExperimentError):
            RunConfig("PER", params={"warp_factor": 9})

    def test_loose_kwargs_are_a_type_error(self):
        # The legacy **kwargs channel is gone entirely: stray keywords
        # now fail at the signature, not via a runtime check.
        fleet, queries = build_workload(SMALL)
        with pytest.raises(TypeError):
            build_system(RunConfig("PER"), fleet, queries, period=2)

    def test_string_algorithm_form_removed(self):
        fleet, queries = build_workload(SMALL)
        with pytest.raises(ExperimentError, match="RunConfig"):
            build_system("PER", fleet, queries)


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
            "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18",
            "E19",
        }

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_case_insensitive_lookup(self):
        table = run_experiment("e7", quick=True)
        assert table.rows

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_quick_mode_runs(self, name):
        table = run_experiment(name, quick=True)
        assert table.rows
        assert table.render()
        if EXPERIMENTS[name].check is not None:
            EXPERIMENTS[name].check(table)


def _unrun(config, spec, accuracy_every=10):
    """Stand-in for ``run_once``: a measurement of nothing, instantly."""
    rates = dict.fromkeys(
        (
            "msgs_per_tick", "uplink_per_tick", "downlink_per_tick",
            "broadcast_per_tick", "geocast_per_tick", "bytes_per_tick",
            "receptions_per_tick", "units_per_tick", "server_ms_per_tick",
        ),
        0.0,
    )
    return Measurement(
        algorithm=config.algorithm,
        spec=spec,
        ticks_measured=spec.ticks - spec.warmup_ticks,
        wall_seconds=1.0,
        exactness=1.0,
        mean_overlap=1.0,
        per_kind_msgs={"tick_report": 0.0},
        per_kind_bytes={"tick_report": 0.0},
        **rates,
    )


class TestPlan:
    """Every configuration of every sweep, built but not run."""

    @pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_cases_validate_and_every_column_resolves(
        self, name, quick, monkeypatch
    ):
        sweep = EXPERIMENTS[name]
        assert sweep.about and sweep.expect.strip()
        # Constructing a case validates its RunConfig, WorkloadSpec,
        # fault plans and ShardConfig; nothing below runs a simulation.
        cases = list(sweep.cases(quick))
        assert cases
        for labels, config, spec, accuracy_every in cases:
            assert isinstance(config, RunConfig)
            assert isinstance(spec, WorkloadSpec)
            assert set(labels) <= set(sweep.columns), labels
            assert accuracy_every >= 0
            faults = config.shard.faults if config.shard else None
            if faults is not None:
                n_shards = config.shard.shards**2
                windows = list(faults.crashes)
                windows += [(s, a, b) for g, a, b in faults.crash_groups for s in g]
                assert all(s < n_shards and a < b < spec.ticks for s, a, b in windows)
        # The real loop over stubbed runs: a column that is neither a
        # label, an as_row() key (through rename) nor supplied by
        # rows / across is a KeyError here, not a blank cell in a CSV.
        monkeypatch.setattr(registry, "run_once", _unrun)
        table = run_experiment(name, quick=quick)
        assert table.columns == list(sweep.columns)
        assert len(table.rows) >= len(cases)
        assert all(set(row) == set(sweep.columns) for row in table.rows)

    def test_a_mistyped_column_fails_loudly(self, monkeypatch):
        typo = dataclasses.replace(
            EXPERIMENTS["E1"], columns=("N", "algorithm", "msgs/tik")
        )
        monkeypatch.setitem(EXPERIMENTS, "E1", typo)
        monkeypatch.setattr(registry, "run_once", _unrun)
        with pytest.raises(KeyError, match="msgs/tik"):
            run_experiment("E1", quick=True)

    def test_full_plan_reaches_the_scale_pins(self):
        def full(name):
            return list(EXPERIMENTS[name].cases(False))

        assert max(spec.n_objects for _, _, spec, _ in full("E18")) == 1_000_000
        assert {c.shard.shards for _, c, _, _ in full("E16")} == {2, 4, 8}
        assert max(spec.n_objects for _, _, spec, _ in full("E19")) == 100_000

    def test_design_index_is_the_rendered_one(self):
        design = pathlib.Path(__file__).parent.parent / "DESIGN.md"
        assert registry.render_index() in design.read_text(encoding="utf-8")


class TestExpectedShapes:
    """Quick-mode sanity checks of the headline claims."""

    def test_e1_distributed_beats_centralized(self):
        table = run_experiment("E1", quick=True)
        rows = table.rows
        per = {r["N"]: r for r in rows if r["algorithm"] == "PER"}
        dkb = {r["N"]: r for r in rows if r["algorithm"] == "DKNN-B"}
        for n in per:
            assert dkb[n]["msgs/tick"] < per[n]["msgs/tick"]

    def test_e1_centralized_traffic_tracks_population(self):
        table = run_experiment("E1", quick=True)
        per = {
            r["N"]: r["msgs/tick"]
            for r in table.rows
            if r["algorithm"] == "PER"
        }
        ns = sorted(per)
        assert per[ns[-1]] > per[ns[0]] * 1.5

    def test_cli_entrypoint(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        assert main(["E7", "--quick", "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "E7" in out
        assert (tmp_path / "e7.csv").exists()
