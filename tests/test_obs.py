"""Observability layer: trace events, metrics, manifests, and the
protocol-scope bit-identity contract (the build vs the per-object
reference of ``tests/helpers.py``, with and without faults)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import RunConfig, build_system, run_once
from repro.net.engine import EngineConfig
from repro.net.faults import FaultPlan
from repro.obs import (
    NULL_TELEMETRY,
    JsonlSink,
    MetricsRegistry,
    NullSink,
    RingSink,
    TraceEvent,
    Tracer,
    Telemetry,
    active_telemetry,
    protocol_events,
    read_jsonl,
    recording,
    use_telemetry,
    write_manifest,
)
from repro.obs.summarize import phase_table, summarize_text
from repro.workloads import WorkloadSpec, build_workload
from tests.helpers import built_system, reference_system

SPEC = WorkloadSpec(
    n_objects=200, n_queries=4, k=4, ticks=20, warmup_ticks=0, seed=42
)


def _traced_run(algorithm, build=built_system, faults=None, ticks=20):
    ring = RingSink()
    tel = Telemetry(tracer=Tracer(ring))
    sim, queries = build(
        RunConfig(algorithm, faults=faults), SPEC, telemetry=tel
    )
    sim.run(ticks)
    answers = {q.qid: tuple(sim.server.answers[q.qid]) for q in queries}
    return ring.events(), answers


def _key(events):
    return [(e.tick, e.kind, e.fields) for e in events]


FAULT_PLANS = {
    "DKNN-P": FaultPlan(
        seed=7,
        drop_uplink=0.08,
        drop_downlink=0.08,
        dup_prob=0.03,
        delay_prob=0.05,
        delay_ticks=2,
        blackouts=((13, 8, 12), (77, 15, 18)),
        crashes=((201, 20),),
    ),
    "DKNN-B": FaultPlan(
        seed=11,
        drop_uplink=0.05,
        drop_downlink=0.05,
        dup_prob=0.02,
        delay_prob=0.04,
        delay_ticks=1,
    ),
    "DKNN-G": FaultPlan(
        seed=11,
        drop_uplink=0.05,
        drop_downlink=0.05,
        dup_prob=0.02,
        delay_prob=0.04,
        delay_ticks=1,
        blackouts=((31, 5, 9),),
    ),
}


class TestProtocolStreamBitIdentity:
    """The build and the per-object reference must emit identical
    protocol event streams."""

    @pytest.mark.parametrize("algorithm", ["DKNN-P", "DKNN-B", "DKNN-G"])
    def test_identical_without_faults(self, algorithm):
        scalar_events, scalar_answers = _traced_run(
            algorithm, reference_system
        )
        fast_events, fast_answers = _traced_run(algorithm)
        assert fast_answers == scalar_answers
        assert _key(protocol_events(fast_events)) == _key(
            protocol_events(scalar_events)
        )
        # The runs actually emitted something worth comparing.
        assert protocol_events(scalar_events)

    @pytest.mark.parametrize("algorithm", sorted(FAULT_PLANS))
    def test_identical_under_active_fault_plan(self, algorithm):
        plan = FAULT_PLANS[algorithm]
        scalar_events, scalar_answers = _traced_run(
            algorithm, reference_system, faults=plan
        )
        fast_events, fast_answers = _traced_run(algorithm, faults=plan)
        assert fast_answers == scalar_answers
        assert _key(protocol_events(fast_events)) == _key(
            protocol_events(scalar_events)
        )
        # The plan actually fired: fault.* events are present.
        assert any(
            e.kind.startswith("fault.")
            for e in protocol_events(scalar_events)
        )

    def test_fastpath_perf_events_only_on_fast_runs(self):
        scalar_events, _ = _traced_run("DKNN-B", reference_system)
        fast_events, _ = _traced_run("DKNN-B")
        assert not [e for e in scalar_events if e.kind == "fastpath.candidates"]
        assert [e for e in fast_events if e.kind == "fastpath.candidates"]

    def test_fastpath_replay_accounting(self):
        """``replayed`` counts coalesced deliveries, ``superseded`` the
        pending installs skipped as unobservable (scalar nodes handle
        both), ``log_len`` the bounded log — and the summary says so."""
        events, _ = _traced_run("DKNN-B")
        decisions = [
            e.fields for e in events if e.kind == "fastpath.candidates"
        ]
        delivered = sum(f["replayed"] for f in decisions)
        superseded = sum(f["superseded"] for f in decisions)
        assert delivered > 0 and superseded > 0
        assert max(f["log_len"] for f in decisions) <= 2 * SPEC.n_queries
        assert (
            f"deferred installs replayed: {delivered} delivered + "
            f"{superseded} superseded"
        ) in summarize_text(events)


class TestNullSinkIsFree:
    def test_default_telemetry_is_null(self):
        fleet, queries = build_workload(SPEC)
        sim = build_system(RunConfig("DKNN-B"), fleet, queries)
        assert sim.telemetry is NULL_TELEMETRY
        assert not sim.telemetry.enabled

    def test_disabled_run_never_touches_the_sink(self, monkeypatch):
        def boom(self, event):  # pragma: no cover - must not run
            raise AssertionError("NullSink.emit called on a disabled run")

        monkeypatch.setattr(NullSink, "emit", boom)
        fleet, queries = build_workload(SPEC)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        sim.run(10)  # would raise if any seam emitted an event

    def test_ambient_telemetry_scoping(self):
        assert active_telemetry() is NULL_TELEMETRY
        tel = Telemetry(tracer=Tracer(RingSink()))
        with use_telemetry(tel):
            assert active_telemetry() is tel
            fleet, queries = build_workload(SPEC)
            sim = build_system(RunConfig("DKNN-B"), fleet, queries)
            assert sim.telemetry is tel
        assert active_telemetry() is NULL_TELEMETRY


class TestSinks:
    def test_ring_capacity_and_filter(self):
        ring = RingSink(capacity=3)
        for i in range(5):
            ring.emit(TraceEvent(i, "a" if i % 2 else "b"))
        assert len(ring) == 3
        assert [e.tick for e in ring.events()] == [2, 3, 4]
        assert [e.tick for e in ring.events(kind="a")] == [3]
        ring.clear()
        assert len(ring) == 0

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        tracer = Tracer(sink)
        assert tracer.enabled
        tracer.emit(3, "server.repair", qid=1, mode="full", answer=[4, 5])
        tracer.emit(4, "fault.drop", kind="PROBE", reason="lossy")
        sink.close()
        events = list(read_jsonl(path))
        assert _key(events) == [
            (3, "server.repair", {"qid": 1, "mode": "full", "answer": [4, 5]}),
            (4, "fault.drop", {"kind": "PROBE", "reason": "lossy"}),
        ]


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        assert reg.value("c") == 3
        reg.counter("c").labels(kind="x").inc(5)
        assert reg.value("c", kind="x") == 5
        reg.gauge("g").set(7)
        reg.gauge("g").dec(2)
        assert reg.value("g") == 5
        h = reg.histogram("h")
        h.observe(1.0)
        h.observe(3.0)
        stats = reg.value("h")
        assert stats["count"] == 2 and stats["mean"] == 2.0
        assert "c" in reg and len(reg) == 3

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ExperimentError):
            reg.gauge("x")

    def test_negative_counter_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ExperimentError):
            reg.counter("c").inc(-1)

    def test_dump_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("msgs", "help text").labels(kind="PROBE").inc(9)
        path = str(tmp_path / "metrics.json")
        reg.dump_json(path)
        doc = json.loads(open(path).read())
        assert "msgs" in doc


class TestRunIntegration:
    def test_run_once_emits_meta_events_and_metrics(self):
        ring = RingSink()
        reg = MetricsRegistry()
        tel = Telemetry(tracer=Tracer(ring), metrics=reg)
        spec = SPEC.but(warmup_ticks=2)
        m = run_once(
            RunConfig("DKNN-P"), spec, accuracy_every=0, telemetry=tel
        )
        starts = ring.events(kind="run.start")
        ends = ring.events(kind="run.end")
        assert len(starts) == 1 and len(ends) == 1
        assert starts[0].fields["seed"] == spec.seed
        assert ends[0].fields["ticks_measured"] == m.ticks_measured
        assert reg.value("ticks_total") == spec.ticks
        assert reg.value("runs_total", algorithm="DKNN-P") == 1
        # per-kind message counters agree with the measurement
        total = sum(
            rate * m.ticks_measured for rate in m.per_kind_msgs.values()
        )
        series = reg.as_dict()["messages_total"]["series"]
        assert sum(row["value"] for row in series) == pytest.approx(total)
        assert all(
            row["labels"]["algorithm"] == "DKNN-P" for row in series
        )
        # instrumentation must not perturb the run it observes
        bare = run_once(RunConfig("DKNN-P"), spec, accuracy_every=0)
        assert bare.per_kind_msgs == m.per_kind_msgs
        assert bare.units_per_tick == m.units_per_tick

    def test_phase_events_cover_every_tick(self):
        ring = RingSink()
        tel = Telemetry(tracer=Tracer(ring))
        run_once(RunConfig("PER"), SPEC.but(warmup_ticks=2),
                 accuracy_every=0, telemetry=tel)
        phases = ring.events(kind="tick.phase")
        assert len(phases) == SPEC.ticks
        table = phase_table(phases)
        assert set(table) >= {"move", "client", "deliver", "server"}

    def test_manifest_completeness(self, tmp_path):
        with recording() as runs:
            run_once(
                RunConfig("DKNN-G", params={"lease_ticks": 4}),
                SPEC.but(warmup_ticks=2),
                accuracy_every=0,
            )
        assert len(runs) == 1
        path = str(tmp_path / "manifest.json")
        doc = write_manifest(path, runs, wall_seconds=1.25)
        on_disk = json.loads(open(path).read())
        assert on_disk == doc
        assert doc["schema"] == 1
        assert doc["environment"]["python"]
        assert doc["wall_seconds"] == 1.25
        run = doc["runs"][0]
        assert run["config"]["algorithm"] == "DKNN-G"
        assert "fast" not in run["config"]
        assert run["config"]["resolved_params"]["lease_ticks"] == 4
        assert run["spec"]["seed"] == SPEC.seed
        assert run["measurement"]["ticks_measured"] == SPEC.ticks - 2
        assert run["measurement"]["msgs_per_tick"] > 0

    def test_summarize_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        tel = Telemetry(tracer=Tracer(sink))
        run_once(
            RunConfig("DKNN-P"),
            SPEC.but(warmup_ticks=2),
            accuracy_every=0,
            telemetry=tel,
        )
        sink.close()
        events = list(read_jsonl(path))
        text = summarize_text(events, source=path)
        assert "Per-phase tick cost" in text
        assert "DKNN-P" in text
        assert "deliver" in text

    @pytest.mark.parametrize(
        "algorithm, mode, refused",
        [("DKNN-P", "tick", False), ("CPM", "event", True)],
    )
    def test_summary_names_a_missing_planner_only_in_event_mode(
        self, algorithm, mode, refused
    ):
        # A tick-mode run has no planner either; CPM has none at all.
        ring = RingSink()
        run_once(
            RunConfig(algorithm, engine=EngineConfig(mode=mode)),
            SPEC.but(warmup_ticks=2),
            accuracy_every=0,
            telemetry=Telemetry(tracer=Tracer(ring)),
        )
        text = summarize_text(ring.events())
        assert f"mode={mode}" in text
        assert ("skipping disabled: no wakeup planner" in text) == refused
