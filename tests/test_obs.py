"""Observability layer: the telemetry handle, trace events, manifests,
and the protocol-scope bit-identity contract (the build vs the per-object
reference of ``tests/helpers.py``, with and without faults)."""

from __future__ import annotations

import json

import pytest

from repro.experiments import RunConfig, build_system, run_once
from repro.net.engine import EngineConfig
from repro.net.faults import FaultPlan
from repro.net.message import MessageKind
from repro.obs import (
    NULL_TELEMETRY,
    JsonlSink,
    RingSink,
    TraceEvent,
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
    tel = Telemetry(ring)
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

    def test_fastpath_candidate_accounting(self):
        """On DKNN-B ``candidates`` counts the violation reports the
        phase sent and ``population`` the fleet, and the summary
        names their rate."""
        ring = RingSink()
        sim, _ = built_system(
            RunConfig("DKNN-B"), SPEC, telemetry=Telemetry(ring)
        )
        sim.run(20)
        events = ring.events()
        decisions = [
            e.fields for e in events if e.kind == "fastpath.candidates"
        ]
        assert len(decisions) == 20
        sent = sim.channel.stats.sent_by_kind
        reports = sent[MessageKind.VIOLATION] + sent[MessageKind.QUERY_MOVE]
        assert sum(f["candidates"] for f in decisions) == reports > 0
        assert {f["population"] for f in decisions} == {sim.fleet.n}
        assert "Fastpath: 20 dispatch decisions" in summarize_text(events)


class TestNullSinkIsFree:
    def test_default_telemetry_is_null(self):
        fleet, queries = build_workload(SPEC)
        sim = build_system(RunConfig("DKNN-B"), fleet, queries)
        assert sim.telemetry is NULL_TELEMETRY
        assert not sim.telemetry.enabled

    def test_disabled_run_never_touches_the_sink(self, monkeypatch):
        """A handle without a sink is guarded at every seam: the run
        neither emits nor constructs a single event."""

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("trace event built on a disabled run")

        monkeypatch.setattr(Telemetry, "emit", boom)
        monkeypatch.setattr(TraceEvent, "__init__", boom)
        fleet, queries = build_workload(SPEC)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        sim.run(10)  # would raise if any seam emitted an event

    def test_ambient_telemetry_scoping(self):
        assert active_telemetry() is NULL_TELEMETRY
        tel = Telemetry(RingSink())
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
        tel = Telemetry(JsonlSink(path))
        assert tel.enabled
        tel.emit(3, "server.repair", qid=1, mode="full", answer=[4, 5])
        tel.emit(4, "fault.drop", kind="PROBE", reason="lossy")
        tel.close()
        events = list(read_jsonl(path))
        assert _key(events) == [
            (3, "server.repair", {"qid": 1, "mode": "full", "answer": [4, 5]}),
            (4, "fault.drop", {"kind": "PROBE", "reason": "lossy"}),
        ]


class TestRunIntegration:
    def test_run_once_emits_meta_events_and_metrics(self):
        """The trace carries the run's own metrics: ``comm.rate`` is the
        measured window's message rates, by kind, and the columnar
        plane's ledger of the traced run."""
        ring = RingSink()
        tel = Telemetry(ring)
        spec = SPEC.but(warmup_ticks=2)
        m = run_once(
            RunConfig("DKNN-P"), spec, accuracy_every=0, telemetry=tel
        )
        starts = ring.events(kind="run.start")
        ends = ring.events(kind="run.end")
        assert len(starts) == 1 and len(ends) == 1
        assert starts[0].fields["seed"] == spec.seed
        assert ends[0].fields["ticks_measured"] == m.ticks_measured
        (rate,) = ring.events(kind="comm.rate")
        assert rate.fields["ticks"] == m.ticks_measured
        assert rate.fields["by_kind"] == {
            kind: round(r, 6) for kind, r in sorted(m.per_kind_msgs.items())
        }
        # a traced run rides the plane like a bare one
        assert rate.fields["columnar_msgs"] > 0
        # instrumentation must not perturb the run it observes
        bare = run_once(RunConfig("DKNN-P"), spec, accuracy_every=0)
        assert bare.per_kind_msgs == m.per_kind_msgs
        assert bare.units_per_tick == m.units_per_tick

    def test_phase_events_cover_every_tick(self):
        ring = RingSink()
        tel = Telemetry(ring)
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
        tel = Telemetry(sink)
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
        # A tick-mode run never skips; CPM's client phase cannot
        # observe stillness at all.
        ring = RingSink()
        run_once(
            RunConfig(algorithm, engine=EngineConfig(mode=mode)),
            SPEC.but(warmup_ticks=2),
            accuracy_every=0,
            telemetry=Telemetry(ring),
        )
        text = summarize_text(ring.events())
        assert f"mode={mode}" in text
        refusal = "skipping disabled: the client phase cannot observe stillness"
        assert (refusal in text) == refused
