"""Checks on the benchmark itself; not part of the tier-1 suite.

    python -m pytest benchmarks/layered/selftest.py
"""

import bootstrap  # noqa: F401  (first: sets up sys.path and BLAS threads)

import json
import os
import re

import pytest

import run
from metrics import END_TO_END, PER_LAYER
from spans import SpanRecorder, instrument, self_times
from workloads import BY_NAME, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def test_self_time_of_a_synthetic_nest():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > a [5, 9]; lone root [20, 21]
    spans = [
        ("root", 1, 0.0, 10.0, -1),
        ("a", 1, 1.0, 4.0, 0),
        ("b", 1, 2.0, 3.0, 1),
        ("a", 1, 5.0, 9.0, 0),
        ("root", 2, 20.0, 21.0, -1),
    ]
    selfs = self_times(spans)
    assert selfs["root"] == (10.0 - 3.0 - 4.0 + 1.0, 2)
    assert selfs["a"] == (3.0 - 1.0 + 4.0, 2)
    assert selfs["b"] == (1.0, 1)
    # self times add back up to the roots' durations
    assert sum(t for t, _ in selfs.values()) == 11.0


def test_recorder_nests_and_survives_exceptions():
    rec = SpanRecorder()

    def inner():
        raise ValueError

    inner = rec.timed(inner, "inner")

    def outer():
        with pytest.raises(ValueError):
            inner()
        return 7

    rec.tick = 3
    assert rec.timed(outer, "outer")() == 7
    (o_name, o_tick, o0, o1, o_parent), (i_name, _, i0, i1, i_parent) = rec.spans
    assert (o_name, o_tick, o_parent) == ("outer", 3, -1)
    assert (i_name, i_parent) == ("inner", 0)
    assert o0 <= i0 <= i1 <= o1


@pytest.mark.parametrize("name", ["shard_drift", "event_sparse", "b_dense"])
def test_wrapping_instances_changes_nothing_simulated(name):
    w = BY_NAME[name]
    sims = []
    for traced in (False, True):
        sim, queries, _ = run.set_up(w, seed=5, smoke=True)
        advance = type(sim.fleet).advance
        if traced:
            instrument(SpanRecorder(), sim)
            # only this instance is wrapped; the class is untouched
            assert type(sim.fleet).advance is advance
            assert "advance" in vars(sim.fleet)
        for _ in range(w.window(0.0, smoke=True)):
            sim.step()
        sims.append(sim)
    bare, traced = sims
    assert traced.channel.stats.total_messages == bare.channel.stats.total_messages
    assert traced.server.answers == bare.server.answers
    if bare._driver is not None:
        assert traced._driver.skipped_ticks == bare._driver.skipped_ticks > 0


def test_declared_names_are_well_formed():
    names = [w.name for w in WORKLOADS]
    names += [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for metric in END_TO_END + PER_LAYER:
        assert UNIT.match(metric[1]), metric
    for w in WORKLOADS:
        assert len(w.why) <= 200 and "\n" not in w.why


def test_benchmark_json_matches_the_declarations():
    assert BENCHMARK["paths"] == ["benchmarks/layered"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/layered/run.py"]
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS
    ]
    assert BENCHMARK["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_emits_exactly_the_declared_metrics(trace):
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    for w in WORKLOADS:
        result, detail = run.run_one(w, 5, 0.0, bool(trace), smoke=True)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in section]
        for m in section:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if trace:
            # bypassed layers are absent, not measured as zero
            sharded = w.shard is not None
            assert ("shard.tier_ms" in detail["absent"]) != sharded
            evented = w.engine is not None
            assert ("engine.skipped_share" in detail["absent"]) != evented
