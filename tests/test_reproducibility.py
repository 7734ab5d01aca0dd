"""Reproducibility guarantees: identical inputs give identical runs.

Experiment credibility rests on these: every algorithm sees the exact
same motion for a given spec, and repeated runs produce byte-identical
accounting.
"""

import pytest

from repro.experiments.algorithms import ALGORITHMS, build_system
from repro.experiments.config import RunConfig
from repro.mobility import record_trace
from repro.workloads import WorkloadSpec, build_workload

SPEC = WorkloadSpec(
    n_objects=120, n_queries=2, k=4, seed=61, ticks=10, warmup_ticks=1
)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_identical_runs_identical_accounting(algorithm):
    def run():
        fleet, queries = build_workload(SPEC)
        sim = build_system(RunConfig(algorithm), fleet, queries)
        sim.run(30)
        stats = sim.channel.stats
        return (
            stats.total_messages,
            stats.total_bytes,
            dict(stats.sent_by_kind),
            {qid: tuple(ids) for qid, ids in sim.server.answers.items()},
        )

    assert run() == run()


def test_all_algorithms_see_identical_motion():
    """The workload builder must hand every algorithm the same world."""
    snapshots = []
    for _ in range(2):
        fleet, _ = build_workload(SPEC)
        for _ in range(20):
            fleet.advance()
        snapshots.append(list(fleet.positions))
    assert snapshots[0] == snapshots[1]


def test_trace_replay_through_a_full_system():
    """A recorded trace replayed as the fleet drives a protocol run."""
    from repro.core.broadcast_variant import build_broadcast_system
    from repro.server import QuerySpec
    from tests.helpers import ExactnessChecker

    fleet, queries = build_workload(SPEC)
    trace = record_trace(fleet, 25)

    replay = trace.replay()
    sim = build_broadcast_system(replay, queries)
    checker = ExactnessChecker(replay, queries)
    sim.run(20, on_tick=checker)
    checker.assert_clean()
    # The replayed positions must match the recording tick for tick.
    assert list(replay.positions) == trace.frames[20]


def test_different_seeds_change_traffic():
    fleet_a, queries = build_workload(SPEC)
    sim_a = build_system(RunConfig("DKNN-B"), fleet_a, queries)
    sim_a.run(25)
    fleet_b, queries_b = build_workload(SPEC.but(seed=62))
    sim_b = build_system(RunConfig("DKNN-B"), fleet_b, queries_b)
    sim_b.run(25)
    assert (
        sim_a.channel.stats.total_messages
        != sim_b.channel.stats.total_messages
        or sim_a.server.answers != sim_b.server.answers
    )


@pytest.mark.parametrize(
    "n_objects, ticks, algorithm, msgs_total",
    [
        (2_000, 40, "DKNN-P", 64_740),
        (2_000, 40, "DKNN-B", 18_991),
        (20_000, 15, "DKNN-P", 180_386),
        (20_000, 15, "CPM", 400_623),
    ],
)
def test_seeded_message_totals_are_pinned(
    n_objects, ticks, algorithm, msgs_total
):
    """Every message of a seeded run — registration burst, 5 warm-up
    ticks and ``ticks`` more — as one literal: a protocol change that
    alters the message stream shows up as an edit to this table in the
    same PR."""
    spec = WorkloadSpec(n_objects=n_objects, n_queries=16, k=8, seed=42)
    fleet, queries = build_workload(spec)
    sim = build_system(RunConfig(algorithm), fleet, queries)
    sim.run(5 + ticks)
    assert sim.channel.stats.total_messages == msgs_total
