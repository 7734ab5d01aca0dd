"""Benchmarks: regenerate every registered experiment (DESIGN.md §4).

One parametrised test per id in ``EXPERIMENTS``; ``CHECKS`` holds the
few per-experiment assertions that go beyond "the table has rows".
"""

import pytest

from benchmarks._common import FULL

from repro.experiments.registry import EXPERIMENTS, run_experiment


def _check_e14(table):
    # The zero-fault rows must show zero fault-layer activity.
    for row in table.rows:
        if row["fault"] == "drop=0":
            assert row["retransmits/tick"] == 0.0
            assert row["dropped/tick"] == 0.0


def _check_e15(table):
    for row in table.rows:
        # Distribution never costs correctness.
        assert row["exactness"] == 1.0
        if row["S"] == 1:
            # A single shard has no neighbors: backbone silent.
            assert row["s2s/tick"] == 0.0
            assert row["imbalance"] == 1.0
        else:
            assert row["s2s/tick"] > 0.0
    # Skew shows up where it should: hotspot mobility is more
    # imbalanced than uniform at the same (largest) S.
    s_max = max(row["S"] for row in table.rows)

    def imb(mobility):
        return max(
            row["imbalance"]
            for row in table.rows
            if row["S"] == s_max and row["mobility"] == mobility
        )

    assert imb("hotspot") > imb("random_waypoint")


CHECKS = {"E14": _check_e14, "E15": _check_e15}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(benchmark, name):
    """Run experiment ``name`` once under the benchmark timer."""
    holder = {}

    def run():
        holder["table"] = run_experiment(name, quick=not FULL)

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = holder["table"]
    print()
    print(table.render())
    benchmark.extra_info["experiment"] = name
    benchmark.extra_info["mode"] = "full" if FULL else "quick"
    benchmark.extra_info["rows"] = len(table.rows)
    assert table.rows
    if name in CHECKS:
        CHECKS[name](table)
