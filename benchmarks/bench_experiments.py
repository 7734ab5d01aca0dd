"""Benchmarks: regenerate every registered experiment (DESIGN.md §4).

One parametrised timer per id in ``EXPERIMENTS``; a sweep's own
``check`` holds whatever it asserts beyond "the table has rows".
"""

import pytest

from benchmarks._common import FULL

from repro.experiments.registry import EXPERIMENTS, run_experiment


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
    if EXPERIMENTS[name].check is not None:
        EXPERIMENTS[name].check(table)
