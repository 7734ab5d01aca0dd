"""Micro-benchmarks of the substrates (proper pytest-benchmark timing).

These measure the building blocks whose costs dominate the simulated
server: grid maintenance, kNN / range search, mobility stepping, and a
full protocol tick for each algorithm family.
"""

from __future__ import annotations

import random

import pytest

from repro.api import (
    Fleet,
    RandomWaypointModel,
    Rect,
    RunConfig,
    WorkloadSpec,
    build_system,
    build_workload,
)
from repro.index import UniformGrid
from repro.index.knn import knn_search, range_search_arrays

UNIVERSE = Rect(0, 0, 10_000, 10_000)


def _grid(n=2000, cells=32, seed=1):
    rng = random.Random(seed)
    grid = UniformGrid(UNIVERSE, cells)
    for oid in range(n):
        grid.insert(oid, rng.uniform(0, 10_000), rng.uniform(0, 10_000))
    return grid


def test_grid_update_throughput(benchmark):
    grid = _grid()
    rng = random.Random(2)
    moves = [
        (oid, rng.uniform(0, 10_000), rng.uniform(0, 10_000))
        for oid in range(2000)
    ]

    def run():
        for oid, x, y in moves:
            grid.update(oid, x, y)

    benchmark(run)


def test_grid_knn_search(benchmark):
    grid = _grid()
    rng = random.Random(3)
    queries = [(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(100)]

    def run():
        for qx, qy in queries:
            knn_search(grid, qx, qy, 8)

    benchmark(run)


def test_grid_range_search(benchmark):
    grid = _grid()
    rng = random.Random(4)
    queries = [(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(100)]

    def run():
        for qx, qy in queries:
            range_search_arrays(grid, qx, qy, 600.0)

    benchmark(run)


def test_fleet_advance(benchmark):
    fleet = Fleet.from_model(RandomWaypointModel(UNIVERSE), 2000, seed=5)
    benchmark(fleet.advance)


@pytest.mark.parametrize("algorithm", ["DKNN-P", "DKNN-B", "PER", "SEA", "CPM"])
def test_protocol_tick(benchmark, algorithm):
    spec = WorkloadSpec(
        n_objects=500, n_queries=4, k=8, ticks=400, warmup_ticks=1, seed=6
    )
    fleet, queries = build_workload(spec)
    sim = build_system(RunConfig(algorithm), fleet, queries)
    sim.run(5)  # settle registration
    benchmark(sim.step)
