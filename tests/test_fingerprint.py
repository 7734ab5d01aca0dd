"""The benchmark's simulated statistics, pinned: every workload of
``benchmarks/layered`` at smoke size, seeds 1 and 7, must reproduce the
committed ``fingerprint.json`` to the last message, byte, cost unit,
skipped tick and published answer, and every sweep of
``python -m repro.experiments --all --quick`` its table's count columns.

The workload numbers come from the benchmark runner's own ``set_up``
and measured window (``run.Drive``), so a change that moves what the
benchmark measures fails here first. A sweep is pinned as the md5 of
its quick table as CSV, less the wall-clock columns in ``WALL_CLOCK``.
After a change that is meant to move them, rewrite the file and say
why in the change's notes::

    PYTHONPATH=src python tests/test_fingerprint.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys

import pytest

from repro.experiments.registry import EXPERIMENTS, run_experiment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERED = os.path.join(ROOT, "benchmarks", "layered")
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprint.json")
SEEDS = (1, 7)

#: Per sweep, the columns that measure the host's clock, not the run.
WALL_CLOCK = {
    "E6": ("server_ms/tick",),
    "E11": ("server_ms/tick",),
    "E19": ("wall_s", "ms/tick", "speedup"),
}


def _runner():
    """``benchmarks/layered/run.py`` as a module (its siblings import by
    bare name, so their directory goes on the path)."""
    if LAYERED not in sys.path:
        sys.path.insert(0, LAYERED)
    spec = importlib.util.spec_from_file_location(
        "layered_run", os.path.join(LAYERED, "run.py")
    )
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def fingerprint(run, w, seed: int) -> dict:
    """One workload's smoke-size ``exact`` block, answers as an md5."""
    sim, queries, _ = run.set_up(w, seed, smoke=True)
    drive = run.Drive(sim, queries, w, run.HostClock())
    for _ in range(w.window(0.0, smoke=True)):
        drive.tick()
    drive.close()
    assert drive.failures == 0, (w.name, seed)
    exact = dict(drive.exact)
    answers = json.dumps(exact.pop("answers"), sort_keys=True)
    exact["answers_md5"] = hashlib.md5(answers.encode()).hexdigest()
    return exact


def sweep_digest(name: str) -> str:
    """md5 of one quick sweep's table as CSV, wall-clock columns out."""
    table = run_experiment(name, quick=True)
    columns = [c for c in table.columns if c not in WALL_CLOCK.get(name, ())]
    lines = [",".join(columns)]
    lines += [",".join(str(row[c]) for c in columns) for row in table.rows]
    return hashlib.md5("\n".join(lines).encode()).hexdigest()


def compute_workloads() -> dict:
    run = _runner()
    return {
        f"{w.name}/{seed}": fingerprint(run, w, seed)
        for w in run.WORKLOADS
        for seed in SEEDS
    }


def compute_sweeps() -> dict:
    return {f"quick/{name}": sweep_digest(name) for name in sorted(EXPERIMENTS)}


def compute() -> dict:
    return {**compute_workloads(), **compute_sweeps()}


@pytest.fixture(scope="module")
def pinned():
    with open(PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def computed():
    return compute_workloads()


@pytest.fixture(scope="module")
def sweeps():
    return compute_sweeps()


def test_every_workload_and_seed_is_pinned(computed, pinned):
    workloads = [k for k in pinned if not k.startswith("quick/")]
    assert sorted(computed) == sorted(workloads)


def test_every_quick_sweep_is_pinned(sweeps, pinned):
    assert sorted(sweeps) == sorted(k for k in pinned if k.startswith("quick/"))


@pytest.mark.parametrize(
    "key",
    [f"{name}/{seed}" for name in (
        "p_dense", "b_dense", "cpm_stream", "shard_drift", "event_sparse"
    ) for seed in SEEDS],
)
def test_the_benchmark_reproduces_its_fingerprint(computed, pinned, key):
    assert computed[key] == pinned[key]


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_the_quick_sweep_reproduces_its_digest(sweeps, pinned, name):
    assert sweeps[f"quick/{name}"] == pinned[f"quick/{name}"]


if __name__ == "__main__":
    result = compute()
    with open(PATH, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(result)} fingerprints to {os.path.relpath(PATH)}")
