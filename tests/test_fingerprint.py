"""The benchmark's simulated statistics, pinned: every workload of
``benchmarks/layered`` at smoke size, seeds 1 and 7, must reproduce the
committed ``fingerprint.json`` to the last message, byte, cost unit,
skipped tick and published answer.

The numbers come from the benchmark runner's own ``set_up`` and
measured window (``run.Drive``), so a change that moves what the
benchmark measures fails here first. After a change that is meant to
move them, rewrite the file and say why in the change's notes::

    PYTHONPATH=src python tests/test_fingerprint.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERED = os.path.join(ROOT, "benchmarks", "layered")
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprint.json")
SEEDS = (1, 7)


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


def compute() -> dict:
    run = _runner()
    return {
        f"{w.name}/{seed}": fingerprint(run, w, seed)
        for w in run.WORKLOADS
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def computed():
    return compute()


def test_every_workload_and_seed_is_pinned(computed):
    with open(PATH) as fh:
        pinned = json.load(fh)
    assert sorted(computed) == sorted(pinned)


@pytest.mark.parametrize(
    "key",
    [f"{name}/{seed}" for name in (
        "p_dense", "b_dense", "cpm_stream", "shard_drift", "event_sparse"
    ) for seed in SEEDS],
)
def test_the_benchmark_reproduces_its_fingerprint(computed, key):
    with open(PATH) as fh:
        pinned = json.load(fh)
    assert computed[key] == pinned[key]


if __name__ == "__main__":
    result = compute()
    with open(PATH, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(result)} fingerprints to {os.path.relpath(PATH)}")
