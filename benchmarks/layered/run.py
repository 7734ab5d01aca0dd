#!/usr/bin/env python3
"""Layered benchmark: host time per simulated tick, next to the simulated
statistics (messages, bytes, server cost units, exact answers).

Three ways in, one measurement underneath::

    run.py --workload W --seed N --seconds S --trace 0|1   # one run
    run.py [--seed N] [--reps R] [--seconds S]              # every workload
    run.py --smoke                                          # CI-sized check

One run is a closed loop in one process and one thread: build the
workload, then drive ``sim.step()`` one tick at a time at a stated
population. ``--trace 0`` reports the end-to-end metrics with tracing
off; ``--trace 1`` runs the fixed window twice, bare and with spans
around every layer boundary, and reports the per-layer metrics. The
last line of standard output is the result as one JSON object, the
line before it the detail behind it (sample counts, per-set-up values,
the exact simulated counts).

See README.md here for the metric tables and what each workload is for.
"""

from __future__ import annotations

import bootstrap  # first: sets up sys.path and BLAS threads

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
from statistics import mean, median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np
from repro.api import build_system, build_workload, is_valid_knn
from repro.obs import write_manifest

from hostclock import HostClock
from metrics import (
    END_TO_END,
    PER_LAYER,
    SERVER_UNITS,
    SHARD_COUNTS,
    SHARD_UNITS,
    SPANS,
)
from spans import SpanRecorder, instrument, self_times
from workloads import BY_NAME, WARMUP_TICKS, WORKLOADS, Workload

#: set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
SECOND_SEED = 7


def set_up(w: Workload, seed: int, smoke: bool):
    """Build and warm one system; returns it with the three phase times."""
    t0 = perf_counter()
    fleet, queries = build_workload(w.spec(seed, smoke), fast=True)
    t1 = perf_counter()
    sim = build_system(w.config(), fleet, queries)
    t2 = perf_counter()
    for _ in range(WARMUP_TICKS):
        sim.step()
    t3 = perf_counter()
    return sim, queries, (t1 - t0, t2 - t1, t3 - t2)


def timed_set_up(clock: HostClock, w: Workload, seed: int, smoke: bool):
    """:func:`set_up`, plus its total in reference-box seconds."""
    before = clock.slowness()
    sim, queries, parts = set_up(w, seed, smoke)
    slowness = (before + clock.slowness()) / 2.0
    return sim, queries, sum(parts) / slowness


def totals(sim) -> Tuple[int, int, int]:
    """(radio messages, radio bytes, server cost units) so far."""
    stats = sim.channel.stats
    return stats.total_messages, stats.total_bytes, sim.server.meter.total


def oracle_failures(sim, queries) -> int:
    """Queries whose published answer is not a valid kNN of ground truth."""
    positions = sim.fleet.positions
    answers = sim.server.answers
    bad = 0
    for q in queries:
        qx, qy = positions[q.focal_oid]
        if not is_valid_knn(
            positions, qx, qy, q.k, answers[q.qid], {q.focal_oid}
        ):
            bad += 1
    return bad


class Drive:
    """Steps one warmed simulator through its measured window, one timed
    ``sim.step()`` at a time, with the oracle checks between the timed
    calls; :meth:`close` turns the running counters into window deltas."""

    def __init__(
        self,
        sim,
        queries,
        w: Workload,
        clock: HostClock,
        rec: Optional[SpanRecorder] = None,
    ) -> None:
        self.sim, self.queries, self.w, self.rec = sim, queries, w, rec
        self.clock = clock
        #: host slowness at every block boundary, first one before tick 1
        self.slowness = [clock.slowness()]
        self.step = sim.step if rec is None else rec.timed(sim.step, "sim.step")
        self.tick_s: List[float] = []  # wall seconds of each sim.step()
        self.full: List[bool] = []  # False where the engine skipped the tick
        self.checks = 0
        self.failures = 0
        self._stats0 = sim.channel.stats.snapshot()
        self._meter0 = sim.server.meter.snapshot()
        self._server_s0 = sim.server_seconds
        self._counts0, self._uplinks0 = self._counts()

    def _counts(self) -> Tuple[Dict[str, int], List[int]]:
        """Running repair / shard-tier counts, and uplinks per shard."""
        server = self.sim.server
        counts = {"repairs": sum(getattr(server, "repair_count", {}).values())}
        stats = getattr(server, "shard_stats", None)
        if stats is None:
            return counts, []
        for name in SHARD_COUNTS:
            counts[name] = getattr(stats, name)
        return counts, list(stats.uplinks)

    def tick(self) -> None:
        sim = self.sim
        driver = sim._driver
        skipped = driver.skipped_ticks if driver is not None else 0
        if self.rec is not None:
            self.rec.tick = sim.tick + 1
        t0 = perf_counter()
        self.step()
        self.tick_s.append(perf_counter() - t0)
        self.full.append(driver is None or driver.skipped_ticks == skipped)
        n = len(self.tick_s)
        if n % self.w.check_every == 0:
            self.checks += len(self.queries)
            self.failures += oracle_failures(sim, self.queries)
        if n % self.w.block_ticks == 0:
            self.slowness.append(self.clock.slowness())

    def reference_tick_s(self) -> List[float]:
        """``tick_s`` in reference-box seconds: each tick divided by the
        host slowness sampled at the two ends of its block."""
        b = self.w.block_ticks
        ends = self.slowness
        return [
            dt / ((ends[i // b] + ends[i // b + 1]) / 2.0)
            for i, dt in enumerate(self.tick_s)
        ]

    def close(self) -> None:
        sim = self.sim
        self.stats = sim.channel.stats.delta_since(self._stats0)
        self.meter = sim.server.meter.delta_since(self._meter0)
        self.server_seconds = sim.server_seconds - self._server_s0
        counts, uplinks = self._counts()
        self.counts = {k: v - self._counts0[k] for k, v in counts.items()}
        self.uplinks = [b - a for a, b in zip(self._uplinks0, uplinks)]
        #: what must match between two runs of one seed, to the last unit
        self.exact = {
            "msgs": self.stats.total_messages,
            "bytes": self.stats.total_bytes,
            "server_units": self.meter.total,
            "skipped_ticks": self.full.count(False),
            "answers": {
                str(q.qid): list(sim.server.answers[q.qid])
                for q in self.queries
            },
        }
        # the window is over: let go of the system so it can be freed
        self.sim = self.step = self.rec = None


def block_means(values: List[float], b: int) -> List[float]:
    return [sum(values[i:i + b]) / b for i in range(0, len(values), b)]


def run_untraced(w: Workload, seed: int, seconds: float, smoke: bool):
    """End-to-end metrics of one run, tracing off."""
    ticks = w.window(seconds, smoke)
    clock = HostClock()
    sim, queries, setup_s = timed_set_up(clock, w, seed, smoke)
    warm = totals(sim)
    run = Drive(sim, queries, w, clock)
    for _ in range(ticks):
        run.tick()
    run.close()
    # before the extra set-ups below can raise the high-water mark
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s]
    repeatable = True
    for _ in range(SETUP_REPS - 1):
        del sim
        gc.collect()
        sim, _, setup_s = timed_set_up(clock, w, seed, smoke)
        setups.append(setup_s)
        repeatable = repeatable and totals(sim) == warm
    b = w.block_ticks
    tick_s = run.reference_tick_s()
    blocks = block_means(tick_s, b)
    metrics = {
        "ticks_per_s": 1.0 / median(blocks),
        "tick_ms_p50": 1000.0 * median(tick_s),
        "setup_s": median(setups),
        "peak_rss_mb": rss_mb,
        "msgs_per_tick": run.exact["msgs"] / ticks,
        "bytes_per_tick": run.exact["bytes"] / ticks,
        "server_units_per_tick": run.exact["server_units"] / ticks,
    }
    detail = {
        "ticks": ticks,
        "blocks": len(blocks),
        "block_ticks": b,
        "setup_s_reps": setups,
        "warmup_totals_repeat": repeatable,
        "host_slowness": run.slowness,
        "wall_block_ms": [1000.0 * s for s in block_means(run.tick_s, b)],
        "wall_tick_ms_p50": 1000.0 * median(run.tick_s),
    }
    return metrics, detail, [run], repeatable


def run_traced(w: Workload, seed: int, seconds: float, smoke: bool):
    """Per-layer metrics: two systems from one seed, one bare and one
    with spans, stepped alternately over the first half of the window.

    Alternating puts both under the same neighbour noise tick for tick,
    so their ratio (``sim.trace_overhead``) is a paired measurement; run
    one after the other, whole passes differed by 10-15 % on their own.
    """
    ticks = w.window(seconds / 2, smoke)
    clock = HostClock()
    sim, queries, setup_parts = set_up(w, seed, smoke)
    ref = Drive(sim, queries, w, clock)
    sim, queries, _ = set_up(w, seed, smoke)
    rec = SpanRecorder()
    layers = instrument(rec, sim)
    run = Drive(sim, queries, w, clock, rec)
    for i in range(ticks):
        for drive in (ref, run) if i % 2 else (run, ref):
            drive.tick()
    ref.close()
    run.close()
    os.makedirs(bootstrap.OUT, exist_ok=True)
    rec.write(os.path.join(bootstrap.OUT, f"{w.name}.spans.jsonl"))

    selfs = self_times(rec.spans)
    m: Dict[str, float] = {}
    for span, with_calls in SPANS.items():
        if span.split(".")[0] in layers:
            secs, calls = selfs.get(span, (0.0, 0))
            m[span + "_ms"] = 1000.0 * secs / ticks
            if with_calls:
                m[span + "_calls"] = calls / ticks
    stats, meter = run.stats, run.meter
    columnar = stats.columnar_messages
    m["channel.columnar_share"] = columnar / max(stats.total_messages, 1)
    m["channel.materialized_share"] = (
        stats.materialized_messages / columnar if columnar else 0.0
    )
    m["server.handler_ms"] = 1000.0 * run.server_seconds / ticks
    m["server.repairs_per_tick"] = run.counts["repairs"] / ticks
    for cat in SERVER_UNITS:
        m[f"server.units_{cat}"] = meter.of(cat) / ticks
    if "shard" in layers:
        m["shard.tier_ms"] = sum(
            m[span + "_ms"] for span in SPANS if span.startswith("shard.")
        )
        for name in SHARD_COUNTS:
            m[f"shard.{name}_per_tick"] = run.counts[name] / ticks
        m["shard.s2s_msgs_per_tick"] = stats.server_to_server_messages / ticks
        m["shard.imbalance"] = max(run.uplinks) / max(mean(run.uplinks), 1e-9)
        for cat in SHARD_UNITS:
            m[f"shard.units_{cat}"] = meter.of(cat) / ticks
    if "engine" in layers:
        m["engine.skipped_share"] = run.full.count(False) / ticks
        m["engine.full_tick_ms_p50"] = 1000.0 * median(
            dt for dt, full in zip(ref.tick_s, ref.full) if full
        )
    m["sim.step_self_ms"] = 1000.0 * selfs["sim.step"][0] / ticks
    # the simulator drains the channel once per subround
    m["sim.subrounds_per_tick"] = selfs.get("channel.collect", (0.0, 0))[1] / ticks
    m["sim.tick_ms_p90"] = 1000.0 * float(np.percentile(ref.tick_s, 90))
    m["sim.trace_overhead"] = sum(run.tick_s) / sum(ref.tick_s)
    m["sim.host_slowness"] = median(run.slowness + ref.slowness)
    for part, secs in zip(
        ("build_workload", "build_system", "warmup"), setup_parts
    ):
        m[f"setup.{part}_s"] = secs

    # Self-checks: the spans changed nothing the simulation can see,
    # every cost unit is reported under some name, and self times add
    # back up to the traced tick.
    same = run.exact == ref.exact
    units_named = (
        sum(meter.of(c) for c in SERVER_UNITS + SHARD_UNITS) == meter.total
    )
    self_sum = sum(t for t, _ in selfs.values())
    span_sum = sum(s[3] - s[2] for s in rec.spans if s[0] == "sim.step")
    sums_close = abs(self_sum - span_sum) <= 0.01 * span_sum
    detail = {
        "ticks": ticks,
        "spans": len(rec.spans),
        "layers": sorted(layers),
        "full_ticks": ref.full.count(True),
        "traced_tick_ms": 1000.0 * span_sum / ticks,
        "self_time_sum_ms": 1000.0 * self_sum / ticks,
        "traced_equals_untraced": same,
        "units_all_named": units_named,
    }
    return m, detail, [run, ref], same and units_named and sums_close


def run_one(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool):
    """One run; returns (result for the last line, detail)."""
    if trace:
        metrics, detail, runs, ok = run_traced(w, seed, seconds, smoke)
        declared = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        metrics, detail, runs, ok = run_untraced(w, seed, seconds, smoke)
        declared = [(name, unit) for name, unit, _, _ in END_TO_END]
    checks = sum(r.checks for r in runs)
    failures = sum(r.failures for r in runs)
    detail.update(
        workload=w.name,
        seed=seed,
        trace=int(trace),
        answer_checks=checks,
        answer_failures=failures,
        exact=runs[0].exact,
        # a layer this workload bypasses has no metrics; the result line
        # must still carry every declared name, so it says 0 there
        absent=[name for name, _ in declared if name not in metrics],
    )
    result = {
        "correct": bool(ok and failures == 0),
        "attempted": checks,
        "failed": failures,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in declared
        },
    }
    return result, detail


def print_rows(result: Dict, detail: Dict) -> None:
    """Every metric the run has, by name, with its unit."""
    for name, m in result["metrics"].items():
        if name not in detail["absent"]:
            print(f"{name:<32} {m['value']:>14.6g} {m['unit']}")
    if detail["absent"]:
        print(f"# absent (layer bypassed): {' '.join(detail['absent'])}")


# -- every workload: fresh child process per run ---------------------------


def child(w: Workload, seed: int, seconds: float, trace: int):
    """Run one workload in a fresh process (so ``peak_rss_mb`` is its own)."""
    proc = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--workload", w.name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.exit(f"{w.name}: run failed\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def run_all(seed: int, reps: int, seconds: float) -> int:
    """Every workload: ``reps`` interleaved untraced runs (shown as the
    median with every rep's value next to it), one traced run, and one
    run on a second seed. Fails on any wrong answer, on any
    simulated statistic that differs between the reps of a seed, and on
    a traced system that diverged from its bare twin."""
    t_start = perf_counter()
    runs: List[Dict] = []  # every child, for the report
    problems: List[str] = []

    def launch(w, s, trace):
        result, detail = child(w, s, seconds, trace)
        runs.append({"result": result, "detail": detail})
        if not result["correct"]:
            problems.append(f"{w.name} seed={s} trace={trace}: not correct")
        print(
            f"  {w.name:<13} seed={s} trace={trace} "
            f"checks={result['attempted']} failed={result['failed']}",
            flush=True,
        )
        return result, detail

    per_workload: Dict[str, List[Tuple[Dict, Dict]]] = {
        w.name: [] for w in WORKLOADS
    }
    for _ in range(reps):
        for w in WORKLOADS:  # round-robin, so drift hits every workload alike
            per_workload[w.name].append(launch(w, seed, 0))
    traced = {w.name: launch(w, seed, 1) for w in WORKLOADS}
    if seed != SECOND_SEED:
        for w in WORKLOADS:
            launch(w, SECOND_SEED, 0)

    for w in WORKLOADS:
        exact = [d["exact"] for _, d in per_workload[w.name]]
        if any(e != exact[0] for e in exact):
            problems.append(f"{w.name}: simulated statistics differ by rep")

    print()
    for w in WORKLOADS:
        results = [r for r, _ in per_workload[w.name]]
        print(f"# {w.name}: {w.why}")
        for name, unit, _, bound in END_TO_END:
            values = [r["metrics"][name]["value"] for r in results]
            shown = " ".join(f"{v:.6g}" for v in values)
            print(
                f"{name:<32} {median(values):>14.6g} {unit:<11}"
                f" bound {bound:.0%}  reps [{shown}]"
            )
        print_rows(*traced[w.name])
        print()

    os.makedirs(bootstrap.OUT, exist_ok=True)
    path = os.path.join(bootstrap.OUT, "report.json")
    # the manifest stamps this run's git rev + dirty flag and the
    # python/numpy versions
    write_manifest(
        path,
        runs,
        wall_seconds=perf_counter() - t_start,
        extra={
            "benchmark": {
                "seed": seed,
                "second_seed": SECOND_SEED,
                "reps": reps,
                "seconds": seconds,
                "nproc": os.cpu_count(),
                "problems": problems,
            }
        },
    )
    print(f"report: {os.path.relpath(path)}")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


def run_smoke(seed: int) -> int:
    """Every workload at ~1/25 population and ~30 ticks, both passes,
    same checks, no timing bounds."""
    status = 0
    for w in WORKLOADS:
        for trace in (False, True):
            result, detail = run_one(w, seed, 0.0, trace, smoke=True)
            exact = {k: v for k, v in detail["exact"].items() if k != "answers"}
            print(
                f"{'ok  ' if result['correct'] else 'FAIL'} {w.name:<13} "
                f"trace={int(trace)} checks={result['attempted']} "
                f"failed={result['failed']} {exact}"
            )
            status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args.seed)
    if args.workload is None:
        return run_all(args.seed, args.reps, args.seconds)
    result, detail = run_one(
        BY_NAME[args.workload], args.seed, args.seconds, bool(args.trace),
        smoke=False,
    )
    print(
        f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']}"
        f" ticks={detail['ticks']}"
        f" answer_checks={detail['answer_checks']}"
        f" answer_failures={detail['answer_failures']}"
    )
    print_rows(result, detail)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
