"""The experiment registry: one :class:`Sweep` per reproduced table/figure.

``EXPERIMENTS`` is data: an entry names its table, its columns and the
runs that fill it, and :func:`run_experiment` is the only loop that
executes one. ``quick`` selects small sizes (tests and benchmark smoke
runs) of the same code paths. Adding a sweep is adding an entry.
DESIGN.md §4 carries the index :func:`render_index` renders from this
table, EXPERIMENTS.md the measured outcomes, ``results/`` the CSVs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.experiments.config import RunConfig
from repro.experiments.runner import Measurement, run_once
from repro.experiments.tables import ResultTable
from repro.net.engine import EngineConfig
from repro.net.faults import FaultPlan, ShardFaultPlan
from repro.net.simulator import ONE_TICK_LATENCY, ZERO_LATENCY
from repro.server.config import AdmissionPolicy, RebalancePolicy, ShardConfig
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "EXPERIMENTS", "Sweep", "run_experiment", "render_index",
    "DEFAULT_SPEC", "QUICK_SPEC",
]  # fmt: skip

#: Steady-state defaults (DESIGN.md §4), scaled to pure-Python runtime.
DEFAULT_SPEC = WorkloadSpec(
    n_objects=2000, n_queries=16, k=8, ticks=120, warmup_ticks=10, seed=42
)

#: Shrunk sizes for test/benchmark smoke runs of the same code paths.
QUICK_SPEC = WorkloadSpec(
    n_objects=300, n_queries=4, k=4, ticks=40, warmup_ticks=5, seed=42
)

_ALL = ("DKNN-B", "DKNN-G", "DKNN-P", "PER", "SEA", "CPM")

_COMM_COLUMNS = (
    "algorithm", "msgs/tick", "uplink/tick", "downlink/tick", "bcast/tick",
    "bytes/tick", "exactness",
)  # fmt: skip

#: Hardened DKNN-P (acks, leases, retransmits), as E14 and E16-E18 run it.
_FT = {
    "fault_tolerant": True, "ack_timeout": 2, "lease_ticks": 8,
    "violation_retry": 2,
}  # fmt: skip

#: One run of a sweep: the row's label cells, what to run, on which
#: workload, and how often to check answers against brute force.
Case = Tuple[Dict[str, object], RunConfig, WorkloadSpec, int]
Runs = List[Tuple[Dict[str, object], Measurement]]


@dataclass(frozen=True)
class Sweep:
    """One reproduced table: what to run and which columns to print.

    ``about`` is the one-line description (CLI banner, DESIGN.md index)
    and, behind the id, the table's heading unless ``title`` words that
    differently. ``cases(quick)`` yields one :data:`Case` per run; every
    name in ``columns`` is filled from that case's labels or from
    ``Measurement.as_row()`` (under the key ``rename`` gives, where the
    two differ). ``expect`` says what the sweep varies and which shape a
    faithful reproduction shows. Where that is not enough: ``rows(m)``
    turns one run into several rows (dicts of cells replacing the run's
    own), ``across(runs)`` returns one dict of extra cells per run
    computed from all runs, and ``check(table)`` asserts what must hold
    of the finished table at any size.
    """

    about: str
    columns: Tuple[str, ...]
    cases: Callable[[bool], Iterable[Case]]
    expect: str
    title: str = ""
    rename: Mapping[str, str] = field(default_factory=dict)
    rows: Optional[Callable[[Measurement], Iterable[Dict[str, object]]]] = None
    across: Optional[Callable[[Runs], List[Dict[str, object]]]] = None
    check: Optional[Callable[[ResultTable], None]] = None


def _base(quick: bool) -> WorkloadSpec:
    return QUICK_SPEC if quick else DEFAULT_SPEC


def _one_axis(
    axis: str,
    values: Tuple[tuple, tuple],
    spec: Callable[[WorkloadSpec, object], WorkloadSpec] = lambda base, v: base,
    params: Callable[[object], dict] = lambda v: {},
    algorithms: Iterable[str] = _ALL,
    accuracy_every: int = 10,
) -> Callable[[bool], Iterable[Case]]:
    """``cases`` of a one-axis sweep: every axis value x every algorithm.

    ``values`` is the ``(quick, full)`` pair of value tuples; ``spec``
    derives the workload from the base spec and a value, ``params`` the
    algorithm parameters.
    """

    def cases(quick: bool) -> Iterable[Case]:
        base = _base(quick)
        for value in values[0 if quick else 1]:
            for name in algorithms:
                config = RunConfig(name, params=params(value))
                labels = {axis: value, "algorithm": name}
                yield labels, config, spec(base, value), accuracy_every

    return cases


_N_VALUES = ((200, 400), (500, 1000, 2000, 4000))


def _defaults_cases(quick: bool) -> Iterable[Case]:
    for name in _ALL:
        yield {"algorithm": name}, RunConfig(name), _base(quick), 20


def _per_kind_rows(m: Measurement) -> Iterable[Dict[str, object]]:
    for kind in sorted(m.per_kind_msgs):
        msgs, size = m.per_kind_msgs[kind], m.per_kind_bytes[kind]
        yield {"kind": kind, "msgs/tick": msgs, "bytes/tick": size, "recv/tick": ""}
    yield {"kind": "TOTAL"}


def _staleness_cases(quick: bool) -> Iterable[Case]:
    spec = _base(quick).but(n_objects=200 if quick else 1000)
    for period in (1, 5) if quick else (1, 2, 5, 10, 20):
        config = RunConfig("PER", params={"period": period})
        yield {"configuration": f"PER period={period}"}, config, spec, 2
    for name in ("DKNN-P", "DKNN-B"):
        for latency, label in (
            (ZERO_LATENCY, "zero-latency"), (ONE_TICK_LATENCY, "1-tick latency")
        ):  # fmt: skip
            config = RunConfig(name, latency=latency)
            yield {"configuration": f"{name} {label}"}, config, spec, 2


def _theta_cases(quick: bool) -> Iterable[Case]:
    thetas = (50, 200) if quick else (25, 50, 100, 200, 400)
    s_caps = (10, 100) if quick else (0, 10, 50, 100, 200)
    for theta, s_cap in [(t, 50) for t in thetas] + [(100, s) for s in s_caps]:
        params = {"theta": float(theta), "s_cap": float(s_cap)}
        config = RunConfig("DKNN-P", params=params)
        yield {"theta": theta, "s_cap": s_cap}, config, _base(quick), 10


def _wakeup_cases(quick: bool) -> Iterable[Case]:
    base = _base(quick)
    label = {"configuration": "DKNN-B (global broadcast)"}
    yield label, RunConfig("DKNN-B"), base, 10
    for lease in (5, 20) if quick else (2, 5, 10, 20, 40):
        config = RunConfig("DKNN-G", params={"lease_ticks": lease})
        yield {"configuration": f"DKNN-G lease={lease}"}, config, base, 10


def _light_repair_cases(quick: bool) -> Iterable[Case]:
    for v in (0, 50) if quick else (0, 10, 50, 150):
        spec = _base(quick).but(query_speed=float(v))
        for incremental in (False, True):
            config = RunConfig("DKNN-P", params={"incremental": incremental})
            yield {"v_query": v, "incremental": incremental}, config, spec, 10


def _fault_cases(quick: bool) -> Iterable[Case]:
    base = _base(quick).but(n_objects=200 if quick else 1000, seed=97)

    def trio(fault: str, plan: Optional[FaultPlan]) -> Iterable[Case]:
        for label, name, params in (
            ("DKNN-P/FT", "DKNN-P", _FT),
            ("DKNN-P", "DKNN-P", {}),
            ("PER", "PER", {}),
        ):
            config = RunConfig(name, faults=plan, params=params)
            yield {"fault": fault, "configuration": label}, config, base, 2

    for drop in (0.0, 0.05, 0.2) if quick else (0.0, 0.01, 0.05, 0.1, 0.2):
        lossy = FaultPlan(seed=7, drop_uplink=drop, drop_downlink=drop)
        yield from trio(f"drop={drop:g}", lossy if drop else None)
    for frac in (0.05,) if quick else (0.02, 0.1):
        n_crash = max(1, int(base.n_objects * frac))
        # Crash the first objects (ids are uniform in space, so which
        # ids die is immaterial); stagger the crash ticks across the
        # measured window.
        t0, t1 = base.warmup_ticks + 2, base.ticks - 10
        crashes = [
            (oid, t0 + (oid * max(1, (t1 - t0) // n_crash)) % max(1, t1 - t0))
            for oid in range(n_crash)
        ]
        yield from trio(f"crash={frac:g}", FaultPlan(seed=11, crashes=crashes))


def _check_faults(table: ResultTable) -> None:
    # The zero-fault rows must show zero fault-layer activity.
    for row in table.rows:
        if row["fault"] == "drop=0":
            assert row["retransmits/tick"] == 0.0
            assert row["dropped/tick"] == 0.0


def _sharding_cases(quick: bool) -> Iterable[Case]:
    algorithms = ("DKNN-P", "DKNN-B") + (() if quick else ("DKNN-G",))
    for mobility in ("random_waypoint", "hotspot"):
        spec = _base(quick).but(mobility=mobility)
        for side in (1, 2) if quick else (1, 2, 4):
            for name in algorithms:
                config = RunConfig(name, shard=ShardConfig(shards=side))
                labels = {"mobility": mobility, "S": side, "algorithm": name}
                yield labels, config, spec, 10


def _check_sharding(table: ResultTable) -> None:
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
    s_max = max(table.column("S"))
    widest = [row for row in table.rows if row["S"] == s_max]

    def imb(mobility):
        return max(r["imbalance"] for r in widest if r["mobility"] == mobility)

    assert imb("hotspot") > imb("random_waypoint")


def _shard_fault_cases(quick: bool) -> Iterable[Case]:
    base = _base(quick).but(
        mobility="hotspot", seed=101, n_objects=300 if quick else 1200
    )
    # One crash per quarter of the measured window, round-robin over
    # the shards, each down for ~10 ticks (restart covered).
    t0, t1 = base.warmup_ticks + 4, base.ticks - 12
    span = max(1, (t1 - t0) // 4)
    pt0 = base.warmup_ticks + 8
    for side in (2,) if quick else (2, 4, 8):
        n_shards = side * side
        crashes = tuple(
            (i % n_shards, t0 + i * span, t0 + i * span + 10)
            for i in range(4)
            if t0 + i * span + 10 < base.ticks
        )
        partitions = (
            (0, 1 % n_shards, pt0, pt0 + 8),
            (n_shards - 1, 0, pt0 + 12, pt0 + 20),
        )
        partitioned = ShardFaultPlan(
            seed=19, link_drop=0.02, crashes=crashes, partitions=partitions,
            shed_uplinks_per_tick=40 if quick else 120,
        )  # fmt: skip
        for scenario, plan in (
            ("healthy", None),
            ("crash", ShardFaultPlan(seed=19, crashes=crashes)),
            ("crash+partition", partitioned),
        ):
            shard = ShardConfig(shards=side, faults=plan)
            config = RunConfig("DKNN-P", shard=shard, params=_FT)
            yield {"S": side, "scenario": scenario}, config, base, 2


def _healthy_is_exact(table: ResultTable) -> None:
    # The degraded flag is honest: every tick it left unflagged was
    # exact ("" where no tick was).
    for row in table.rows:
        assert row["healthy_exactness"] in ("", 1.0)


def _check_shard_faults(table: ResultTable) -> None:
    _healthy_is_exact(table)
    for row in table.rows:
        if row["scenario"] == "healthy":
            assert row["failovers"] == 0
            assert row["degraded_frac"] == 0
            assert row["exactness"] == 1.0


def _durability_cases(quick: bool) -> Iterable[Case]:
    base = _base(quick).but(
        mobility="hotspot", seed=103, n_objects=300 if quick else 1200
    )
    span = base.ticks - base.warmup_ticks
    g0 = base.warmup_ticks + span // 4
    g1 = g0 + (8 if quick else 12)
    r0 = base.warmup_ticks + (3 * span) // 4
    r1 = r0 + (3 if quick else 5)
    for interval in (None, 4) if quick else (None, 2, 5, 10, 20):
        plan = ShardFaultPlan(
            seed=23, heartbeat_timeout=3,
            crash_groups=(((0, 1), g0, g1),), full_restarts=((r0, r1),),
            checkpoint_interval=interval,
            wal_replay_per_tick=None if interval is None else 25,
        )  # fmt: skip
        shard = ShardConfig(shards=2, faults=plan)
        config = RunConfig("DKNN-P", shard=shard, params=_FT)
        label = {"ckpt_interval": "none" if interval is None else interval}
        yield label, config, base, 2


def _check_durability(table: ResultTable) -> None:
    _healthy_is_exact(table)
    for row in table.rows:
        if row["ckpt_interval"] == "none":
            assert row["amnesia_q"] > 0
        else:
            # With a store every query survives the correlated crash.
            assert row["amnesia_q"] == 0
            assert row["recovered_q"] > 0


def _rebalancing_cases(quick: bool) -> Iterable[Case]:
    # Tight hotspots (generator default sigma, ~3% of the universe)
    # that each complete one full orbit inside the measured window, so
    # every run sees the skew traverse shard boundaries.
    base = _base(quick)
    period = max(20, base.ticks - base.warmup_ticks)
    options = {"n_hotspots": 3, "zipf_s": 1.0, "drift_period": period}
    base = base.but(mobility="hotspot_drift", seed=42, mobility_options=options)
    policy = RebalancePolicy(
        check_interval=5, trigger=1.2, max_moves_per_cycle=6,
        cells_per_shard=8, min_window_uplinks=16,
    )  # fmt: skip
    for side in (2,) if quick else (2, 4, 8):
        n_shards = side * side
        budget = max(40, (2 * base.population) // n_shards)
        admission = AdmissionPolicy(max_uplinks_per_tick=budget, defer=True)
        guarded = {"rebalance": policy, "admission": admission}
        for scenario, tier, params in (
            ("static", {}, {}),
            ("rebalancing", {"rebalance": policy}, {}),
            ("rebalance+admission", guarded, _FT),
        ):
            shard = ShardConfig(shards=side, **tier)
            config = RunConfig("DKNN-P", shard=shard, params=params)
            labels = {"N": base.n_objects, "S": n_shards, "scenario": scenario}
            yield labels, config, base, 10
    if not quick:
        # The scale pin: one million objects through the rebalancing
        # tier. Few ticks, accuracy off — the row exists to prove the
        # tier completes at this N, and to record its migration volume.
        big = base.but(
            n_objects=1_000_000, n_queries=16, ticks=8, warmup_ticks=2,
            mobility_options=dict(options, drift_period=6),
        )  # fmt: skip
        shard = ShardConfig(shards=4, rebalance=policy)
        labels = {"N": big.n_objects, "S": 16, "scenario": "rebalancing-1M"}
        yield labels, RunConfig("DKNN-B", shard=shard), big, 0


def _check_rebalancing(table: ResultTable) -> None:
    _healthy_is_exact(table)
    by_case = {(row["S"], row["scenario"]): row for row in table.rows}
    for (shards, scenario), row in by_case.items():
        if scenario in ("static", "rebalancing"):
            # Migration is invisible to clients ...
            assert row["exactness"] == 1.0
        if scenario == "rebalancing":
            # ... and cuts the windowed imbalance of the static grid
            # (the 1M row, "rebalancing-1M", has no static twin).
            static = by_case[shards, "static"]["imbalance"]
            assert row["imbalance"] * 1.3 <= static


def _engine_cases(quick: bool) -> Iterable[Case]:
    commuters = {"moving_fraction": 0.01, "period": 200, "active_ticks": 20}
    base = WorkloadSpec(
        n_objects=2000, n_queries=16, k=8, query_speed=0, seed=42,
        mobility="mostly_stationary", mobility_options=commuters,
        ticks=60 if quick else 300, warmup_ticks=5,
    )  # fmt: skip
    sizes = (2000,) if quick else (5_000, 20_000, 100_000)
    for n in sizes:
        # Brute-force accuracy is O(N) per query per check; keep it on
        # at small N as a correctness spot check, off at the wall-clock
        # sizes so the timing compares loop overheads, not the checker.
        accuracy_every = 10 if n <= 5_000 else 0
        for mode in ("tick", "event"):
            config = RunConfig("DKNN-P", engine=EngineConfig(mode=mode))
            spec = base.but(n_objects=n)
            yield {"N": n, "mode": mode}, config, spec, accuracy_every


def _tick_vs_event(runs: Runs) -> List[Dict[str, object]]:
    """Each run against the tick-loop (and the event) run of the same N."""
    by_mode = {(labels["N"], labels["mode"]): m for labels, m in runs}
    cells = []
    for labels, m in runs:
        tick, event = (by_mode[labels["N"], mode] for mode in ("tick", "event"))
        speedup = round(tick.wall_seconds / max(m.wall_seconds, 1e-9), 2)
        match = event.msgs_per_tick == tick.msgs_per_tick
        cells.append({"speedup": speedup, "msgs_match": match})
    return cells


def _check_engine(table: ResultTable) -> None:
    for row in table.rows:
        # Event mode changes when work happens, never what is sent or
        # answered (unmeasured exactness reads 1.0 too) ...
        assert row["msgs_match"]
        assert row["exactness"] == 1.0
        # ... and on this workload it does skip.
        if row["mode"] == "event":
            assert row["skipped"] > 0


EXPERIMENTS: Dict[str, Sweep] = {
    "E1": Sweep(
        title="E1: communication vs N",
        about="communication vs population size",
        columns=("N",) + _COMM_COLUMNS,
        cases=_one_axis("N", _N_VALUES, lambda base, n: base.but(n_objects=n)),
        expect="""Messages per tick as the object population grows.
        Expected shape: centralized traffic ~= N (one report per object per
        tick); DKNN-B flat (density near queries is what matters); DKNN-P
        sublinear (dead-reckoning term scales with N, repairs do not).""",
    ),
    "E2": Sweep(
        about="communication vs k",
        columns=("k",) + _COMM_COLUMNS,
        cases=_one_axis(
            "k", ((2, 8), (1, 2, 4, 8, 16, 32)), lambda base, k: base.but(k=k)
        ),
        expect="""Messages per tick as the answer size k grows.
        Expected: centralized flat in k; distributed grows mildly (more bands,
        tighter gaps, larger collects).""",
    ),
    "E3": Sweep(
        about="communication vs object speed",
        columns=("v_obj",) + _COMM_COLUMNS,
        cases=_one_axis(
            "v_obj",
            ((25, 100), (10, 25, 50, 100, 200)),
            lambda base, v: base.but(speed_min=v * 0.5, speed_max=float(v)),
        ),
        expect="""Messages per tick as objects speed up (queries at default speed).
        Expected: centralized flat (they pay N regardless); distributed grows
        (more dead-reckoning updates, more band violations).""",
    ),
    "E4": Sweep(
        about="communication vs query speed",
        columns=("v_query",) + _COMM_COLUMNS,
        cases=_one_axis(
            "v_query",
            ((0, 50), (0, 10, 50, 100, 200)),
            lambda base, v: base.but(query_speed=float(v)),
        ),
        expect="""Messages per tick as the query focal objects speed up.
        Expected: distributed methods degrade with query speed (each query
        safe-circle exit forces a repair); centralized flat. The Vq=0 column
        shows the distributed methods at their best.""",
    ),
    "E5": Sweep(
        about="communication vs number of queries",
        columns=("Q",) + _COMM_COLUMNS,
        cases=_one_axis(
            "Q", ((1, 8), (1, 4, 16, 64)), lambda base, q: base.but(n_queries=q)
        ),
        expect="""Messages per tick as concurrent queries multiply.
        Expected: centralized flat in Q at the ~N level (the stream is shared);
        distributed linear in Q — the crossover between the two regimes is the
        core capacity trade-off of the paper.""",
    ),
    "E6": Sweep(
        title="E6: server cost vs N",
        about="server cost vs population size",
        columns=("N", "algorithm", "units/tick", "server_ms/tick", "exactness"),
        cases=_one_axis(
            "N", _N_VALUES, lambda base, n: base.but(n_objects=n), accuracy_every=20
        ),
        expect="""Server cost (abstract units and wall ms) as N grows.
        Expected: PER ~ N*Q distance units; SEA/CPM lower via dirty tracking
        (CPM <= SEA); the distributed servers touch only objects near queries,
        far below any centralized engine.""",
    ),
    "E7": Sweep(
        title="E7: message breakdown (defaults)",
        about="per-kind message breakdown",
        columns=("algorithm", "kind", "msgs/tick", "bytes/tick", "recv/tick"),
        cases=_defaults_cases,
        rows=_per_kind_rows,
        expect="""Per-kind message/byte breakdown at the default configuration.
        Expected: centralized traffic is all tick reports; DKNN-P splits into
        dead-reckoning updates, probes and installs; DKNN-B into collects,
        replies and broadcast installs. Broadcast receptions expose DKNN-B's
        hidden client-side cost.""",
    ),
    "E8": Sweep(
        title="E8: staleness (mean overlap with true answer)",
        about="staleness under sampling / latency",
        columns=("configuration", "msgs/tick", "exactness", "overlap"),
        cases=_staleness_cases,
        expect="""Answer quality when exactness is given up.
        Two ways to trade freshness for cost: PER with a re-evaluation period
        (sampling) and any protocol under one-tick message latency. Expected:
        overlap decays with the period; one-tick latency costs a few percent;
        zero-latency rows stay at 1.0.""",
    ),
    "E9": Sweep(
        title="E9: DKNN-P theta / s_cap ablation",
        about="theta and s_cap ablation",
        columns=(
            "theta", "s_cap", "msgs/tick", "uplink/tick", "downlink/tick",
            "exactness",
        ),  # fmt: skip
        cases=_theta_cases,
        expect="""DKNN-P sensitivity to theta and s_cap (design ablation).
        Expected: traffic is U-shaped in theta (tiny theta floods updates, huge
        theta floods probes) and improves then flattens in s_cap.""",
    ),
    "E10": Sweep(
        about="communication vs object distribution",
        columns=("mobility",) + _COMM_COLUMNS,
        cases=_one_axis(
            "mobility",
            (
                ("random_waypoint", "road_network"),
                ("random_waypoint", "random_direction", "gaussian_cluster",
                 "road_network"),
            ),  # fmt: skip
            lambda base, mobility: base.but(mobility=mobility),
        ),
        expect="""Communication under non-uniform motion models.
        Expected: skew (hotspots, road corridors) tightens kNN gaps near dense
        areas, so the distributed methods repair more often there; centralized
        traffic is distribution-independent.""",
    ),
    "E11": Sweep(
        about="grid granularity ablation",
        columns=("cells", "algorithm", "units/tick", "server_ms/tick", "msgs/tick"),
        cases=_one_axis(
            "cells",
            ((8, 32), (8, 16, 32, 64, 128)),
            params=lambda cells: {"grid_cells": cells},
            algorithms=("DKNN-P", "SEA", "CPM"),
            accuracy_every=20,
        ),
        expect="""Index-granularity ablation for the grid-based servers.
        Expected: server units are U-shaped in cells-per-side (too coarse scans
        too many objects per cell; too fine walks too many cells);
        communication is unaffected.""",
    ),
    "E12": Sweep(
        title="E12: client wake-ups, broadcast vs geocast",
        about="client wake-ups: broadcast vs geocast",
        columns=(
            "configuration", "msgs/tick", "recv/tick", "bcast+geo/tick",
            "exactness",
        ),  # fmt: skip
        cases=_wakeup_cases,
        expect="""Client-side radio wake-ups: the hidden cost of broadcasting.
        DKNN-B wakes every radio on every collect/install; DKNN-G scopes both
        to coverage circles at the price of periodic lease renewals. Sweeps the
        lease to expose the renewal/coverage trade-off. Expected: DKNN-G
        receptions are a small fraction of DKNN-B's and rise slowly with the
        lease (wider coverage circles), while message counts stay comparable.""",
    ),
    "E13": Sweep(
        title="E13: DKNN-P light-repair ablation",
        about="incremental (light) repair ablation",
        columns=(
            "v_query", "incremental", "msgs/tick", "units/tick",
            "light/full repairs", "exactness",
        ),  # fmt: skip
        cases=_light_repair_cases,
        rename={"light/full repairs": "light_ratio"},
        expect="""DKNN-P with and without light repairs, across query speeds.
        A light repair swaps one entrant against the current answer with a
        handful of messages; it applies when the anchor holds (no query circle
        exit). Expected: large message/server savings for static and slow
        queries, shrinking as query speed forces full re-anchoring repairs.""",
    ),
    "E14": Sweep(
        title="E14: robustness under faults",
        about="robustness under network faults",
        columns=(
            "fault", "configuration", "msgs/tick", "retransmits/tick",
            "dropped/tick", "exactness", "overlap", "degraded_frac",
            "healthy_exactness",
        ),  # fmt: skip
        cases=_fault_cases,
        check=_check_faults,
        expect="""Accuracy and traffic under lossy channels and node crashes.
        Sweeps the per-message drop rate, then a crash fraction, comparing
        hardened DKNN-P (acks, leases, retransmits) against plain DKNN-P and
        the PER baseline on identical fault plans. Expected: plain DKNN-P falls
        off a cliff with loss (one lost repair message can strand a query until
        an unrelated event heals it); hardened DKNN-P degrades gracefully at a
        modest retransmit premium and its ``healthy`` annotation stays honest;
        PER degrades linearly (each lost report only stales one object by one
        period). The drop=0 rows double as a bit-identity check: the fault
        layer adds zero traffic.""",
    ),
    "E15": Sweep(
        about="sharded server tier vs shard count",
        columns=(
            "mobility", "S", "algorithm", "msgs/tick", "s2s/tick", "s2s_share",
            "handoffs/tick", "forwards/tick", "borrows/tick", "imbalance",
            "exactness",
        ),  # fmt: skip
        cases=_sharding_cases,
        rename={"imbalance": "shard_imbalance"},
        check=_check_sharding,
        expect="""Sharded-tier sweep over the shard grid size S.
        For S in {1, 2, 4} (S x S shards) under uniform and hotspot mobility,
        reports the distributed-execution ledger of the tier: per-shard load
        imbalance (peak/mean uplinks), handoff and forward rates, and the
        backbone's share of all traffic. The radio columns are invariant in S
        by construction (answers and client traffic are bit-identical to the
        single server, see DESIGN.md §10) — the sweep shows what the
        *distribution* costs, and how workload skew moves it.""",
    ),
    "E16": Sweep(
        about="shard-tier fault tolerance at scale",
        columns=(
            "S", "scenario", "failovers", "taken_over", "recovery_ticks",
            "replica_lag", "degraded_frac", "exactness", "healthy_exactness",
            "repl_share", "shed/tick", "s2s/tick",
        ),  # fmt: skip
        cases=_shard_fault_cases,
        check=_check_shard_faults,
        expect="""Robustness at scale: the sharded tier under server-side faults.
        For S in {2, 4, 8} under hotspot drift (the mobility that loads shards
        unevenly), runs hardened DKNN-P through three server-side fault
        scenarios on top of a lossy backbone:

        * ``healthy`` — the disabled-plan control row (also the bit-identity
          anchor: identical to a plain sharded run);
        * ``crash`` — a staggered schedule crashes one shard per quarter of the
          measured window, restarting each after ~10 ticks, so the buddy
          takeover, replica replay, and restore hand-back all fire;
        * ``crash+partition`` — the same crashes plus backbone partitions
          between buddy pairs (false-suspicion failovers) and admission control
          sheding repair uplinks at a per-shard threshold.

        Reported: recovery latency (mean ticks from failover/shed to
        re-publish), degraded-answer fraction as `AccuracyTracker` saw it,
        replica staleness at takeover, the replication+heartbeat share of
        backbone bytes, and shed/lost traffic rates. Expected: recovery latency
        bounded by the FT lease machinery; the degraded fraction is large while
        crashes are scheduled — the tier-wide suspicion horizon flags *every*
        query while any home cell is blind to uplinks, plus a settle window
        after — and in exchange ``healthy_exactness`` is exactly 1.0 whenever
        any healthy ticks remain (the annotation is honest, never merely
        optimistic); replication overhead a modest slice of an already-small
        backbone share.""",
    ),
    "E17": Sweep(
        about="durable recovery vs checkpoint cadence",
        columns=(
            "ckpt_interval", "checkpoints", "wal_bytes/tick", "replayed",
            "cold_restarts", "recovered_q", "amnesia_q", "recovery_ticks",
            "degraded_frac", "exactness", "healthy_exactness",
        ),  # fmt: skip
        cases=_durability_cases,
        check=_check_durability,
        expect="""Durable shard state: recovery quality vs checkpoint cadence.
        The failure schedule is built to defeat buddy coverage, the only
        recovery path PR6 had: a *correlated* crash of shards 0 and 1 — shard
        0's replication buddy is shard 1, so when both die together shard 0
        restarts cold with no live replica — followed later by a whole-tier
        restart (every shard down at once, nothing covered). Under that
        schedule, hardened DKNN-P at S=2 runs once per checkpoint cadence of
        the per-cell durable store:

        * ``none`` — no store: uncovered cold restarts take the amnesia path
          (ownership and home rows dropped, queries re-bootstrapped from the
          next focal report through the degraded channel);
        * intervals 2..20 — checkpoint every N ticks plus a WAL of
          protocol-critical mutations between checkpoints, replayed at a
          bounded ``wal_replay_per_tick`` rate on remount, so recovery cost
          shows up as replay ticks instead of lost state.

        Expected: with the store, ``amnesia_q`` is zero and every query
        survives the correlated crash (``recovered_q`` > 0) at any cadence —
        durability changes *how long* recovery takes, not *whether* state
        survives; sparser checkpoints shift bytes from checkpoint writes into
        WAL replay and lengthen the degraded window; ``healthy_exactness``
        stays at 1.0 throughout (recovery lag is always accounted through the
        degraded channel).""",
    ),
    "E18": Sweep(
        about="elastic rebalancing under drifting hotspots",
        columns=(
            "N", "S", "scenario", "imbalance", "imb_peak", "rebalances",
            "cells_moved", "rehomed", "handoffs/tick", "deferred/tick",
            "degraded_frac", "exactness", "healthy_exactness",
        ),  # fmt: skip
        cases=_rebalancing_cases,
        rename={"imbalance": "imbalance_windowed", "imb_peak": "imbalance_peak"},
        check=_check_rebalancing,
        expect="""Elastic rebalancing vs a static grid under drifting hotspots.
        The stressor is ``hotspot_drift``: dense Gaussian hotspots whose
        centers orbit, dragging the crowd across shard boundaries, so the hot
        shard *changes* over the run. A static S x S grid rides the skew
        wherever it goes; the rebalancer watches per-cell windowed uplink
        counts and migrates fine cells hot -> cold through the
        ownership-transfer protocol (WAL-fenced home moves + query handoffs,
        DESIGN.md §14).

        For S in {4, 16, 64} shards (grid sides 2, 4, 8), three scenarios per
        side:

        * ``static`` — the PR7 tier unchanged (control; also the bit-identity
          anchor — the rebalancer is config-gated off);
        * ``rebalancing`` — a :class:`RebalancePolicy` migrating up to a few
          cells per cycle;
        * ``rebalance+admission`` — the same policy plus per-shard
          :class:`AdmissionPolicy` backpressure (defer over shed), with
          hardened DKNN-P so deferred protocol replies are retried; the
          degraded channel keeps ``healthy_exactness`` honest.

        Reported: windowed load imbalance (mean and peak of the per-cycle
        max/mean per-shard uplink ratio — the whole-run ratio understates a
        *moving* skew, each shard gets its turn), migration volume, and the
        accuracy ledger. Expected: imbalance drops by >= 2x at S=16 with
        exactness untouched (rebalancing is invisible to clients); admission
        trades a bounded degraded window for a load ceiling. The final row is
        the scale pin: N=1,000,000 objects through the rebalancing tier.""",
    ),
    "E19": Sweep(
        about="event-scheduled engine vs tick loop",
        columns=(
            "N", "mode", "wall_s", "ms/tick", "skipped", "full", "speedup",
            "msgs/tick", "msgs_match", "exactness",
        ),  # fmt: skip
        cases=_engine_cases,
        rename={"skipped": "skipped_ticks", "full": "full_ticks"},
        across=_tick_vs_event,
        check=_check_engine,
        expect="""Event-scheduled engine vs the synchronous tick loop (E19).
        The stressor is the engine's home turf: a ``mostly_stationary`` fleet
        (1% of objects commuting on a 10% duty cycle) with static queries, so
        most ticks are provable protocol no-ops. For each N, the same workload
        runs twice — once under the plain tick loop, once under
        ``EngineConfig(mode="event")`` — and the table reports both walls, the
        skip ledger, and the equivalence pin (``msgs_match``: per-tick message
        rates must agree exactly; the answer-level pin is
        tests/test_engine.py).

        Expected: speedup grows with N (the skipped O(N) client phase is what's
        saved) and clears 2x at N=100k; ``event_sparse`` in ``BENCHMARK.json``
        is the wall-clock guard at N=200k.""",
    ),
}


def run_experiment(name: str, quick: bool = False) -> ResultTable:
    """Run one registered experiment by id (e.g. ``"E1"``)."""
    key = name.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; expected one of "
            f"{sorted(EXPERIMENTS)}"
        )
    sweep = EXPERIMENTS[key]
    runs = [
        (labels, run_once(config, spec, accuracy_every=accuracy_every))
        for labels, config, spec, accuracy_every in sweep.cases(quick)
    ]
    paired = sweep.across(runs) if sweep.across else [{}] * len(runs)
    title = sweep.title or f"{key}: {sweep.about}"
    table = ResultTable(title, sweep.columns)
    for (labels, m), more in zip(runs, paired):
        measured = m.as_row()
        measured.update({col: measured[k] for col, k in sweep.rename.items()})
        cells = {**measured, **labels, **more}
        for own in sweep.rows(m) if sweep.rows else ({},):
            row = {**cells, **own}
            table.add_row({col: row[col] for col in sweep.columns})
    return table


def render_index() -> str:
    """DESIGN.md §4's experiment index, rendered from ``EXPERIMENTS``.

    Axis values and algorithms are read off the full-size cases, so the
    table cannot list a value the code does not run.
    """
    lines = ["| Exp | what | axis values (full) | algorithms |", "|---|---|---|---|"]
    for key, sweep in EXPERIMENTS.items():
        axes: Dict[str, dict] = {}
        algorithms: Dict[str, None] = {}
        for labels, config, _, _ in sweep.cases(False):
            algorithms[config.algorithm] = None
            for axis, value in labels.items():
                if axis != "algorithm":
                    axes.setdefault(axis, {})[value] = None
        values = "; ".join(
            f"{axis} = {', '.join(map(str, seen))}" for axis, seen in axes.items()
        )
        who = "all six" if len(algorithms) == len(_ALL) else ", ".join(algorithms)
        lines.append(f"| {key} | {sweep.about} | {values or '—'} | {who} |")
    return "\n".join(lines)
