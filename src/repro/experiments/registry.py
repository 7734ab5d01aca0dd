"""The experiment registry: one entry per reproduced table/figure.

Each experiment function takes ``quick`` (small sizes, for tests and
benchmark smoke runs) and returns a :class:`ResultTable` whose rows are
the series the paper-era figure plots. DESIGN.md §4 maps experiment ids
to their paper analogues and states the expected shapes; EXPERIMENTS.md
records the measured outcomes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.experiments.config import RunConfig
from repro.experiments.runner import Measurement, run_once
from repro.experiments.tables import ResultTable
from repro.net.engine import EngineConfig, ReplayConfig
from repro.net.faults import FaultPlan, ShardFaultPlan
from repro.net.simulator import ONE_TICK_LATENCY, ZERO_LATENCY
from repro.server.config import AdmissionPolicy, RebalancePolicy, ShardConfig
from repro.workloads.spec import WorkloadSpec

__all__ = ["EXPERIMENTS", "run_experiment", "DEFAULT_SPEC", "QUICK_SPEC"]

#: Steady-state defaults (DESIGN.md §4), scaled to pure-Python runtime.
DEFAULT_SPEC = WorkloadSpec(
    n_objects=2000,
    n_queries=16,
    k=8,
    ticks=120,
    warmup_ticks=10,
    seed=42,
)

#: Shrunk sizes for test/benchmark smoke runs of the same code paths.
QUICK_SPEC = WorkloadSpec(
    n_objects=300,
    n_queries=4,
    k=4,
    ticks=40,
    warmup_ticks=5,
    seed=42,
)

_ALL = ("DKNN-B", "DKNN-G", "DKNN-P", "PER", "SEA", "CPM")

_COMM_COLUMNS = (
    "algorithm",
    "msgs/tick",
    "uplink/tick",
    "downlink/tick",
    "bcast/tick",
    "bytes/tick",
    "exactness",
)


def _base(quick: bool) -> WorkloadSpec:
    return QUICK_SPEC if quick else DEFAULT_SPEC


def _comm_rows(
    table: ResultTable,
    axis: str,
    value,
    spec: WorkloadSpec,
    algorithms: Iterable[str] = _ALL,
    accuracy_every: int = 10,
    alg_params: Optional[Dict[str, Dict]] = None,
) -> List[Measurement]:
    out = []
    for name in algorithms:
        params = (alg_params or {}).get(name, {})
        m = run_once(
            RunConfig(name, params=params),
            spec,
            accuracy_every=accuracy_every,
        )
        table.add_row(
            {
                axis: value,
                "algorithm": name,
                "msgs/tick": m.msgs_per_tick,
                "uplink/tick": m.uplink_per_tick,
                "downlink/tick": m.downlink_per_tick,
                "bcast/tick": m.broadcast_per_tick,
                "bytes/tick": m.bytes_per_tick,
                "exactness": m.exactness,
            }
        )
        out.append(m)
    return out


# -- E1: communication vs population size ---------------------------------


def e1_comm_vs_n(quick: bool = False) -> ResultTable:
    """Messages per tick as the object population grows.

    Expected shape: centralized traffic ~= N (one report per object per
    tick); DKNN-B flat (density near queries is what matters); DKNN-P
    sublinear (dead-reckoning term scales with N, repairs do not).
    """
    base = _base(quick)
    ns = (200, 400) if quick else (500, 1000, 2000, 4000)
    table = ResultTable("E1: communication vs N", ("N",) + _COMM_COLUMNS)
    for n in ns:
        _comm_rows(table, "N", n, base.but(n_objects=n))
    return table


# -- E2: communication vs k -------------------------------------------------


def e2_comm_vs_k(quick: bool = False) -> ResultTable:
    """Messages per tick as the answer size k grows.

    Expected: centralized flat in k; distributed grows mildly (more
    bands, tighter gaps, larger collects).
    """
    base = _base(quick)
    ks = (2, 8) if quick else (1, 2, 4, 8, 16, 32)
    table = ResultTable("E2: communication vs k", ("k",) + _COMM_COLUMNS)
    for k in ks:
        _comm_rows(table, "k", k, base.but(k=k))
    return table


# -- E3: communication vs object speed ---------------------------------------


def e3_comm_vs_speed(quick: bool = False) -> ResultTable:
    """Messages per tick as objects speed up (queries at default speed).

    Expected: centralized flat (they pay N regardless); distributed
    grows (more dead-reckoning updates, more band violations).
    """
    base = _base(quick)
    speeds = (25, 100) if quick else (10, 25, 50, 100, 200)
    table = ResultTable(
        "E3: communication vs object speed", ("v_obj",) + _COMM_COLUMNS
    )
    for v in speeds:
        spec = base.but(speed_min=v * 0.5, speed_max=float(v))
        _comm_rows(table, "v_obj", v, spec)
    return table


# -- E4: communication vs query speed -----------------------------------------


def e4_comm_vs_query_speed(quick: bool = False) -> ResultTable:
    """Messages per tick as the query focal objects speed up.

    Expected: distributed methods degrade with query speed (each query
    safe-circle exit forces a repair); centralized flat. The Vq=0
    column shows the distributed methods at their best.
    """
    base = _base(quick)
    speeds = (0, 50) if quick else (0, 10, 50, 100, 200)
    table = ResultTable(
        "E4: communication vs query speed", ("v_query",) + _COMM_COLUMNS
    )
    for v in speeds:
        _comm_rows(table, "v_query", v, base.but(query_speed=float(v)))
    return table


# -- E5: communication vs number of queries -----------------------------------


def e5_comm_vs_queries(quick: bool = False) -> ResultTable:
    """Messages per tick as concurrent queries multiply.

    Expected: centralized flat in Q at the ~N level (the stream is
    shared); distributed linear in Q — the crossover between the two
    regimes is the core capacity trade-off of the paper.
    """
    base = _base(quick)
    qs = (1, 8) if quick else (1, 4, 16, 64)
    table = ResultTable(
        "E5: communication vs number of queries", ("Q",) + _COMM_COLUMNS
    )
    for q in qs:
        _comm_rows(table, "Q", q, base.but(n_queries=q))
    return table


# -- E6: server cost vs population --------------------------------------------


def e6_server_cost_vs_n(quick: bool = False) -> ResultTable:
    """Server cost (abstract units and wall ms) as N grows.

    Expected: PER ~ N*Q distance units; SEA/CPM lower via dirty
    tracking (CPM <= SEA); the distributed servers touch only objects
    near queries, far below any centralized engine.
    """
    base = _base(quick)
    ns = (200, 400) if quick else (500, 1000, 2000, 4000)
    table = ResultTable(
        "E6: server cost vs N",
        ("N", "algorithm", "units/tick", "server_ms/tick", "exactness"),
    )
    for n in ns:
        for name in _ALL:
            m = run_once(
                RunConfig(name), base.but(n_objects=n), accuracy_every=20
            )
            table.add_row(
                {
                    "N": n,
                    "algorithm": name,
                    "units/tick": m.units_per_tick,
                    "server_ms/tick": m.server_ms_per_tick,
                    "exactness": m.exactness,
                }
            )
    return table


# -- E7: message breakdown table -----------------------------------------------


def e7_message_breakdown(quick: bool = False) -> ResultTable:
    """Per-kind message/byte breakdown at the default configuration.

    Expected: centralized traffic is all tick reports; DKNN-P splits
    into dead-reckoning updates, probes and installs; DKNN-B into
    collects, replies and broadcast installs. Broadcast receptions
    expose DKNN-B's hidden client-side cost.
    """
    spec = _base(quick)
    table = ResultTable(
        "E7: message breakdown (defaults)",
        ("algorithm", "kind", "msgs/tick", "bytes/tick", "recv/tick"),
    )
    for name in _ALL:
        m = run_once(RunConfig(name), spec, accuracy_every=20)
        for kind in sorted(m.per_kind_msgs):
            table.add_row(
                {
                    "algorithm": name,
                    "kind": kind,
                    "msgs/tick": m.per_kind_msgs[kind],
                    "bytes/tick": m.per_kind_bytes[kind],
                }
            )
        table.add_row(
            {
                "algorithm": name,
                "kind": "TOTAL",
                "msgs/tick": m.msgs_per_tick,
                "bytes/tick": m.bytes_per_tick,
                "recv/tick": m.receptions_per_tick,
            }
        )
    return table


# -- E8: staleness under delay / sampling ---------------------------------------


def e8_staleness(quick: bool = False) -> ResultTable:
    """Answer quality when exactness is given up.

    Two ways to trade freshness for cost: PER with a re-evaluation
    period (sampling) and any protocol under one-tick message latency.
    Expected: overlap decays with the period; one-tick latency costs a
    few percent; zero-latency rows stay at 1.0.
    """
    base = _base(quick).but(n_objects=200 if quick else 1000)
    table = ResultTable(
        "E8: staleness (mean overlap with true answer)",
        ("configuration", "msgs/tick", "exactness", "overlap"),
    )
    periods = (1, 5) if quick else (1, 2, 5, 10, 20)
    for period in periods:
        m = run_once(
            RunConfig("PER", params={"period": period}),
            base,
            accuracy_every=2,
        )
        table.add_row(
            {
                "configuration": f"PER period={period}",
                "msgs/tick": m.msgs_per_tick,
                "exactness": m.exactness,
                "overlap": m.mean_overlap,
            }
        )
    for name in ("DKNN-P", "DKNN-B"):
        for latency, label in (
            (ZERO_LATENCY, "zero-latency"),
            (ONE_TICK_LATENCY, "1-tick latency"),
        ):
            m = run_once(
                RunConfig(name, latency=latency), base, accuracy_every=2
            )
            table.add_row(
                {
                    "configuration": f"{name} {label}",
                    "msgs/tick": m.msgs_per_tick,
                    "exactness": m.exactness,
                    "overlap": m.mean_overlap,
                }
            )
    return table


# -- E9: dead-reckoning / safe-margin ablation -----------------------------------


def e9_theta_ablation(quick: bool = False) -> ResultTable:
    """DKNN-P sensitivity to theta and s_cap (design ablation).

    Expected: traffic is U-shaped in theta (tiny theta floods updates,
    huge theta floods probes) and improves then flattens in s_cap.
    """
    base = _base(quick)
    table = ResultTable(
        "E9: DKNN-P theta / s_cap ablation",
        (
            "theta",
            "s_cap",
            "msgs/tick",
            "uplink/tick",
            "downlink/tick",
            "exactness",
        ),
    )
    thetas = (50, 200) if quick else (25, 50, 100, 200, 400)
    for theta in thetas:
        m = run_once(
            RunConfig(
                "DKNN-P", params={"theta": float(theta), "s_cap": 50.0}
            ),
            base,
            accuracy_every=10,
        )
        table.add_row(
            {
                "theta": theta,
                "s_cap": 50,
                "msgs/tick": m.msgs_per_tick,
                "uplink/tick": m.uplink_per_tick,
                "downlink/tick": m.downlink_per_tick,
                "exactness": m.exactness,
            }
        )
    s_caps = (10, 100) if quick else (0, 10, 50, 100, 200)
    for s_cap in s_caps:
        m = run_once(
            RunConfig(
                "DKNN-P", params={"theta": 100.0, "s_cap": float(s_cap)}
            ),
            base,
            accuracy_every=10,
        )
        table.add_row(
            {
                "theta": 100,
                "s_cap": s_cap,
                "msgs/tick": m.msgs_per_tick,
                "uplink/tick": m.uplink_per_tick,
                "downlink/tick": m.downlink_per_tick,
                "exactness": m.exactness,
            }
        )
    return table


# -- E10: skewed object distributions ----------------------------------------------


def e10_skew(quick: bool = False) -> ResultTable:
    """Communication under non-uniform motion models.

    Expected: skew (hotspots, road corridors) tightens kNN gaps near
    dense areas, so the distributed methods repair more often there;
    centralized traffic is distribution-independent.
    """
    base = _base(quick)
    mobilities = (
        ("random_waypoint", "road_network")
        if quick
        else (
            "random_waypoint",
            "random_direction",
            "gaussian_cluster",
            "road_network",
        )
    )
    table = ResultTable(
        "E10: communication vs object distribution",
        ("mobility",) + _COMM_COLUMNS,
    )
    for mobility in mobilities:
        _comm_rows(
            table, "mobility", mobility, base.but(mobility=mobility)
        )
    return table


# -- E11: server grid granularity ablation ----------------------------------------


def e11_grid_ablation(quick: bool = False) -> ResultTable:
    """Index-granularity ablation for the grid-based servers.

    Expected: server units are U-shaped in cells-per-side (too coarse
    scans too many objects per cell; too fine walks too many cells);
    communication is unaffected.
    """
    base = _base(quick)
    cell_counts = (8, 32) if quick else (8, 16, 32, 64, 128)
    table = ResultTable(
        "E11: grid granularity ablation",
        ("cells", "algorithm", "units/tick", "server_ms/tick", "msgs/tick"),
    )
    for cells in cell_counts:
        for name in ("DKNN-P", "SEA", "CPM"):
            m = run_once(
                RunConfig(name, params={"grid_cells": cells}),
                base,
                accuracy_every=20,
            )
            table.add_row(
                {
                    "cells": cells,
                    "algorithm": name,
                    "units/tick": m.units_per_tick,
                    "server_ms/tick": m.server_ms_per_tick,
                    "msgs/tick": m.msgs_per_tick,
                }
            )
    return table


# -- E12: client wake-ups — broadcast vs geocast (extension) --------------------


def e12_wakeups(quick: bool = False) -> ResultTable:
    """Client-side radio wake-ups: the hidden cost of broadcasting.

    DKNN-B wakes every radio on every collect/install; DKNN-G scopes
    both to coverage circles at the price of periodic lease renewals.
    Sweeps the lease to expose the renewal/coverage trade-off.
    Expected: DKNN-G receptions are a small fraction of DKNN-B's and
    rise slowly with the lease (wider coverage circles), while message
    counts stay comparable.
    """
    base = _base(quick)
    table = ResultTable(
        "E12: client wake-ups, broadcast vs geocast",
        (
            "configuration",
            "msgs/tick",
            "recv/tick",
            "bcast+geo/tick",
            "exactness",
        ),
    )
    m = run_once(RunConfig("DKNN-B"), base, accuracy_every=10)
    table.add_row(
        {
            "configuration": "DKNN-B (global broadcast)",
            "msgs/tick": m.msgs_per_tick,
            "recv/tick": m.receptions_per_tick,
            "bcast+geo/tick": m.broadcast_per_tick + m.geocast_per_tick,
            "exactness": m.exactness,
        }
    )
    leases = (5, 20) if quick else (2, 5, 10, 20, 40)
    for lease in leases:
        m = run_once(
            RunConfig("DKNN-G", params={"lease_ticks": lease}),
            base,
            accuracy_every=10,
        )
        table.add_row(
            {
                "configuration": f"DKNN-G lease={lease}",
                "msgs/tick": m.msgs_per_tick,
                "recv/tick": m.receptions_per_tick,
                "bcast+geo/tick": m.broadcast_per_tick + m.geocast_per_tick,
                "exactness": m.exactness,
            }
        )
    return table


# -- E13: incremental (light) repair ablation ------------------------------------


def e13_light_repairs(quick: bool = False) -> ResultTable:
    """DKNN-P with and without light repairs, across query speeds.

    A light repair swaps one entrant against the current answer with a
    handful of messages; it applies when the anchor holds (no query
    circle exit). Expected: large message/server savings for static
    and slow queries, shrinking as query speed forces full re-anchoring
    repairs.
    """
    base = _base(quick)
    table = ResultTable(
        "E13: DKNN-P light-repair ablation",
        (
            "v_query",
            "incremental",
            "msgs/tick",
            "units/tick",
            "light/full repairs",
            "exactness",
        ),
    )
    speeds = (0, 50) if quick else (0, 10, 50, 150)
    for v in speeds:
        spec = base.but(query_speed=float(v))
        for incremental in (False, True):
            m = run_once(
                RunConfig("DKNN-P", params={"incremental": incremental}),
                spec,
                accuracy_every=10,
            )
            table.add_row(
                {
                    "v_query": v,
                    "incremental": incremental,
                    "msgs/tick": m.msgs_per_tick,
                    "units/tick": m.units_per_tick,
                    "light/full repairs": m.extra.get("light_ratio", ""),
                    "exactness": m.exactness,
                }
            )
    return table


# -- E14: robustness under network faults (extension) ---------------------------


def e14_faults(quick: bool = False) -> ResultTable:
    """Accuracy and traffic under lossy channels and node crashes.

    Sweeps the per-message drop rate, then a crash fraction, comparing
    hardened DKNN-P (acks, leases, retransmits) against plain DKNN-P
    and the PER baseline on identical fault plans. Expected: plain
    DKNN-P falls off a cliff with loss (one lost repair message can
    strand a query until an unrelated event heals it); hardened DKNN-P
    degrades gracefully at a modest retransmit premium and its
    ``healthy`` annotation stays honest; PER degrades linearly (each
    lost report only stales one object by one period). The drop=0 rows
    double as a bit-identity check: the fault layer adds zero traffic.
    """
    base = _base(quick).but(
        n_objects=200 if quick else 1000, seed=97
    )
    ft_params = {
        "fault_tolerant": True,
        "ack_timeout": 2,
        "lease_ticks": 8,
        "violation_retry": 2,
    }
    configs = (
        ("DKNN-P/FT", "DKNN-P", ft_params),
        ("DKNN-P", "DKNN-P", {}),
        ("PER", "PER", {}),
    )
    table = ResultTable(
        "E14: robustness under faults",
        (
            "fault",
            "configuration",
            "msgs/tick",
            "retransmits/tick",
            "dropped/tick",
            "exactness",
            "overlap",
            "degraded_frac",
            "healthy_exactness",
        ),
    )

    def row(fault_label, label, m):
        table.add_row(
            {
                "fault": fault_label,
                "configuration": label,
                "msgs/tick": m.msgs_per_tick,
                "retransmits/tick": m.extra.get("retransmits/tick", 0.0),
                "dropped/tick": m.extra.get("dropped/tick", 0.0),
                "exactness": m.exactness,
                "overlap": m.mean_overlap,
                "degraded_frac": m.extra.get("degraded_frac", 0.0),
                "healthy_exactness": m.extra.get("healthy_exactness", ""),
            }
        )

    drop_rates = (0.0, 0.05, 0.2) if quick else (0.0, 0.01, 0.05, 0.1, 0.2)
    for drop in drop_rates:
        plan = (
            None
            if drop == 0.0
            else FaultPlan(
                seed=7, drop_uplink=drop, drop_downlink=drop
            )
        )
        for label, name, params in configs:
            m = run_once(
                RunConfig(name, faults=plan, params=dict(params)),
                base,
                accuracy_every=2,
            )
            row(f"drop={drop:g}", label, m)
    crash_fracs = (0.05,) if quick else (0.02, 0.1)
    for frac in crash_fracs:
        n_crash = max(1, int(base.n_objects * frac))
        # Crash the first objects (ids are uniform in space, so which
        # ids die is immaterial); stagger the crash ticks across the
        # measured window.
        t0, t1 = base.warmup_ticks + 2, base.ticks - 10
        crashes = [
            (oid, t0 + (oid * max(1, (t1 - t0) // n_crash)) % max(1, t1 - t0))
            for oid in range(n_crash)
        ]
        plan = FaultPlan(seed=11, crashes=crashes)
        for label, name, params in configs:
            m = run_once(
                RunConfig(name, faults=plan, params=dict(params)),
                base,
                accuracy_every=2,
            )
            row(f"crash={frac:g}", label, m)
    return table


def e15_sharding(quick: bool = False) -> ResultTable:
    """Sharded-tier sweep over the shard grid size S.

    For S in {1, 2, 4} (S x S shards) under uniform and hotspot
    mobility, reports the distributed-execution ledger of the tier:
    per-shard load imbalance (peak/mean uplinks), handoff and forward
    rates, and the backbone's share of all traffic. The radio columns
    are invariant in S by construction (answers and client traffic are
    bit-identical to the single server, see DESIGN.md §10) — the sweep
    shows what the *distribution* costs, and how workload skew moves it.
    """
    base = _base(quick)
    shard_sides = (1, 2) if quick else (1, 2, 4)
    algorithms = ("DKNN-P", "DKNN-B") if quick else ("DKNN-P", "DKNN-B", "DKNN-G")
    table = ResultTable(
        "E15: sharded server tier vs shard count",
        (
            "mobility",
            "S",
            "algorithm",
            "msgs/tick",
            "s2s/tick",
            "s2s_share",
            "handoffs/tick",
            "forwards/tick",
            "borrows/tick",
            "imbalance",
            "exactness",
        ),
    )
    for mobility in ("random_waypoint", "hotspot"):
        spec = base.but(mobility=mobility)
        for side in shard_sides:
            for name in algorithms:
                m = run_once(
                    RunConfig(name, shard=ShardConfig(shards=side)),
                    spec,
                    accuracy_every=10,
                )
                table.add_row(
                    {
                        "mobility": mobility,
                        "S": side,
                        "algorithm": name,
                        "msgs/tick": m.msgs_per_tick,
                        "s2s/tick": m.extra.get("s2s/tick", 0.0),
                        "s2s_share": m.extra.get("s2s_share", 0.0),
                        "handoffs/tick": m.extra.get("handoffs/tick", 0.0),
                        "forwards/tick": m.extra.get("forwards/tick", 0.0),
                        "borrows/tick": m.extra.get("borrows/tick", 0.0),
                        "imbalance": m.extra.get("shard_imbalance", 1.0),
                        "exactness": m.exactness,
                    }
                )
    return table


def e16_shard_faults(quick: bool = False) -> ResultTable:
    """Robustness at scale: the sharded tier under server-side faults.

    For S in {2, 4, 8} under hotspot drift (the mobility that loads
    shards unevenly), runs hardened DKNN-P through three server-side
    fault scenarios on top of a lossy backbone:

    * ``healthy`` — the disabled-plan control row (also the
      bit-identity anchor: identical to a plain sharded run);
    * ``crash`` — a staggered schedule crashes one shard per quarter
      of the measured window, restarting each after ~10 ticks, so the
      buddy takeover, replica replay, and restore hand-back all fire;
    * ``crash+partition`` — the same crashes plus backbone partitions
      between buddy pairs (false-suspicion failovers) and admission
      control sheding repair uplinks at a per-shard threshold.

    Reported: recovery latency (mean ticks from failover/shed to
    re-publish), degraded-answer fraction as `AccuracyTracker` saw it,
    replica staleness at takeover, the replication+heartbeat share of
    backbone bytes, and shed/lost traffic rates. Expected: recovery
    latency bounded by the FT lease machinery; the degraded fraction
    is large while crashes are scheduled — the tier-wide suspicion
    horizon flags *every* query while any home cell is blind to
    uplinks, plus a settle window after — and in exchange
    ``healthy_exactness`` is exactly 1.0 whenever any healthy ticks
    remain (the annotation is honest, never merely optimistic);
    replication overhead a modest slice of an already-small backbone
    share.
    """
    base = _base(quick).but(
        mobility="hotspot", seed=101, n_objects=300 if quick else 1200
    )
    ft_params = {
        "fault_tolerant": True,
        "ack_timeout": 2,
        "lease_ticks": 8,
        "violation_retry": 2,
    }
    shard_sides = (2,) if quick else (2, 4, 8)
    table = ResultTable(
        "E16: shard-tier fault tolerance at scale",
        (
            "S",
            "scenario",
            "failovers",
            "taken_over",
            "recovery_ticks",
            "replica_lag",
            "degraded_frac",
            "exactness",
            "healthy_exactness",
            "repl_share",
            "shed/tick",
            "s2s/tick",
        ),
    )

    def crash_schedule(n_shards: int) -> tuple:
        # One crash per quarter of the measured window, round-robin
        # over the shards, each down for ~10 ticks (restart covered).
        t0, t1 = base.warmup_ticks + 4, base.ticks - 12
        span = max(1, (t1 - t0) // 4)
        return tuple(
            (i % n_shards, t0 + i * span, t0 + i * span + 10)
            for i in range(4)
            if t0 + i * span + 10 < base.ticks
        )

    for side in shard_sides:
        n_shards = side * side
        crashes = crash_schedule(n_shards)
        pt0 = base.warmup_ticks + 8
        scenarios = (
            ("healthy", None),
            ("crash", ShardFaultPlan(seed=19, crashes=crashes)),
            (
                "crash+partition",
                ShardFaultPlan(
                    seed=19,
                    link_drop=0.02,
                    crashes=crashes,
                    partitions=(
                        (0, 1 % n_shards, pt0, pt0 + 8),
                        (
                            n_shards - 1,
                            0,
                            pt0 + 12,
                            pt0 + 20,
                        ),
                    ),
                    shed_uplinks_per_tick=40 if quick else 120,
                ),
            ),
        )
        for label, plan in scenarios:
            m = run_once(
                RunConfig(
                    "DKNN-P",
                    shard=ShardConfig(shards=side, faults=plan),
                    params=dict(ft_params),
                ),
                base,
                accuracy_every=2,
            )
            table.add_row(
                {
                    "S": side,
                    "scenario": label,
                    "failovers": m.extra.get("failovers", 0),
                    "taken_over": m.extra.get("taken_over", 0),
                    "recovery_ticks": m.extra.get("recovery_ticks", 0.0),
                    "replica_lag": m.extra.get("replica_lag", 0.0),
                    "degraded_frac": m.extra.get("degraded_frac", 0.0),
                    "exactness": m.exactness,
                    "healthy_exactness": m.extra.get(
                        "healthy_exactness", ""
                    ),
                    "repl_share": m.extra.get("repl_share", 0.0),
                    "shed/tick": m.extra.get("shed/tick", 0.0),
                    "s2s/tick": m.extra.get("s2s/tick", 0.0),
                }
            )
    return table


def e17_durability(quick: bool = False) -> ResultTable:
    """Durable shard state: recovery quality vs checkpoint cadence.

    The failure schedule is built to defeat buddy coverage, the only
    recovery path PR6 had: a *correlated* crash of shards 0 and 1 —
    shard 0's replication buddy is shard 1, so when both die together
    shard 0 restarts cold with no live replica — followed later by a
    whole-tier restart (every shard down at once, nothing covered).
    Under that schedule, hardened DKNN-P at S=2 runs once per
    checkpoint cadence of the per-cell durable store:

    * ``none`` — no store: uncovered cold restarts take the amnesia
      path (ownership and home rows dropped, queries re-bootstrapped
      from the next focal report through the degraded channel);
    * intervals 2..20 — checkpoint every N ticks plus a WAL of
      protocol-critical mutations between checkpoints, replayed at a
      bounded ``wal_replay_per_tick`` rate on remount, so recovery
      cost shows up as replay ticks instead of lost state.

    Expected: with the store, ``amnesia_q`` is zero and every query
    survives the correlated crash (``recovered_q`` > 0) at any
    cadence — durability changes *how long* recovery takes, not
    *whether* state survives; sparser checkpoints shift bytes from
    checkpoint writes into WAL replay and lengthen the degraded
    window; ``healthy_exactness`` stays at 1.0 throughout (recovery
    lag is always accounted through the degraded channel).
    """
    base = _base(quick).but(
        mobility="hotspot", seed=103, n_objects=300 if quick else 1200
    )
    ft_params = {
        "fault_tolerant": True,
        "ack_timeout": 2,
        "lease_ticks": 8,
        "violation_retry": 2,
    }
    span = base.ticks - base.warmup_ticks
    g0 = base.warmup_ticks + span // 4
    g1 = g0 + (8 if quick else 12)
    r0 = base.warmup_ticks + (3 * span) // 4
    r1 = r0 + (3 if quick else 5)
    intervals = (None, 4) if quick else (None, 2, 5, 10, 20)
    table = ResultTable(
        "E17: durable recovery vs checkpoint cadence",
        (
            "ckpt_interval",
            "checkpoints",
            "wal_bytes/tick",
            "replayed",
            "cold_restarts",
            "recovered_q",
            "amnesia_q",
            "recovery_ticks",
            "degraded_frac",
            "exactness",
            "healthy_exactness",
        ),
    )
    for interval in intervals:
        plan = ShardFaultPlan(
            seed=23,
            crash_groups=(((0, 1), g0, g1),),
            full_restarts=((r0, r1),),
            heartbeat_timeout=3,
            checkpoint_interval=interval,
            wal_replay_per_tick=None if interval is None else 25,
        )
        m = run_once(
            RunConfig(
                "DKNN-P",
                shard=ShardConfig(shards=2, faults=plan),
                params=dict(ft_params),
            ),
            base,
            accuracy_every=2,
        )
        table.add_row(
            {
                "ckpt_interval": "none" if interval is None else interval,
                "checkpoints": m.extra.get("checkpoints", 0),
                "wal_bytes/tick": m.extra.get("wal_bytes/tick", 0.0),
                "replayed": m.extra.get("replayed", 0),
                "cold_restarts": m.extra.get("cold_restarts", 0),
                "recovered_q": m.extra.get("recovered_q", 0),
                "amnesia_q": m.extra.get("amnesia_q", 0),
                "recovery_ticks": m.extra.get("recovery_ticks", 0.0),
                "degraded_frac": m.extra.get("degraded_frac", 0.0),
                "exactness": m.exactness,
                "healthy_exactness": m.extra.get("healthy_exactness", ""),
            }
        )
    return table


def e18_rebalancing(quick: bool = False) -> ResultTable:
    """Elastic rebalancing vs a static grid under drifting hotspots.

    The stressor is ``hotspot_drift``: dense Gaussian hotspots whose
    centers orbit, dragging the crowd across shard boundaries, so the
    hot shard *changes* over the run. A static S x S grid rides the
    skew wherever it goes; the rebalancer watches per-cell windowed
    uplink counts and migrates fine cells hot -> cold through the
    ownership-transfer protocol (WAL-fenced home moves + query
    handoffs, DESIGN.md §14).

    For S in {4, 16, 64} shards (grid sides 2, 4, 8), three scenarios
    per side:

    * ``static`` — the PR7 tier unchanged (control; also the
      bit-identity anchor — the rebalancer is config-gated off);
    * ``rebalancing`` — a :class:`RebalancePolicy` migrating up to a
      few cells per cycle;
    * ``rebalance+admission`` — the same policy plus per-shard
      :class:`AdmissionPolicy` backpressure (defer over shed), with
      hardened DKNN-P so deferred protocol replies are retried; the
      degraded channel keeps ``healthy_exactness`` honest.

    Reported: windowed load imbalance (mean and peak of the per-cycle
    max/mean per-shard uplink ratio — the whole-run ratio understates
    a *moving* skew, each shard gets its turn), migration volume, and
    the accuracy ledger. Expected: imbalance drops by >= 2x at S=16
    with exactness untouched (rebalancing is invisible to clients);
    admission trades a bounded degraded window for a load ceiling.
    The final row is the scale pin: N=1,000,000 objects through the
    rebalancing tier.
    """
    # Tight hotspots (generator default sigma, ~3% of the universe)
    # that each complete one full orbit inside the measured window, so
    # every run sees the skew traverse shard boundaries.
    base = _base(quick)
    base = base.but(
        mobility="hotspot_drift",
        seed=42,
        mobility_options={
            "n_hotspots": 3,
            "zipf_s": 1.0,
            "drift_period": max(20, base.ticks - base.warmup_ticks),
        },
    )
    ft_params = {
        "fault_tolerant": True,
        "ack_timeout": 2,
        "lease_ticks": 8,
        "violation_retry": 2,
    }
    policy = RebalancePolicy(
        check_interval=5,
        trigger=1.2,
        max_moves_per_cycle=6,
        cells_per_shard=8,
        min_window_uplinks=16,
    )
    shard_sides = (2,) if quick else (2, 4, 8)
    table = ResultTable(
        "E18: elastic rebalancing under drifting hotspots",
        (
            "N",
            "S",
            "scenario",
            "imbalance",
            "imb_peak",
            "rebalances",
            "cells_moved",
            "rehomed",
            "handoffs/tick",
            "deferred/tick",
            "degraded_frac",
            "exactness",
            "healthy_exactness",
        ),
    )

    def row(spec, side, scenario, m):
        table.add_row(
            {
                "N": spec.n_objects,
                "S": side * side,
                "scenario": scenario,
                "imbalance": m.extra.get("imbalance_windowed", ""),
                "imb_peak": m.extra.get("imbalance_peak", ""),
                "rebalances": m.extra.get("rebalances", 0),
                "cells_moved": m.extra.get("cells_moved", 0),
                "rehomed": m.extra.get("rehomed", 0),
                "handoffs/tick": m.extra.get("handoffs/tick", 0.0),
                "deferred/tick": m.extra.get("deferred/tick", 0.0),
                "degraded_frac": m.extra.get("degraded_frac", 0.0),
                "exactness": m.exactness,
                "healthy_exactness": m.extra.get("healthy_exactness", ""),
            }
        )

    for side in shard_sides:
        spec = base
        m = run_once(
            RunConfig("DKNN-P", shard=ShardConfig(shards=side)),
            spec,
            accuracy_every=10,
        )
        row(spec, side, "static", m)
        m = run_once(
            RunConfig(
                "DKNN-P",
                shard=ShardConfig(shards=side, rebalance=policy),
            ),
            spec,
            accuracy_every=10,
        )
        row(spec, side, "rebalancing", m)
        admission = AdmissionPolicy(
            max_uplinks_per_tick=max(
                40, (2 * spec.population) // (side * side)
            ),
            defer=True,
            settle_ticks=8,
        )
        m = run_once(
            RunConfig(
                "DKNN-P",
                shard=ShardConfig(
                    shards=side, rebalance=policy, admission=admission
                ),
                params=dict(ft_params),
            ),
            spec,
            accuracy_every=10,
        )
        row(spec, side, "rebalance+admission", m)
    if not quick:
        # The scale pin: one million objects through the rebalancing
        # tier. Few ticks, accuracy off — the row exists to prove the
        # tier completes at this N, and to record its migration volume.
        big = base.but(
            n_objects=1_000_000,
            n_queries=16,
            ticks=8,
            warmup_ticks=2,
            mobility_options=dict(
                base.mobility_options, drift_period=6
            ),
        )
        m = run_once(
            RunConfig(
                "DKNN-B", shard=ShardConfig(shards=4, rebalance=policy)
            ),
            big,
            accuracy_every=0,
        )
        row(big, 4, "rebalancing-1M", m)
    return table


def e19_event_engine(quick: bool = False) -> ResultTable:
    """Event-scheduled engine vs the synchronous tick loop (E19).

    The stressor is the engine's home turf: a ``mostly_stationary``
    fleet (1% of objects commuting on a 10% duty cycle) with static
    queries, so most ticks are provable protocol no-ops. For each N,
    the same workload runs twice — once under the plain tick loop,
    once under ``EngineConfig(mode="event")`` — and the table reports
    both walls, the skip ledger, and the equivalence pin
    (``msgs_match``: per-tick message rates must agree exactly; the
    answer-level pin is tests/test_engine.py).

    Expected: speedup grows with N (the skipped O(N) client phase is
    what's saved) and clears 2x at N=100k; ``event_sparse`` in
    ``BENCHMARK.json`` is the wall-clock guard at N=200k.
    """
    base = WorkloadSpec(
        n_objects=2000,
        n_queries=16,
        k=8,
        mobility="mostly_stationary",
        mobility_options={
            "moving_fraction": 0.01,
            "period": 200,
            "active_ticks": 20,
        },
        query_speed=0,
        ticks=60 if quick else 300,
        warmup_ticks=5,
        seed=42,
    )
    sizes = (2000,) if quick else (5_000, 20_000, 100_000)
    table = ResultTable(
        "E19: event-scheduled engine vs tick loop",
        (
            "N",
            "mode",
            "wall_s",
            "ms/tick",
            "skipped",
            "full",
            "speedup",
            "msgs/tick",
            "msgs_match",
            "exactness",
        ),
    )
    for n in sizes:
        spec = base.but(n_objects=n)
        # Brute-force accuracy is O(N) per query per check; keep it on
        # at small N as a correctness spot check, off at the wall-clock
        # sizes so the timing compares loop overheads, not the checker.
        accuracy_every = 10 if n <= 5_000 else 0
        rows = {}
        for mode in ("tick", "event"):
            # The first size's event run also carries a replay stream —
            # it documents what the engine elided, and its emission is
            # telemetry-gated, so an untraced run (the timing setting)
            # pays nothing for it. Only one run may emit snapshots per
            # trace (the replayer requires monotone ticks).
            replay = (
                ReplayConfig(max_objects=64)
                if mode == "event" and n == sizes[0]
                else None
            )
            m = run_once(
                RunConfig(
                    "DKNN-P", engine=EngineConfig(mode=mode, replay=replay)
                ),
                spec,
                accuracy_every=accuracy_every,
            )
            rows[mode] = m
        for mode in ("tick", "event"):
            m = rows[mode]
            ticks = m.ticks_measured
            table.add_row(
                {
                    "N": n,
                    "mode": mode,
                    "wall_s": round(m.wall_seconds, 3),
                    "ms/tick": round(1000.0 * m.wall_seconds / ticks, 3),
                    "skipped": m.extra.get("skipped_ticks", 0),
                    "full": m.extra.get("full_ticks", ticks),
                    "speedup": (
                        round(
                            rows["tick"].wall_seconds
                            / max(m.wall_seconds, 1e-9),
                            2,
                        )
                        if mode == "event"
                        else 1.0
                    ),
                    "msgs/tick": m.msgs_per_tick,
                    "msgs_match": rows["event"].msgs_per_tick
                    == rows["tick"].msgs_per_tick,
                    "exactness": m.exactness,
                }
            )
    return table


EXPERIMENTS: Dict[str, Tuple[Callable[[bool], ResultTable], str]] = {
    "E1": (e1_comm_vs_n, "communication vs population size"),
    "E2": (e2_comm_vs_k, "communication vs k"),
    "E3": (e3_comm_vs_speed, "communication vs object speed"),
    "E4": (e4_comm_vs_query_speed, "communication vs query speed"),
    "E5": (e5_comm_vs_queries, "communication vs number of queries"),
    "E6": (e6_server_cost_vs_n, "server cost vs population size"),
    "E7": (e7_message_breakdown, "per-kind message breakdown"),
    "E8": (e8_staleness, "staleness under sampling / latency"),
    "E9": (e9_theta_ablation, "theta and s_cap ablation"),
    "E10": (e10_skew, "communication vs object distribution"),
    "E11": (e11_grid_ablation, "grid granularity ablation"),
    "E12": (e12_wakeups, "client wake-ups: broadcast vs geocast"),
    "E13": (e13_light_repairs, "incremental (light) repair ablation"),
    "E14": (e14_faults, "robustness under network faults"),
    "E15": (e15_sharding, "sharded server tier vs shard count"),
    "E16": (e16_shard_faults, "shard-tier fault tolerance at scale"),
    "E17": (e17_durability, "durable recovery vs checkpoint cadence"),
    "E18": (e18_rebalancing, "elastic rebalancing under drifting hotspots"),
    "E19": (e19_event_engine, "event-scheduled engine vs tick loop"),
}


def run_experiment(name: str, quick: bool = False) -> ResultTable:
    """Run one registered experiment by id (e.g. ``"E1"``)."""
    key = name.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; expected one of "
            f"{sorted(EXPERIMENTS)}"
        )
    fn, _ = EXPERIMENTS[key]
    return fn(quick)
