"""Deterministic chaos harness for the sharded tier.

Composes a seeded radio :class:`~repro.net.faults.FaultPlan` with a
seeded :class:`~repro.net.faults.ShardFaultPlan` — single crashes, a
correlated buddy-pair crash group, a backbone partition, a whole-tier
restart, checkpoint/WAL durability — runs the full system for a few
hundred ticks, and evaluates **cross-cutting invariant checkers every
tick**:

* ``single-owner`` — every query has exactly one owner, always a valid
  shard id, never a shard currently declared failed;
* ``no-lost-query`` — a query that has ever been owned is owned now or
  carries a degraded flag (nothing silently vanishes, even through
  amnesia);
* ``wal-bound`` — no shard accumulates more than one checkpoint
  interval of live ticks without compacting its journal;
* ``replication-lag`` — a dirty replica delta is never stuck for more
  than a bounded number of ticks while the owner and its buddy are
  both up and connected (the retry-on-drop guarantee);
* ``healthy-exactness`` — every answer *not* flagged degraded (with a
  short hysteresis after a flag clears) equals the brute-force kNN
  ground truth within the protocol's bounded retry blind spot: an
  in-flight violation report the radio dropped may stale an answer
  for a couple of ticks the server cannot know about, but nothing
  longer — the degraded channel never durably under-reports.

Everything is a pure function of ``(seed, side, ticks)``: the same
arguments replay the same faults and the same violations, so a failing
CI seed is reproducible locally with one command::

    python -m repro.experiments chaos --seed 12345 --ticks 200

Violations are surfaced as ``chaos.violation`` protocol trace events
(and summarize's ``--strict`` turns them into a non-zero exit), so a
chaos trace is inspectable with the normal observability tooling.

The checkers read tier internals (``_owner``, ``_repl_sent``, ...) by
design: this is a white-box harness, and the invariants *are* claims
about those structures. They live here rather than in the tier so the
production path never pays for them.
"""

from __future__ import annotations

import argparse
import random
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.net.faults import FaultPlan, ShardFaultPlan

__all__ = [
    "ChaosResult",
    "InvariantChecker",
    "SingleOwnerChecker",
    "NoLostQueryChecker",
    "WalBoundChecker",
    "ReplicationLagChecker",
    "HealthyExactnessChecker",
    "CellPartitionChecker",
    "default_checkers",
    "chaos_plans",
    "run_chaos",
    "main",
]


def chaos_plans(
    seed: int, side: int, ticks: int
) -> Tuple[FaultPlan, ShardFaultPlan]:
    """The seeded fault schedule of one chaos run.

    Deterministic in ``(seed, side, ticks)``. The schedule always
    contains, in order: one single-shard crash, one *correlated* crash
    of a shard together with its replication buddy, one backbone
    partition, and one whole-tier restart — plus mild probabilistic
    radio faults and backbone loss throughout, and checkpoint/WAL
    durability so the correlated failures are survivable.
    """
    if ticks < 60:
        raise ConfigError(f"ticks: chaos runs need >= 60 ticks, got {ticks}")
    rng = random.Random(seed)
    n = side * side

    def jitter(frac: float) -> int:
        base = int(ticks * frac)
        return base + rng.randrange(-(ticks // 40) or 1, ticks // 40 + 1)

    victim = rng.randrange(n)
    pair_lead = rng.randrange(n)
    pair = (pair_lead, (pair_lead + 1) % n)
    a = rng.randrange(n)
    b = (a + rng.randrange(1, n)) % n
    crash_t0 = jitter(0.15)
    group_t0 = jitter(0.40)
    part_t0 = jitter(0.60)
    restart_t0 = jitter(0.80)
    radio = FaultPlan(
        seed=seed ^ 0xAD10,
        drop_uplink=0.03,
        drop_downlink=0.03,
        dup_prob=0.01,
        delay_prob=0.02,
        delay_ticks=1,
    )
    shard = ShardFaultPlan(
        seed=seed ^ 0x5A4D,
        link_drop=0.02,
        crashes=((victim, crash_t0, crash_t0 + max(4, ticks // 20)),),
        crash_groups=(
            (pair, group_t0, group_t0 + max(6, ticks // 16)),
        ),
        partitions=((a, b, part_t0, part_t0 + max(4, ticks // 20)),),
        full_restarts=((restart_t0, restart_t0 + 3),),
        heartbeat_timeout=3,
        # Longer than a lease round (8) + violation retry margin: the
        # settle bound should only close windows the FT protocol's own
        # repair machinery has had a full chance to refresh.
        recovery_settle_ticks=20,
        checkpoint_interval=rng.choice((4, 6, 8)),
        wal_replay_per_tick=None,
    )
    return radio, shard


class InvariantChecker:
    """One cross-cutting invariant, evaluated after every tick.

    ``check`` returns a list of violation field dicts (empty = the
    invariant holds this tick). Checkers may keep state across ticks —
    one instance per run.
    """

    name = "invariant"

    def check(self, sim, tick: int) -> List[Dict[str, Any]]:
        raise NotImplementedError


class SingleOwnerChecker(InvariantChecker):
    name = "single-owner"

    def check(self, sim, tick: int) -> List[Dict[str, Any]]:
        tier = sim.server
        out = []
        n = tier.router.n_shards
        for qid, owner in tier._owner.items():
            if not 0 <= owner < n:
                out.append(dict(qid=qid, owner=owner, why="invalid shard"))
            elif owner in tier._failed:
                out.append(
                    dict(qid=qid, owner=owner, why="owned by failed shard")
                )
        for qid, dst in tier._handoff_pending.items():
            if qid not in tier._owner:
                out.append(
                    dict(qid=qid, dst=dst, why="pending handoff, no owner")
                )
        return out


class NoLostQueryChecker(InvariantChecker):
    name = "no-lost-query"

    def __init__(self) -> None:
        self._ever_owned: set = set()

    def check(self, sim, tick: int) -> List[Dict[str, Any]]:
        tier = sim.server
        self._ever_owned.update(tier._owner)
        degraded = tier.degraded
        out = []
        for qid in self._ever_owned:
            if qid not in tier._owner and not degraded.get(qid):
                out.append(dict(qid=qid, why="unowned and not degraded"))
        return out


class WalBoundChecker(InvariantChecker):
    """A live shard compacts within one checkpoint interval.

    Counts only ticks the shard is actually up (down or replaying
    shards cannot checkpoint — their journal legitimately ages), and
    resets whenever a newer checkpoint appears.
    """

    name = "wal-bound"

    def __init__(self) -> None:
        self._live_since_ckpt: Dict[int, int] = {}
        self._last_ckpt: Dict[int, Optional[int]] = {}

    def check(self, sim, tick: int) -> List[Dict[str, Any]]:
        tier = sim.server
        dm = tier._durability
        plan = tier._fault_plan
        if dm is None or plan is None:
            return []
        out = []
        for store in dm.stores:
            s = store.shard
            if plan.is_down(s, tick) or tier._is_recovering(s):
                continue
            if self._last_ckpt.get(s, "never") != store.checkpoint_tick:
                self._last_ckpt[s] = store.checkpoint_tick
                self._live_since_ckpt[s] = 0
            self._live_since_ckpt[s] = self._live_since_ckpt.get(s, 0) + 1
            if self._live_since_ckpt[s] > dm.interval + 1:
                out.append(
                    dict(
                        shard=s,
                        live_ticks=self._live_since_ckpt[s],
                        interval=dm.interval,
                        wal_records=store.wal_records,
                        why="journal not compacted",
                    )
                )
        return out


class ReplicationLagChecker(InvariantChecker):
    """A dirty buddy replica never stays dirty for long while both
    ends are up and connected (dropped deltas must retry)."""

    name = "replication-lag"

    def __init__(self, bound: int = 8) -> None:
        self.bound = bound
        self._dirty_for: Dict[int, int] = {}

    def check(self, sim, tick: int) -> List[Dict[str, Any]]:
        tier = sim.server
        plan = tier._fault_plan
        if plan is None:
            return []
        out = []
        for qid, owner in tier._owner.items():
            buddy = tier._buddy(owner)
            reachable = (
                not plan.is_down(owner, tick)
                and not plan.is_down(buddy, tick)
                and not tier._is_recovering(owner)
                and not tier._is_recovering(buddy)
                and not plan.is_partitioned(owner, buddy, tick)
            )
            dirty = tier._repl_sent.get(qid) != tier.inner.export_query_state(
                qid
            )
            if not (reachable and dirty):
                self._dirty_for.pop(qid, None)
                continue
            self._dirty_for[qid] = self._dirty_for.get(qid, 0) + 1
            if self._dirty_for[qid] > self.bound:
                out.append(
                    dict(
                        qid=qid,
                        owner=owner,
                        dirty_ticks=self._dirty_for[qid],
                        why="replica delta stuck",
                    )
                )
        return out


class HealthyExactnessChecker(InvariantChecker):
    """Every answer *not* flagged degraded matches brute-force kNN,
    up to the protocol's documented blind spot.

    A violation report the radio dropped or delayed cannot be flagged
    by the server — "the server cannot know a message it never saw
    existed until the client retries"
    (:class:`repro.metrics.accuracy.AccuracyTracker`). That blind spot
    is *bounded* by the FT client's retry cadence, so the invariant
    this checker enforces is bounded staleness: an unflagged answer
    may disagree with brute force for at most ``blind_ticks``
    consecutive ticks. A real lost-state bug (a recovery that dropped
    rows, a window closed over a permanently stale answer) blows past
    any bound within a few ticks and still trips the checker.

    A short hysteresis (``grace`` ticks after a degraded flag clears)
    absorbs the republish that closes a window landing in the same
    tick as the flag's removal; ``since_tick`` silences the checker
    during protocol warm-up (initial installs in flight).
    """

    name = "healthy-exactness"

    def __init__(
        self, grace: int = 2, since_tick: int = 8, blind_ticks: int = 3
    ) -> None:
        self.grace = grace
        self.since_tick = since_tick
        self.blind_ticks = blind_ticks
        self._last_degraded: Dict[int, int] = {}
        #: qid -> consecutive unflagged-inexact ticks so far.
        self._stale_for: Dict[int, int] = {}

    def check(self, sim, tick: int) -> List[Dict[str, Any]]:
        from repro.index.bruteforce import brute_knn_ids

        tier = sim.server
        degraded = tier.degraded
        out = []
        for q in tier.inner.queries:
            qid = q.qid
            if degraded.get(qid):
                self._last_degraded[qid] = tick
                self._stale_for.pop(qid, None)
                continue
            if tick < self.since_tick:
                continue
            if tick - self._last_degraded.get(qid, -10**9) <= self.grace:
                self._stale_for.pop(qid, None)
                continue
            answer = tier.inner.answers.get(qid, ())
            if not answer:
                continue  # covered by no-lost-query / degraded channel
            qx, qy = sim.fleet.positions[q.focal_oid]
            truth = brute_knn_ids(
                sim.fleet.positions, qx, qy, q.k, frozenset((q.focal_oid,))
            )
            if sorted(answer) == sorted(truth):
                self._stale_for.pop(qid, None)
                continue
            self._stale_for[qid] = self._stale_for.get(qid, 0) + 1
            if self._stale_for[qid] > self.blind_ticks:
                out.append(
                    dict(
                        qid=qid,
                        stale_ticks=self._stale_for[qid],
                        why="unflagged answer stale past retry blind spot",
                        got=sorted(answer),
                        want=sorted(truth),
                    )
                )
        return out


class CellPartitionChecker(InvariantChecker):
    """The router's fine cell→shard map stays a partition: every cell
    has exactly one owner and it is a valid shard id, every tick —
    including ticks a migration lands on and ticks shards are down. A
    static tier is the one-cell-per-shard case and is checked too."""

    name = "cell-partition"

    def check(self, sim, tick: int) -> List[Dict[str, Any]]:
        router = sim.server.router
        owner = router.owner
        out = []
        bad = (owner < 0) | (owner >= router.n_shards)
        if bad.any():
            cells = [int(c) for c in bad.nonzero()[0][:8]]
            out.append(
                dict(
                    cells=cells,
                    owners=[int(owner[c]) for c in cells],
                    why="cell owned by invalid shard",
                )
            )
        if len(owner) != router.cell_side**2:
            out.append(
                dict(
                    n_cells=len(owner),
                    expected=router.cell_side**2,
                    why="cell map lost entries",
                )
            )
        return out


def default_checkers() -> List[InvariantChecker]:
    return [
        SingleOwnerChecker(),
        NoLostQueryChecker(),
        WalBoundChecker(),
        ReplicationLagChecker(),
        HealthyExactnessChecker(),
        CellPartitionChecker(),
    ]


class ChaosResult:
    """Outcome of one chaos run: violations + headline counters."""

    def __init__(self, seed: int, side: int, ticks: int) -> None:
        self.seed = seed
        self.side = side
        self.ticks = ticks
        #: (tick, checker name, fields) per violation, in tick order.
        self.violations: List[Tuple[int, str, Dict[str, Any]]] = []
        self.checks_run = 0
        self.counters: Dict[str, Any] = {}

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_checker(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for _, name, _fields in self.violations:
            out[name] = out.get(name, 0) + 1
        return out

    def report(self) -> str:
        lines = [
            f"chaos seed={self.seed} side={self.side} ticks={self.ticks}: "
            + ("OK" if self.ok else f"{len(self.violations)} VIOLATIONS"),
            f"  checks evaluated: {self.checks_run}",
        ]
        for key in sorted(self.counters):
            lines.append(f"  {key}: {self.counters[key]}")
        for tick, name, fields in self.violations[:20]:
            lines.append(f"  VIOLATION t={tick} [{name}] {fields}")
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def run_chaos(
    seed: int = 0,
    side: int = 2,
    ticks: int = 200,
    algorithm: str = "DKNN-P",
    n_objects: int = 120,
    n_queries: int = 3,
    k: int = 4,
    rebalance: bool = False,
    checkers: Optional[List[InvariantChecker]] = None,
    trace_path: Optional[str] = None,
) -> ChaosResult:
    """One deterministic chaos run; see the module docstring.

    Identical arguments produce identical runs, violations included.
    ``rebalance=True`` turns on elastic cell migration *under* the
    fault schedule, so ownership transfers race crashes, partitions
    and the full-tier restart — the cell-partition and single-owner
    checkers then cover the migration path too. When ``trace_path``
    is given the full protocol trace (fault interventions, failovers,
    checkpoints, recoveries, and any ``chaos.violation`` events) is
    written there as JSONL for post-mortem with
    ``python -m repro.experiments summarize``.
    """
    # Imported here: repro.experiments imports repro.net.faults, so a
    # module-level import would be cyclic through the package facade.
    from repro.experiments.algorithms import build_system
    from repro.experiments.config import RunConfig
    from repro.obs.trace import JsonlSink, RingSink
    from repro.obs.telemetry import Telemetry
    from repro.server.config import RebalancePolicy, ShardConfig
    from repro.workloads import WorkloadSpec, build_workload

    radio, shard_plan = chaos_plans(seed, side, ticks)
    spec = WorkloadSpec(
        n_objects=n_objects,
        n_queries=n_queries,
        k=k,
        ticks=ticks,
        warmup_ticks=2,
        seed=seed ^ 0x0B5,
        universe_size=3_000.0,
    )
    fleet, queries = build_workload(spec)
    policy = (
        RebalancePolicy(check_interval=5, min_window_uplinks=8, seed=seed)
        if rebalance
        else None
    )
    cfg = RunConfig(
        algorithm,
        faults=radio,
        shard=ShardConfig(
            shards=side, faults=shard_plan, rebalance=policy
        ),
        params={
            "fault_tolerant": True,
            "ack_timeout": 2,
            "lease_ticks": 8,
            "violation_retry": 2,
        },
    )
    sink = JsonlSink(trace_path) if trace_path else RingSink(capacity=4)
    tel = Telemetry(sink)
    sim = build_system(cfg, fleet, queries, telemetry=tel)
    active = checkers if checkers is not None else default_checkers()
    result = ChaosResult(seed, side, ticks)

    def on_tick(s) -> None:
        tick = s.tick
        for checker in active:
            result.checks_run += 1
            for fields in checker.check(s, tick):
                result.violations.append((tick, checker.name, fields))
                tel.emit(
                    tick, "chaos.violation", checker=checker.name, **fields
                )

    sim.run(ticks, on_tick=on_tick)
    st = sim.server.shard_stats
    dm = sim.server._durability
    result.counters.update(
        failovers=st.failovers,
        restores=st.restores,
        cold_restarts=st.cold_restarts,
        recovered_queries=st.recovered_queries,
        amnesia_queries=st.amnesia_queries,
        handoffs=st.handoffs,
        checkpoints=dm.checkpoints if dm else 0,
        wal_replayed=dm.replayed_records if dm else 0,
    )
    if rebalance:
        result.counters.update(
            rebalances=st.rebalances,
            cells_moved=st.cells_moved,
            rehomed_objects=st.rehomed_objects,
        )
    tel.close()
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments chaos",
        description=(
            "Deterministic chaos run over the sharded tier: seeded "
            "radio + shard faults, per-tick invariant checkers. "
            "Exit 1 on any violation."
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ticks", type=int, default=200)
    parser.add_argument("--side", type=int, default=2)
    parser.add_argument("--algorithm", default="DKNN-P")
    parser.add_argument("--objects", type=int, default=120)
    parser.add_argument("--queries", type=int, default=3)
    parser.add_argument(
        "--rebalance",
        action="store_true",
        help="enable elastic cell migration under the fault schedule",
    )
    parser.add_argument(
        "--trace", default=None, help="write the JSONL protocol trace here"
    )
    args = parser.parse_args(argv)
    result = run_chaos(
        seed=args.seed,
        side=args.side,
        ticks=args.ticks,
        algorithm=args.algorithm,
        n_objects=args.objects,
        n_queries=args.queries,
        rebalance=args.rebalance,
        trace_path=args.trace,
    )
    print(result.report())
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
