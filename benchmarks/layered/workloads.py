"""The five benchmark workloads: what is built, and why each exists.

Every workload is ``k=8`` over the default 10 000-unit universe with a
10-tick warm-up (the O(N) registration burst, charged to ``setup_s``).
Populations set the layer shares and are never scaled to fit a time
budget — only ``ticks`` may be.

The measured window is a tick count, not a duration: the cost of a tick
is not stationary (DKNN-B's grows ~2x over 80 ticks, DKNN-P's settles
over ~100 as drift reports phase in), so a window that ended when a
timer fired would cover different work on a faster host. ``ticks`` is
sized to take about 10 s on the 2-core reference box and scales with
``--seconds`` from there; every run of a seed then does identical work
and the simulated statistics repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.api import (
    EngineConfig,
    RebalancePolicy,
    RunConfig,
    ShardConfig,
    WorkloadSpec,
)

WARMUP_TICKS = 10
K = 8
#: the ``--seconds`` that ``Workload.ticks`` was sized for.
REFERENCE_SECONDS = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line for BENCHMARK.json: the layer it isolates or bypasses.
    why: str
    algorithm: str
    n_objects: int
    n_queries: int
    mobility: str = "random_waypoint"
    mobility_options: Dict[str, Any] = field(default_factory=dict)
    query_speed: float = 50.0
    shard: Optional[ShardConfig] = None
    engine: Optional[EngineConfig] = None
    #: measured ticks per 10 s of ``--seconds``.
    ticks: int = 100
    #: timing block: ``ticks_per_s`` is the median over whole blocks, so
    #: a block must hold a representative mix of ticks (one full
    #: commute period on ``event_sparse``).
    block_ticks: int = 10
    #: oracle cadence in measured ticks.
    check_every: int = 20

    def spec(self, seed: int, smoke: bool) -> WorkloadSpec:
        n = max(self.n_objects // 25, 400) if smoke else self.n_objects
        return WorkloadSpec(
            n_objects=n,
            n_queries=self.n_queries,
            k=K,
            # WorkloadSpec.ticks only feeds run_once; this runner drives
            # sim.step() itself, so any value above the warm-up will do.
            ticks=WARMUP_TICKS + 1,
            warmup_ticks=WARMUP_TICKS,
            seed=seed,
            mobility=self.mobility,
            mobility_options=dict(self.mobility_options),
            query_speed=self.query_speed,
        )

    def config(self) -> RunConfig:
        return RunConfig(
            self.algorithm, fast=True, shard=self.shard, engine=self.engine
        )

    def window(self, seconds: float, smoke: bool) -> int:
        """Measured ticks: a whole number of blocks, about ``seconds``
        long at full size and about 30 ticks in smoke mode."""
        ticks = 30 if smoke else self.ticks * seconds / REFERENCE_SECONDS
        return self.block_ticks * max(1, round(ticks / self.block_ticks))


WORKLOADS = (
    Workload(
        name="p_dense",
        why=(
            "DKNN-P N=50k Q=16, message-bound: server repair planner, "
            "columnar uplink ingest and many small plane batches; "
            "bypasses sharding and the event driver"
        ),
        algorithm="DKNN-P",
        n_objects=50_000,
        n_queries=16,
        ticks=200,
        block_ticks=10,
    ),
    Workload(
        name="b_dense",
        why=(
            "DKNN-B N=50k Q=16, ~45x fewer messages: client deliver_area "
            "+ tick_start dominate, server and plane idle; a server or "
            "plane change must not move it"
        ),
        algorithm="DKNN-B",
        n_objects=50_000,
        n_queries=16,
        ticks=80,
        block_ticks=5,
        check_every=10,
    ),
    Workload(
        name="cpm_stream",
        why=(
            "CPM N=100k Q=16, every object reports every tick in one "
            "columnar batch: grid bulk writes, dirty repair and mobility; "
            "the client phase is a no-op"
        ),
        algorithm="CPM",
        n_objects=100_000,
        n_queries=16,
        ticks=250,
        block_ticks=10,
    ),
    Workload(
        name="shard_drift",
        why=(
            "DKNN-P N=20k Q=64 on drifting hotspots over 4 rebalancing "
            "shards: the only path through ShardedServer (ledger, "
            "handoff, borrow, cell migration); p_dense is its control"
        ),
        algorithm="DKNN-P",
        n_objects=20_000,
        n_queries=64,
        mobility="hotspot_drift",
        # Six loose hotspots, not the model's three tight ones: with
        # three, ~2 of the 64 focal objects sit inside a hotspot at a
        # time and msgs/tick moved 29 % from one seed to the next (IQR
        # over ten seeds), beyond any admissible bound; with six it is
        # ~10 % and the tier still hands off, borrows and migrates.
        mobility_options={
            "drift_period": 120,
            "n_hotspots": 6,
            "zipf_s": 0.5,
            "sigma": 500.0,
        },
        shard=ShardConfig(
            shards=4,
            rebalance=RebalancePolicy(check_interval=5, min_window_uplinks=8),
        ),
        ticks=100,
        block_ticks=5,
        check_every=10,
    ),
    Workload(
        name="event_sparse",
        why=(
            "DKNN-P N=200k Q=64, 1% commuters, event engine: ~88% of "
            "ticks skipped; the only path through EventDriver and the "
            "subset mobility advance; largest set-up and memory"
        ),
        algorithm="DKNN-P",
        n_objects=200_000,
        # 64 queries, not 16: focal points and crowd both stand still, so
        # a seed fixes how often commuters cross each query region for
        # the whole run; with 16, repairs (and the probes they send)
        # moved msgs/tick 22 % from seed to seed, with 64 ~15 %.
        n_queries=64,
        mobility="mostly_stationary",
        mobility_options={
            "moving_fraction": 0.01,
            "period": 200,
            "active_ticks": 20,
        },
        query_speed=0.0,
        engine=EngineConfig(mode="event"),
        ticks=1200,
        block_ticks=200,
        check_every=100,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
