"""The sharded server tier: router, coordinator, and query handoff.

The paper's server is a single machine owning the whole region. The
ROADMAP north-star is a *distributed* server tier, so this module
partitions the universe into an S x S grid of **shard servers** (base
stations, one per cell) behind a :class:`ShardedServer` coordinator:

* every object's uplink lands on its **home shard** — the shard whose
  cell contains the position the message reports (dead-reckoning home
  for position-free uplinks like install acks);
* every query is **owned** by exactly one shard: the one containing
  its focal object's last reported position. Uplinks that carry a
  query id but land on a non-owning shard are relayed over the
  backbone (``forward``);
* when a focal object's report crosses a shard boundary, the tier runs
  an explicit **query handoff**: the owning shard exports the query's
  server-side state (:meth:`~repro.server.engine.BaseServer.
  export_query_state` — bands ride along, so no client-visible
  re-install is needed), ships it over the backbone (``handoff``), and
  ownership commits when the ``handoff_ack`` returns. Until the commit
  the old owner keeps the query and forwards its in-flight traffic —
  so no query is ever owned by two shards, even with a lossy or
  delayed backbone (pending handoffs are retried each tick);
* when a repair's search circle overlaps neighbor shards, the owner
  **borrows** their member positions inside the circle (``borrow`` /
  ``borrow_reply``), sized by the members actually inside it. The
  per-tick planner scan is served by each shard's boundary replica and
  is not charged (DESIGN.md §10 records the accounting rules).

Execution model: the tier wraps the unmodified single-server algorithm
engine. The inner engine sees the exact client message stream a
single-server run sees — which makes the sharded run's per-tick
answers bit-identical to the unsharded run *by construction*, for
every algorithm, every S, and every FaultPlan (the backbone's own
fault RNG is private, see :mod:`repro.net.shardlink`). What the tier
adds on top is the distributed-execution ledger: per-shard load,
ownership, handoffs, borrows, forwards, migrations — the quantities
E15 sweeps. ``tests/test_sharding.py`` pins both halves.

**Failure model** (DESIGN.md §11). The
:class:`~repro.net.faults.ShardFaultPlan` of the tier's
:class:`~repro.server.config.ShardConfig` is the one switch for every
backbone fault (loss, delay, their seed) and for the durability
cadence; without an enabled plan the backbone is healthy. With one
installed the tier stops being a pure ledger and perturbs the run
honestly:

* a **crashed shard** is a dead base station *and* a dead query
  engine: uplinks homed in its cell are lost, unicast downlinks to
  objects homed there are silently dropped from the radio queue, and
  every backbone message to or from it is dropped at the link
  (broadcast/geocast still reach everyone — every live base station
  transmits them; a documented simplification);
* every shard streams a **heartbeat** to its replication buddy
  (``(s + 1) % n_shards``) each tick and **replicates** per-query
  state deltas (:meth:`~repro.server.engine.BaseServer.
  export_query_state` snapshots) to it. After ``heartbeat_timeout``
  silent ticks the buddy declares the shard crashed, takes over its
  queries *and its radio coverage*, and re-registers them in the
  ownership map — answers served from the stale replica are flagged
  **degraded** until the next republish (or a settle bound), which
  the runner feeds to ``AccuracyTracker`` (E14 accounting). A
  heartbeat from a failed shard (restart, or a healed partition after
  a false suspicion) restores it and hands its queries back through
  the normal handoff machinery;
* a backbone **partition** drops every message crossing the cut —
  including heartbeats, so partitioned buddies fail over even though
  both sides are alive; the single global ownership map keeps the
  ledger consistent either way;
* **admission control**: with ``shed_uplinks_per_tick`` set, a shard
  past the threshold sheds further query-carrying (repair) uplinks —
  the lowest-priority class — with a degraded annotation, and past
  twice the threshold sheds everything.

**Durability** (DESIGN.md §12). Buddy replication survives a *single*
crash; a correlated failure (``ShardFaultPlan.crash_groups`` /
``full_restarts`` — a shard and its buddy down together, or the whole
tier) leaves nobody holding the region's state. With
``checkpoint_interval`` set, every cell keeps a durable store
(:mod:`repro.server.durability`): a write-ahead journal of
protocol-critical mutations — ownership gains/losses, home-table
changes, per-query state deltas — compacted by periodic checkpoints.
A shard that cold-restarts *uncovered* (no live watcher replayed a
replica) rebuilds its tables by checkpoint load + WAL replay,
``shard.recover`` traces the rebuild, and ``wal_replay_per_tick``
makes long journals cost recovery time (the shard serves nothing until
replay finishes). Without a store, the same restart is **amnesia**:
the region's ownership and home rows drop from the ledger and queries
stay degraded until their focals' next reports re-bootstrap them.
Either way the recovery lag flows through the same degraded-answer
channel as every other fault.

**Elastic rebalancing + backpressure** (DESIGN.md §14). The
partition lives in :class:`ShardRouter`: each shard's rectangle is
subdivided into ``cells_per_shard ** 2`` fine cells, each owned by
exactly one shard (initially its geometric parent), and routing goes
through the fine-cell owner map. With a
:class:`~repro.server.config.RebalancePolicy` installed, every
``check_interval`` ticks the rebalancer compares windowed per-shard
uplink loads and migrates the best-fitting hot cells from the peak
shard to the least-loaded one (``rebalance`` bulk transfers on the
backbone, home rows journaled as loss + gain so the §12 WAL fences
migrations against crashes, queries re-owned through the normal
handoff protocol). With an
:class:`~repro.server.config.AdmissionPolicy` installed, a shard past
its accepted-uplink budget defers (a queue of at most twice the
budget, drained next tick) or sheds further low-priority uplinks,
flagged through the same degraded-answer channel the fault model
uses. Both policies default to off. Off is the same routing code over one cell per shard, which
nothing reassigns — no rebalance checks, no RNG draws, no extra traces
— and ``tests/test_rebalance.py`` pins its bit-identity with the
static S x S grid.

A disabled plan (or ``faults=None``) takes exactly the code paths
above this paragraph: no heartbeats, no replication, no journal, no
RNG draws, no extra trace events, and the ledger's migrations and
borrows leave as batches (:meth:`~repro.net.shardlink.ShardLink.
send_many`) — ``tests/test_shard_faults.py`` pins that bit-identity
next to the sharded-vs-unsharded contract.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigError, NetworkError
from repro.geometry import Rect
from repro.index.grid import column_edges
from repro.metrics.cost import CostMeter
from repro.net.message import HEADER_BYTES, Message, payload_size
from repro.net.node import ServerNodeBase
from repro.net.shardlink import (
    SHARD_BORROW,
    SHARD_BORROW_REPLY,
    SHARD_FORWARD,
    SHARD_HANDOFF,
    SHARD_HANDOFF_ACK,
    SHARD_HEARTBEAT,
    SHARD_MIGRATE,
    SHARD_REBALANCE,
    SHARD_REPLICATE,
    ShardLink,
    ShardMessage,
)
from repro.obs.telemetry import NULL_TELEMETRY
from repro.server.config import (
    AdmissionPolicy,
    RebalancePolicy,
    ShardConfig,
)
from repro.server.durability import DurabilityManager

__all__ = [
    "ShardRouter",
    "ShardStats",
    "ShardedServer",
    "shard_attach",
    "ShardConfig",
    "RebalancePolicy",
    "AdmissionPolicy",
]

#: Wire sizes of the small fixed-shape backbone payloads (the handoff
#: state snapshot is sized by payload_size over the exported dict).
_ACK_BYTES = 8  # qid + generation
_BORROW_REQ_BYTES = 28  # qid + circle (cx, cy, r)
_MIGRATE_BYTES = 20  # oid + last reported position
_HEARTBEAT_BYTES = 4  # shard id
#: A rebalancer cell migration: cell id + epoch, plus one home-table
#: row (oid + last position) per object re-homed with the cell.
_REBALANCE_BYTES = 12
_REBALANCE_ROW_BYTES = 20
#: Load-window length (ticks) of the imbalance gauge on static tiers
#: (rebalancing tiers sample on their policy's check_interval).
_IMBALANCE_WINDOW = 10
#: Handoff-retry backoff doubles up to this many ticks between sends.
_RETRY_GAP_CAP = 8
#: Settle bound (ticks) of an admission-opened degraded window on a
#: tier without a fault plan; under a plan its recovery_settle_ticks.
_ADMISSION_SETTLE_TICKS = 8


class ShardRouter:
    """The partition: S x S shards over a grid of fine cells.

    Each shard's static rectangle is cut into ``cells_per_shard ** 2``
    fine cells and ``owner[cell]`` names the shard serving the cell —
    its geometric parent until a rebalancer reassigns it. A static tier
    is the one-cell-per-shard case of the same arithmetic.
    """

    def __init__(
        self, universe: Rect, shards_per_side: int, cells_per_shard: int = 1
    ) -> None:
        if shards_per_side < 1:
            raise NetworkError(
                f"shards_per_side must be >= 1, got {shards_per_side}"
            )
        self.universe = universe
        self.side = shards_per_side
        self.n_shards = shards_per_side * shards_per_side
        #: fine cells per universe side, and one cell's extent.
        self.cell_side = shards_per_side * cells_per_shard
        self._cell_w = universe.width / self.cell_side
        self._cell_h = universe.height / self.cell_side
        #: (lower, upper) edges of the cell columns, then of the rows:
        #: each cell holds every coordinate :meth:`cell_of` puts in it.
        self._edges = [
            tuple(map(np.array, column_edges(lo, hi, extent, self.cell_side)))
            for lo, hi, extent in (
                (universe.xmin, universe.xmax, self._cell_w),
                (universe.ymin, universe.ymax, self._cell_h),
            )
        ]
        parent = np.arange(self.cell_side, dtype=np.int64) // cells_per_shard
        #: fine cell -> owning shard (int64, row-major).
        self.owner = (
            parent[:, None] * shards_per_side + parent[None, :]
        ).reshape(-1)

    def cell_of(self, x: float, y: float) -> int:
        """The fine cell containing ``(x, y)`` (edges clamp in)."""
        last = self.cell_side - 1
        col = int((x - self.universe.xmin) / self._cell_w)
        row = int((y - self.universe.ymin) / self._cell_h)
        return min(max(row, 0), last) * self.cell_side + min(max(col, 0), last)

    def cells_of(self, xs, ys):
        """:meth:`cell_of` over coordinate columns."""
        last = self.cell_side - 1
        col = ((xs - self.universe.xmin) / self._cell_w).astype(np.int64)
        row = ((ys - self.universe.ymin) / self._cell_h).astype(np.int64)
        # the clamp as two ufuncs: np.clip's integer path costs twice
        np.minimum(np.maximum(col, 0, out=col), last, out=col)
        np.minimum(np.maximum(row, 0, out=row), last, out=row)
        return row * self.cell_side + col

    def shard_of(self, x: float, y: float) -> int:
        """The shard serving the cell that contains ``(x, y)``."""
        return int(self.owner[self.cell_of(x, y)])

    def shards_overlapping(self, cx, cy, radius):
        """Per circle of the float columns, a bool row over the owners
        of the fine cells it intersects (none for a negative radius):
        one circles x cells test inside each circle's clamped box."""
        side = self.cell_side
        cells = np.arange(side)

        def axis(c, lo, extent, edges):
            # Squared gap to each cell and the in-box mask. The scalar
            # test truncates, then clamps into the grid; clamping the
            # float first gives the same cell and keeps huge radii
            # castable.
            def index(at):
                at = np.clip((at - lo) / extent, 0, side - 1)
                return at.astype(np.int64)[:, None]

            lower, upper = edges
            gap = np.minimum(np.maximum(c[:, None], lower), upper)
            gap -= c[:, None]
            box = (cells >= index(c - radius)) & (cells <= index(c + radius))
            return gap * gap, box

        gx, inx = axis(cx, self.universe.xmin, self._cell_w, self._edges[0])
        gy, iny = axis(cy, self.universe.ymin, self._cell_h, self._edges[1])
        r2 = (radius * radius)[:, None, None]
        hit = gy[:, :, None] + gx[:, None, :] <= r2
        hit &= iny[:, :, None] & inx[:, None, :] & (radius >= 0)[:, None, None]
        row, cell = np.nonzero(hit.reshape(cx.shape[0], -1))
        out = np.zeros((cx.shape[0], self.n_shards), dtype=bool)
        out[row, self.owner[cell]] = True
        return out


class ShardStats:
    """Per-shard load and protocol counters of one sharded run."""

    def __init__(self, n_shards: int) -> None:
        self.n_shards = n_shards
        #: uplinks handled per shard (routing destination).
        self.uplinks = [0] * n_shards
        #: downlinks sent per shard (receiver's home shard).
        self.downlinks = [0] * n_shards
        #: area messages (broadcast / geocast) sent by the tier; every
        #: shard's base station transmits them, counted once here.
        self.area_sends = 0
        #: objects currently homed per shard (gauge, updated per tick).
        self.homed = [0] * n_shards
        #: queries currently owned per shard (gauge, updated per tick).
        self.owned = [0] * n_shards
        self.handoffs = 0
        self.handoff_retries = 0
        self.borrows = 0
        self.borrowed_candidates = 0
        self.forwards = 0
        self.migrations = 0
        # -- elastic rebalancing (stay 0 without a RebalancePolicy) ----
        #: rebalance cycles that migrated at least one cell.
        self.rebalances = 0
        #: fine cells migrated hot -> cold.
        self.cells_moved = 0
        #: home-table rows bulk-moved with their cells.
        self.rehomed_objects = 0
        # -- admission control (stay 0 without an AdmissionPolicy) -----
        #: uplinks deferred to the next tick by admission control.
        self.deferred_uplinks = 0
        # -- fault-tolerance counters (all stay 0 in fault-free runs) --
        #: buddy takeovers of a suspected-crashed shard.
        self.failovers = 0
        #: failed shards restored (restart heartbeat / healed partition).
        self.restores = 0
        #: queries whose ownership moved in a failover.
        self.queries_taken_over = 0
        #: uplinks shed by admission control.
        self.shed_uplinks = 0
        #: uplinks lost because no live base station covered the cell.
        self.lost_uplinks = 0
        #: unicast downlinks lost the same way.
        self.lost_downlinks = 0
        #: borrow exchanges that lost a leg on the backbone.
        self.lost_borrows = 0
        #: replication delta messages sent / heartbeats sent.
        self.replications = 0
        self.heartbeats = 0
        #: per-takeover replica staleness (takeover tick - replica tick).
        self.replication_lags: List[int] = []
        #: per-query degraded-window lengths, recorded when the window
        #: closes (re-publish or settle bound).
        self.recovery_latencies: List[int] = []
        # -- durability counters (PR 7; all stay 0 without restarts) ---
        #: shard processes that came back up (crash window ended).
        self.cold_restarts = 0
        #: uncovered cold restarts with no durable store: tables lost.
        self.amnesia_restarts = 0
        #: ownership entries dropped to amnesia (re-bootstrap needed).
        self.amnesia_queries = 0
        #: ownership entries retained through checkpoint + WAL replay.
        self.recovered_queries = 0


class _InnerChannelProxy:
    """Snoops the inner server's sends for per-shard downlink ledgering.

    The inner engine sends through ``self.channel``; this proxy sits in
    its ``_channel`` slot, forwards the sends to the real channel
    unchanged (same object, same RNG stream, same accounting), and
    attributes each downlink to the receiver's home shard. The engine
    reads nothing else off its channel but ``stats``.
    """

    __slots__ = ("_real", "_tier")

    def __init__(self, real, tier: "ShardedServer") -> None:
        self._real = real
        self._tier = tier

    def send(self, kind, src, dst, payload=None):
        msg = self._real.send(kind, src, dst, payload)
        self._tier._note_inner_send(dst, msg)
        return msg

    def send_batch(self, batch):
        # Columnar downlink flights hit the per-shard ledger like
        # scalar sends.
        batch = self._real.send_batch(batch)
        self._tier._note_inner_send_batch(batch)
        return batch

    @property
    def stats(self):
        return self._real.stats


class ShardedServer(ServerNodeBase):
    """Coordinator over S x S shard servers wrapping one algorithm engine.

    Attribute access not defined here (``meter``, ``answers``,
    ``repair_count``, ``degraded``, ...) delegates to the inner server,
    so the runner and accuracy tooling see the wrapped engine
    unchanged.
    """

    def __init__(
        self,
        inner,
        router: ShardRouter,
        stats,  # CommStats of the main channel (s2s bucket lives there)
        config: ShardConfig,
    ) -> None:
        super().__init__()
        self.inner = inner
        self.router = router
        self.shard_stats = ShardStats(router.n_shards)
        #: the :class:`~repro.net.faults.ShardFaultPlan`, or None. A
        #: disabled plan normalizes to None so every fault branch below
        #: is a plain ``is not None`` check — the bit-identity gate.
        plan = config.faults
        if plan is not None and not plan.enabled:
            plan = None
        self._fault_plan = plan
        rebalance, admission = config.rebalance, config.admission
        self.link = ShardLink(
            router.n_shards, stats, self._on_shard_message, fault_plan=plan
        )
        #: serving shard, shedding, deferral and downlink loss are
        #: per-message decisions (``ServerNodeBase.per_message``): such
        #: a loss can stall an exchange without a radio FaultPlan
        #: installed, and a batch cannot be adjudicated whole.
        #: Rebalancing alone keeps the plane — cell lookups vectorize.
        self.per_message = plan is not None or admission is not None
        self._telemetry = NULL_TELEMETRY
        self._tick = 0
        #: oid -> home shard of its last routed positional uplink, one
        #: int64 row per oid (-1 = never reported), grown on demand by
        #: :meth:`_home_table`.
        self._home = np.full(1, -1, dtype=np.int64)
        #: qid -> owning shard; a qid is absent until its focal object
        #: first reports a position. Single map = single owner, always.
        self._owner: Dict[int, int] = {}
        #: qid -> destination shard of an uncommitted handoff.
        self._handoff_pending: Dict[int, int] = {}
        #: qid -> (earliest tick the next handoff retransmit may fire,
        #: current backoff gap — doubles to _RETRY_GAP_CAP).
        self._retry: Dict[int, Tuple[int, int]] = {}
        #: jitter stream of the retry backoff — drawn only when a
        #: second retransmit of the same handoff fires, which a healthy
        #: backbone never reaches.
        self._backoff_rng = random.Random(
            (0 if plan is None else plan.seed) ^ 0xB0FF
        )
        # -- fault-tolerance state (inert without a plan) --------------
        #: shard -> last tick its buddy heard a heartbeat from it.
        self._last_heard: Dict[int, int] = {
            s: 0 for s in range(router.n_shards)
        }
        #: shards currently considered crashed by their watcher.
        self._failed: Set[int] = set()
        #: dead shard -> shard now covering its cell (and queries).
        self._covered_by: Dict[int, int] = {}
        #: qid -> freshness tick of the buddy's replica.
        self._replica: Dict[int, int] = {}
        #: qid -> last state snapshot shipped (delta detection).
        self._repl_sent: Dict[int, Any] = {}
        #: qid -> (tick flagged, answer snapshot at flag time); while
        #: present the tier reports the query degraded.
        self._degraded_overlay: Dict[int, Tuple[int, Tuple]] = {}
        #: per-shard uplinks accepted this tick (admission control).
        self._tick_uplinks: List[int] = [0] * router.n_shards
        #: backbone partitions active last tick (transition traces).
        self._active_partitions: Set[Tuple[int, int]] = set()
        #: ticks below this are tier-wide suspect: some shard was down
        #: or replaying recently enough that lost uplinks may still
        #: stale any answer. Every query stays flagged degraded and no
        #: window closes until the horizon passes. Stays 0 (inert)
        #: unless a shard actually goes down.
        self._suspect_until = 0
        #: the per-cell durable store (WAL + checkpoints), or None.
        #: Only built when the plan asks for it, so fault-free paths
        #: never touch it.
        self._durability: Optional[DurabilityManager] = (
            DurabilityManager(
                router.n_shards,
                plan.checkpoint_interval,
                plan.wal_replay_per_tick,
            )
            if plan is not None and plan.checkpoint_interval is not None
            else None
        )
        #: shards that were down last tick (restart-transition sweep).
        self._down_prev: Set[int] = set()
        #: shard -> first tick it is available again after WAL replay
        #: (absent or <= tick means not recovering).
        self._recovering_until: Dict[int, int] = {}
        #: focal oid -> qids anchored at it (from the inner registry).
        self._qids_by_focal: Dict[int, List[int]] = {}
        #: qid -> focal oid (reverse map, for restore hand-backs).
        self._focal_of: Dict[int, int] = {}
        #: oid -> anchors a query (its batch rows take :meth:`_report`).
        self._focal = np.zeros(1, dtype=bool)
        for spec in inner.queries:
            self._note_query(spec)
        #: the tier is the inner engine's ``ownership_probe``; the
        #: subround's repair circles (:meth:`repair_scope`) wait here.
        inner.ownership_probe = self
        self._scopes: List[Tuple[int, float, float, float, Any]] = []
        # -- elastic rebalancing (DESIGN §14) ---------------------------
        #: the :class:`~repro.server.config.RebalancePolicy`, or None.
        #: The partition itself (``router.owner``) is the same structure
        #: either way; without a policy nothing ever reassigns a cell.
        self._rebalance = rebalance
        #: per-cell uplinks since the last rebalance check — what the
        #: rebalancer decides from (counted, never read, without one).
        self._cell_window = np.zeros(router.owner.shape[0], dtype=np.int64)
        self._rebalance_rng = (
            random.Random(rebalance.seed ^ 0x5EBA)
            if rebalance is not None
            else None
        )
        #: windowed peak/mean uplink imbalance samples ``(tick, value)``
        #: — pure arithmetic over the uplink counters, kept for every
        #: sharded run so static and rebalancing tiers report the same
        #: gauge.
        self.imbalance_samples: List[Tuple[int, float]] = []
        self._imb_interval = (
            rebalance.check_interval
            if rebalance is not None
            else _IMBALANCE_WINDOW
        )
        self._imb_mark: List[int] = [0] * router.n_shards
        # -- admission control (inert when policy=None) ----------------
        #: the :class:`~repro.server.config.AdmissionPolicy`, or None.
        self._admission = admission
        #: per-shard FIFO of uplinks deferred to the next tick.
        self._deferred: Optional[List[Any]] = (
            [deque() for _ in range(router.n_shards)]
            if admission is not None
            else None
        )

    # -- telemetry plumbing -------------------------------------------------

    def _set_telemetry(self, value) -> None:
        # The simulator assigns ``server.telemetry`` on construction;
        # keep the inner engine on the same stream (a read falls through
        # to it in __getattr__).
        self._telemetry = value
        self.inner.telemetry = value

    telemetry = property(None, _set_telemetry)

    def __getattr__(self, name: str):
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    # -- simulator surface --------------------------------------------------

    # reach: a late registration on a built tier must reach the focal
    # maps, not slip past them into the inner server via __getattr__.
    def register_query(self, spec) -> None:
        self.inner.register_query(spec)
        self._note_query(spec)

    def _note_query(self, spec) -> None:
        oid = spec.focal_oid
        self._qids_by_focal.setdefault(oid, []).append(spec.qid)
        self._focal_of[spec.qid] = oid
        grow = max(oid + 1 - self._focal.shape[0], 0)
        self._focal = np.pad(self._focal, (0, grow))
        self._focal[oid] = True

    @property
    def degraded(self) -> Dict[int, bool]:
        """The inner engine's degraded map, overlaid with the tier's
        own annotations (stale-replica failovers, shed repairs, lost
        borrows). With no fault plan the overlay is empty, so this is
        exactly the inner map."""
        merged = dict(getattr(self.inner, "degraded", None) or {})
        for qid in self._degraded_overlay:
            merged[qid] = True
        return merged

    def on_tick_start(self, tick: int) -> None:
        self._tick = tick
        self.link.begin_tick(tick)
        if self._fault_plan is not None:
            self._fault_tick_start(tick)
        elif self._admission is not None:
            # The plan path resets the window in _fault_tick_start.
            self._tick_uplinks = [0] * self.router.n_shards
        self._retry_pending_handoffs()
        self.inner.on_tick_start(tick)
        if self._admission is not None:
            self._drain_deferred()

    def on_message(self, msg: Message) -> None:
        if self._route_uplink(msg):
            self.inner.on_message(msg)

    def on_uplink_batch(self, batch) -> bool:
        """Ingest one columnar uplink batch and ledger it per shard.

        Without this override, ``__getattr__`` would leak the batch
        straight to the inner engine and the routing ledger would miss
        the whole flight. If the inner engine declines, the simulator
        materializes the batch and every message takes the scalar
        ``on_message`` route, so nothing is ledgered here either. Only
        fault-free, admission-free runs see batches (``per_message``),
        so ``_route_uplink``'s serving/shedding branches cannot apply.
        A one-kind batch that names a query (``batch.qid``: collect
        replies) is declined: each reply may owe a forward, so it takes
        the scalar route. Any other one-kind batch is ingested whole,
        then ledgered; a report flight in runs (:meth:`_ledger_runs`).
        """
        if self.per_message or batch.qid is not None:
            return False
        handler = getattr(self.inner, "on_uplink_batch", None)
        if batch.kind is None:
            return handler is not None and self._ledger_runs(batch, handler)
        if handler is None or not handler(batch):
            return False
        return self._ledger_runs(batch, None)

    def _ledger_runs(self, batch, ingest) -> bool:
        """:meth:`_route_uplink` over a plan-free batch's rows in row
        order, interleaved with the inner engine's ``ingest`` of them
        (None: ingested already) as the scalar route interleaves it;
        False when ``ingest`` declines, before anything is ledgered.

        A focal row whose home changes (the only row that hands a query
        off or bootstraps its owner) takes :meth:`_report`, or is routed
        as its message (:meth:`_route_uplink`) and only then ingested,
        with the run after it, so its handoff exports what the rows
        before it wrote. Each run between two of them is ingested, then
        ledgered as one: homes scattered, migrations and forwards (rows
        naming a query another shard owns) sent as one batch each.
        Traced, a forwarded row is routed alone too: its
        ``shard.forward`` event precedes its row's server event.
        """
        srcs, n = batch.srcs, batch.count
        arr = self._home_table(int(srcs.max()) if n else 0)
        prev = arr[srcs]
        cells = None
        if batch.xs is None or n == 0:
            # Position-free uplinks keep their last home (0 if none).
            homes = np.maximum(prev, 0)
        else:
            cells = self.router.cells_of(batch.xs, batch.ys)
            homes = self.router.owner[cells]
        # a sender's later rows (contiguous) find the home its first set
        again = np.flatnonzero(srcs[1:] == srcs[:-1])
        prev[again + 1] = homes[again]
        changed = (prev != homes) if cells is not None else np.zeros(n, bool)
        stop = srcs < self._focal.shape[0]
        stop[stop] = self._focal[srcs[stop]]
        stop &= changed
        named = np.zeros(n, bool) if batch.qids is None else batch.qids >= 0
        if named.any():
            qids, at = np.unique(batch.qids, return_inverse=True)
        rest = np.ones(n, dtype=bool)  # rows not routed alone
        lo = start = 0  # the next row to ledger, and to ingest
        while True:
            fwd = named
            if named.any():
                owned = self._owner
                owner = np.array([owned.get(q, -1) for q in qids.tolist()])
                owner = owner[at]
                fwd = named & (owner >= 0) & (owner != homes)
            cuts = stop | fwd if self._telemetry.enabled else stop
            cut = lo + int(cuts[lo:].argmax()) if cuts[lo:].any() else n
            if ingest is not None and not ingest(batch.rows(start, cut)):
                if lo:
                    raise NetworkError("the inner engine declined a run")
                return False
            moved = lo + np.flatnonzero(changed[lo:cut])
            self._home[srcs[moved]] = homes[moved]
            moved = moved[prev[moved] >= 0]
            self.shard_stats.migrations += moved.shape[0]
            self.link.send_many(
                SHARD_MIGRATE, prev[moved], homes[moved], _MIGRATE_BYTES
            )
            sent = lo + np.flatnonzero(fwd[lo:cut])
            self.shard_stats.forwards += sent.shape[0]
            if sent.shape[0]:
                self.link.send_many(
                    SHARD_FORWARD, homes[sent], owner[sent],
                    batch.payload_nbytes[sent],
                )
            if cut == n:
                break
            if ingest is None:
                home = int(homes[cut])
                self._report(int(srcs[cut]), int(prev[cut]), home, home)
            else:
                rest[cut] = False
                self._route_uplink(batch.rows(cut, cut + 1).materialize()[0])
            lo, start = cut + 1, cut
        if cells is not None:
            self._cell_window += np.bincount(
                cells[rest], minlength=self._cell_window.shape[0]
            )
        up = self.shard_stats.uplinks
        counts = np.bincount(homes[rest], minlength=self.router.n_shards)
        for s, c in enumerate(counts.tolist()):
            if c:
                up[s] += c
        return True

    def on_subround(self, tick: int) -> None:
        self.inner.on_subround(tick)
        if self._scopes:
            self._flush_borrows()

    def busy(self) -> bool:
        return self.inner.busy()

    # reach: event mode on a sharded tier has no product row (DESIGN
    # §8, "Event mode without a product row")
    def event_idle(self, tick: int) -> bool:
        # Per-tick machinery on this tier vetoes skipping: a fault
        # plan (heartbeats, replication, checkpoints, delayed backbone
        # flights) or admission policy runs every tick; pending handoff
        # retries need their tick-start; a rebalance check
        # tick may move cells (and draws RNG); an imbalance-sample
        # tick must run in full whenever the window would be nonzero
        # (uplinks landed since the last mark), or the sample series
        # would diverge from tick mode.
        if self._fault_plan is not None or self._admission is not None:
            return False
        if self._handoff_pending:
            return False
        if (
            self._rebalance is not None
            and tick > 0
            and tick % self._rebalance.check_interval == 0
        ):
            return False
        if (
            tick > 0
            and tick % self._imb_interval == 0
            and list(self.shard_stats.uplinks) != self._imb_mark
        ):
            return False
        return self.inner.event_idle(tick)

    def on_tick_end(self, tick: int) -> None:
        self.inner.on_tick_end(tick)
        if self._fault_plan is not None:
            self._replicate(tick)
            self._checkpoint(tick)
        if (
            self._rebalance is not None
            and tick > 0
            and tick % self._rebalance.check_interval == 0
        ):
            self._run_rebalance(tick)
        if self._fault_plan is not None or self._admission is not None:
            self._settle_degraded(tick)
        self._sample_imbalance(tick)
        stats = self.shard_stats
        home = self._home
        stats.homed = np.bincount(
            home[home >= 0], minlength=self.router.n_shards
        ).tolist()
        stats.owned = [0] * self.router.n_shards
        for owner in self._owner.values():
            stats.owned[owner] += 1
        tel = self._telemetry
        if tel.enabled:
            tel.emit(
                tick,
                "shard.load",
                uplinks=list(stats.uplinks),
                downlinks=list(stats.downlinks),
                homed=list(stats.homed),
                owned=list(stats.owned),
            )
            if self._fault_plan is not None:
                tel.emit(
                    tick,
                    "shard.health",
                    failed=sorted(self._failed),
                    degraded=len(self._degraded_overlay),
                    shed=stats.shed_uplinks,
                    lost_uplinks=stats.lost_uplinks,
                    lost_downlinks=stats.lost_downlinks,
                )
            if self._durability is not None:
                tel.emit(
                    tick,
                    "shard.wal",
                    records=self._durability.wal_records_by_shard(),
                    bytes=self._durability.wal_bytes_by_shard(),
                )

    # -- elastic rebalancing + admission control (DESIGN §14) ----------------

    def _sample_imbalance(self, tick: int) -> None:
        """Append one windowed peak/mean uplink-imbalance sample.

        Pure arithmetic over counters already kept — no traces, no RNG
        — so running it unconditionally keeps disabled-rebalancing runs
        bit-identical while giving every sharded run the instantaneous
        skew the whole-run aggregate hides under drifting hotspots.
        """
        if tick <= 0 or tick % self._imb_interval != 0:
            return
        up = self.shard_stats.uplinks
        window = [a - b for a, b in zip(up, self._imb_mark)]
        self._imb_mark = list(up)
        total = sum(window)
        if total == 0:
            return
        value = max(window) / (total / self.router.n_shards)
        self.imbalance_samples.append((tick, value))

    def _run_rebalance(self, tick: int) -> None:
        """One rebalance cycle: migrate the best-fitting hot cells from
        the most-loaded shard to the least-loaded one.

        Deterministic given the load window and the policy seed (the
        RNG only breaks exact score ties). Composes with a fault plan:
        down / failed / covering / recovering shards neither donate nor
        receive cells this cycle.
        """
        policy = self._rebalance
        win = self._cell_window
        total = int(win.sum())
        if total < policy.min_window_uplinks:
            win[:] = 0
            return
        n = self.router.n_shards
        loads = np.zeros(n, dtype=np.int64)
        np.add.at(loads, self.router.owner, win)
        mean = total / n
        pre_imbalance = float(loads.max()) / mean
        plan = self._fault_plan
        if plan is not None:
            avail = np.array(
                [
                    s not in self._failed
                    and s not in self._covered_by
                    and not plan.is_down(s, tick)
                    and not self._is_recovering(s)
                    for s in range(n)
                ],
                dtype=bool,
            )
        else:
            avail = np.ones(n, dtype=bool)
        moves = 0
        for _ in range(policy.max_moves_per_cycle):
            if int(avail.sum()) < 2:
                break
            hot = int(np.where(avail, loads, -1).argmax())
            cold = int(np.where(avail, loads, total + 1).argmin())
            if loads[hot] < policy.trigger * mean:
                break
            gap = int(loads[hot] - loads[cold])
            if gap <= 0:
                break
            cells = np.nonzero(self.router.owner == hot)[0]
            if cells.shape[0] <= 1:
                # Never strip a shard of its last cell.
                avail[hot] = False
                continue
            heat = win[cells]
            cand = cells[(heat > 0) & (heat < gap)]
            if cand.shape[0] == 0:
                avail[hot] = False
                continue
            # The cell whose window load is closest to half the gap
            # narrows the imbalance the most; seeded tie-break.
            score = np.abs(win[cand].astype(np.float64) - gap / 2.0)
            best = cand[score == score.min()]
            if best.shape[0] == 1:
                cell = int(best[0])
            else:
                cell = int(self._rebalance_rng.choice(best.tolist()))
            self._move_cell(cell, hot, cold, tick)
            shift = int(win[cell])
            loads[hot] -= shift
            loads[cold] += shift
            moves += 1
        if moves:
            self.shard_stats.rebalances += 1
            tel = self._telemetry
            if tel.enabled:
                tel.emit(
                    tick,
                    "shard.rebalance",
                    moves=moves,
                    window_total=total,
                    imbalance=round(pre_imbalance, 4),
                )
        win[:] = 0

    def _move_cell(self, cell: int, src: int, dst: int, tick: int) -> int:
        """Migrate one fine cell ``src -> dst``: flip the assignment,
        bulk-move the home-table rows of objects last seen inside it —
        journaled as home loss + gain so a crash interleaved with the
        migration recovers through the WAL (§12 fencing) — and hand off
        the queries whose focal objects rode along through the normal
        ownership-transfer protocol. Returns the rows re-homed."""
        self.router.owner[cell] = dst
        moved = self._oids_in_cell(cell, src)
        for oid in moved:
            self._home[oid] = dst
            self._journal_home(src, oid, False)
            self._journal_home(dst, oid, True)
        handed = 0
        for oid in moved:
            for qid in self._qids_by_focal.get(oid, ()):
                if self._owner.get(qid) == src:
                    self._maybe_handoff(qid, dst)
                    handed += 1
        stats = self.shard_stats
        stats.cells_moved += 1
        stats.rehomed_objects += len(moved)
        self.link.send(
            SHARD_REBALANCE,
            src,
            dst,
            _REBALANCE_BYTES + _REBALANCE_ROW_BYTES * len(moved),
        )
        tel = self._telemetry
        if tel.enabled:
            tel.emit(
                tick,
                "shard.migrate",
                cell=cell,
                src_shard=src,
                dst_shard=dst,
                homes=len(moved),
                queries=handed,
            )
        return len(moved)

    def _oids_in_cell(self, cell: int, shard: int) -> List[int]:
        """Objects homed at ``shard`` whose last reported position lies
        in the fine cell, ascending oid: one mask over the home table
        and the table's position columns. A tableless inner server has
        no positions, so no rows."""
        table = getattr(self.inner, "table", None)
        if table is None:
            return []
        grid = table.grid
        n = min(self._home.shape[0], grid._dcell.shape[0])
        mask = (self._home[:n] == shard) & (grid._dcell[:n] >= 0)
        mask &= self.router.cells_of(grid._dx[:n], grid._dy[:n]) == cell
        return np.nonzero(mask)[0].tolist()

    def _admit(self, msg: Message, serving: int, qid: Optional[int]) -> bool:
        """Admission control: True admits the uplink into the engine;
        False deferred it to the next tick or shed it (ledgered,
        degraded-flagged, traced either way)."""
        adm = self._admission
        plan = self._fault_plan
        # The plan path already counted this uplink; back it out of the
        # acceptance check (and of the window, on rejection).
        counted = 1 if plan is not None else 0
        accepted = self._tick_uplinks[serving] - counted
        maxu = adm.max_uplinks_per_tick
        if accepted < maxu or (qid is None and accepted < 2 * maxu):
            if plan is None:
                self._tick_uplinks[serving] += 1
            return True
        if plan is not None:
            self._tick_uplinks[serving] -= 1
        stats = self.shard_stats
        q = self._deferred[serving]
        deferred = adm.defer and len(q) < 2 * maxu
        if deferred:
            q.append(msg)
            stats.deferred_uplinks += 1
        else:
            stats.shed_uplinks += 1
        if qid is not None:
            self._flag_degraded(qid)
        else:
            # A deferred/shed position report can silently stale any
            # answer the shard owns (the k-th neighbor that approached
            # unseen): flag them all for a settle window.
            for other in sorted(self._owner):
                if self._owner[other] == serving:
                    self._flag_degraded(other)
        tel = self._telemetry
        if tel.enabled:
            tel.emit(
                self._tick,
                "shard.defer" if deferred else "shard.shed",
                shard=serving,
                qid=qid,
                kind=msg.kind.value,
                overloaded=accepted >= 2 * maxu,
            )
        return False

    def _drain_deferred(self) -> None:
        """Deliver uplinks deferred by admission control, oldest first,
        within (and counted against) the new tick's budget."""
        adm = self._admission
        stats = self.shard_stats
        for s in range(self.router.n_shards):
            q = self._deferred[s]
            while q and self._tick_uplinks[s] < adm.max_uplinks_per_tick:
                msg = q.popleft()
                self._tick_uplinks[s] += 1
                stats.uplinks[s] += 1
                qid = getattr(msg.payload, "qid", None)
                if qid is not None:
                    self._forward(msg, qid, s)
                self.inner.on_message(msg)

    # -- fault machinery (every entry point gated on the plan) ---------------

    def _serving(self, shard: int) -> Optional[int]:
        """The live shard serving ``shard``'s cell right now.

        Follows the coverage-takeover chain (a watcher can itself fail
        and be covered), then returns None if the end of the chain is
        down — crashed but not yet failed over, watcher dead too, or
        still replaying its WAL after a cold restart.
        """
        seen: Set[int] = set()
        while shard in self._covered_by:
            if shard in seen:
                return None
            seen.add(shard)
            shard = self._covered_by[shard]
        plan = self._fault_plan
        if plan is not None and (
            shard in self._failed
            or plan.is_down(shard, self._tick)
            or self._is_recovering(shard)
        ):
            return None
        return shard

    def _is_recovering(self, shard: int) -> bool:
        """True while the shard is replaying its WAL (unavailable)."""
        return self._tick < self._recovering_until.get(shard, 0)

    def _fault_tick_start(self, tick: int) -> None:
        """Per-tick fault bookkeeping: admission-window reset,
        partition transition traces, heartbeats, crash detection."""
        plan = self._fault_plan
        n = self.router.n_shards
        self._tick_uplinks = [0] * n
        tel = self._telemetry
        active = set(plan.active_partitions(tick))
        if active != self._active_partitions:
            if tel.enabled:
                for a, b in sorted(active - self._active_partitions):
                    tel.emit(tick, "shard.partition", a=a, b=b, up=True)
                for a, b in sorted(self._active_partitions - active):
                    tel.emit(tick, "shard.partition", a=a, b=b, up=False)
            self._active_partitions = active
        # Down/up transitions: a shard whose crash window just ended
        # restarted its process — cold, unless a live buddy covered it.
        down_now = {s for s in range(n) if plan.is_down(s, tick)}
        for s in sorted(self._down_prev - down_now):
            self._cold_restart(s, tick)
        self._down_prev = down_now
        # WAL replays that just finished: the shard becomes available
        # and compacts (unless it crashed again mid-replay, in which
        # case the next restart starts a fresh recovery).
        for s in sorted(self._recovering_until):
            if self._recovering_until[s] <= tick:
                del self._recovering_until[s]
                if not plan.is_down(s, tick):
                    self._compact_after_recovery(s, tick)
        # Honest accounting, part 1: a query whose serving chain is
        # dead — the owner crashed and nobody covers it (yet) — is
        # unvouched from the first down tick, not only the takeover.
        # Part 2: while ANY shard is down or replaying its WAL, the
        # whole tier's object table is suspect — uplinks homed at the
        # dead cell are being lost, and a lost uplink can silently
        # stale the answer of a query owned by a perfectly healthy
        # shard (the k-th neighbor that approached unseen). No answer
        # can be vouched for until the outage ends AND the clients'
        # re-report cadence has had a settle window to heal the table,
        # so every query is flagged and no window closes before then.
        if down_now or self._recovering_until:
            self._suspect_until = tick + plan.recovery_settle_ticks + 1
        suspect = tick < self._suspect_until
        for qid in sorted(self._owner):
            if suspect or self._serving(self._owner[qid]) is None:
                self._flag_degraded(qid)
        if n < 2:
            return
        # Heartbeats first: an undelayed backbone delivers them before
        # the detection sweep below, so a live, reachable shard is
        # never suspected. A shard still replaying its WAL is not up
        # yet and stays silent.
        for s in range(n):
            if plan.is_down(s, tick) or self._is_recovering(s):
                continue
            self.shard_stats.heartbeats += 1
            self.link.send(
                SHARD_HEARTBEAT, s, self._buddy(s), _HEARTBEAT_BYTES
            )
        for s in range(n):
            if s in self._failed:
                continue
            watcher = self._buddy(s)
            if watcher in self._failed or plan.is_down(watcher, tick):
                continue  # a dead watcher suspects nothing
            if tick - self._last_heard[s] > plan.heartbeat_timeout:
                self._failover(s, watcher, tick)

    def _buddy(self, shard: int) -> int:
        """The deterministic replication buddy (and watcher) of a shard."""
        return (shard + 1) % self.router.n_shards

    def _failover(self, shard: int, watcher: int, tick: int) -> None:
        """``watcher`` declares ``shard`` crashed: take over its cell's
        radio coverage and its queries, replaying the replica."""
        self._failed.add(shard)
        self._covered_by[shard] = watcher
        moved = sorted(
            qid for qid, owner in self._owner.items() if owner == shard
        )
        lags = []
        for qid in moved:
            self._owner[qid] = watcher
            # The takeover is a ledger write the *watcher* performs: it
            # journals the gain on its own store and fences the dead
            # shard's store with a loss record (same mount rule as the
            # cell journal), so a later uncovered restart of the dead
            # shard cannot replay a query the watcher now owns.
            self._journal_own(shard, qid, False)
            self._journal_own(watcher, qid, True)
            rep_tick = self._replica.get(qid)
            if rep_tick is not None:
                lags.append(tick - rep_tick)
            self._flag_degraded(qid)
        # Handoffs in flight *towards* the dead shard retarget to the
        # covering watcher; the backoff retry picks them up.
        for qid, dst in list(self._handoff_pending.items()):
            if dst == shard:
                self._handoff_pending[qid] = watcher
        stats = self.shard_stats
        stats.failovers += 1
        stats.queries_taken_over += len(moved)
        stats.replication_lags.extend(lags)
        tel = self._telemetry
        if tel.enabled:
            tel.emit(
                tick,
                "shard.failover",
                shard=shard,
                by=watcher,
                queries=len(moved),
                max_replica_lag=max(lags) if lags else None,
            )

    def _restore(self, shard: int) -> None:
        """A heartbeat arrived from a failed shard (restart, or healed
        partition after a false suspicion): return its coverage, and
        hand back the queries whose focal objects live in its cell
        through the normal handoff machinery."""
        self._failed.discard(shard)
        self._covered_by.pop(shard, None)
        self._last_heard[shard] = self._tick
        self.shard_stats.restores += 1
        for qid in sorted(self._owner):
            focal = self._focal_of.get(qid)
            if focal is None:
                continue
            if self._home_of(focal) == shard and self._owner[qid] != shard:
                self._maybe_handoff(qid, shard)
        tel = self._telemetry
        if tel.enabled:
            tel.emit(self._tick, "shard.restore", shard=shard)

    def _cold_restart(self, shard: int, tick: int) -> None:
        """The shard's process came back up after a crash window.

        If a *live* watcher covered it, its state survived in the
        buddy's RAM and the restart heartbeat hands everything back
        (:meth:`_restore`) — losing the process RAM was moot. Uncovered
        — a correlated failure took the buddy too, a whole-tier
        restart, or a blip shorter than the suspicion timeout — the
        restart is **cold**: the process RAM is gone.

        Without a durable store the region's tables are lost (amnesia):
        its ownership and home entries drop from the ledger, the
        queries stay degraded until their focal objects' next reports
        re-bootstrap ownership. With one
        (``ShardFaultPlan.checkpoint_interval``), the shard re-mounts
        its cell's store and rebuilds the tables by checkpoint load +
        WAL replay: the ledger entries survive, the replay cost is
        accounted, and — with ``wal_replay_per_tick`` set — the shard
        serves nothing until the replay finishes.
        """
        stats = self.shard_stats
        stats.cold_restarts += 1
        covered = (
            shard in self._covered_by and self._serving(shard) is not None
        )
        owned = sorted(
            qid for qid, owner in self._owner.items() if owner == shard
        )
        homed = np.nonzero(self._home == shard)[0]
        dm = self._durability
        tel = self._telemetry
        if dm is not None:
            # Remount the cell's store: checkpoint load + WAL replay,
            # then compact (so the journal stays bounded even when the
            # crash window straddled the global checkpoint phase). A
            # covered restart replays too — its view is mostly fenced
            # own-loss records (the watcher holds the state and the
            # heartbeat hand-back returns it) — but the remount and
            # compaction are the same.
            view = dm.recover(shard)
            replay_ticks = dm.replay_ticks(view.replayed_records)
            if replay_ticks:
                self._recovering_until[shard] = tick + replay_ticks
            else:
                self._compact_after_recovery(shard, tick)
            if not covered:
                for qid in owned:
                    # The replayed state is as-of the last journaled
                    # write: stale by the crash window. Keep (or open)
                    # the degraded window, re-snapshotting the answer
                    # so it only closes on a republish *after* the
                    # recovery — not on drift that happened while the
                    # shard was dark.
                    self._flag_degraded(qid)
                    flagged, _ = self._degraded_overlay[qid]
                    self._degraded_overlay[qid] = (
                        flagged,
                        tuple(self.inner.answers.get(qid, ())),
                    )
                stats.recovered_queries += len(owned)
            if tel.enabled:
                tel.emit(
                    tick,
                    "shard.recover",
                    shard=shard,
                    mode="wal",
                    covered=covered,
                    checkpoint_tick=view.checkpoint_tick,
                    wal_records=view.replayed_records,
                    wal_bytes=view.replayed_bytes,
                    queries=0 if covered else len(owned),
                    homes=len(homed),
                    replay_ticks=replay_ticks,
                )
            return
        if covered:
            return  # a live buddy held the state; _restore hands back
        for qid in owned:
            del self._owner[qid]
            self._repl_sent.pop(qid, None)
            self._flag_degraded(qid)
            flagged, _ = self._degraded_overlay[qid]
            self._degraded_overlay[qid] = (
                flagged,
                tuple(self.inner.answers.get(qid, ())),
            )
        self._home[homed] = -1
        stats.amnesia_restarts += 1
        stats.amnesia_queries += len(owned)
        if tel.enabled:
            tel.emit(
                tick,
                "shard.recover",
                shard=shard,
                mode="amnesia",
                queries=len(owned),
                homes=len(homed),
            )

    def _compact_after_recovery(self, shard: int, tick: int) -> None:
        """Checkpoint one shard right after its store remount, so the
        replayed journal never carries over (and a crash window that
        straddled the global checkpoint phase can't stretch the WAL
        past one interval of live ticks)."""
        dm = self._durability
        queries = {
            qid: self.inner.export_query_state(qid)
            for qid in sorted(self._owner)
            if self._owner[qid] == shard
        }
        homes = np.nonzero(self._home == shard)[0].tolist()
        nbytes = dm.checkpoint(shard, tick, queries, homes)
        tel = self._telemetry
        if tel.enabled:
            tel.emit(
                tick,
                "shard.checkpoint",
                shard=shard,
                queries=len(queries),
                homes=len(homes),
                bytes=nbytes,
                after_recovery=True,
            )

    def _journal_own(self, shard: int, qid: int, gained: bool) -> None:
        """Journal an ownership mutation to the shard's durable store.

        Every site that assigns ``_owner[qid]`` journals a gain on the
        new owner and a loss on the previous one; the gain record
        carries the current exported state, so WAL replay rebuilds the
        query without a separate snapshot. The writer is always live at
        write time (no code path assigns ownership to a down shard), so
        no liveness check is needed here.
        """
        dm = self._durability
        if dm is None:
            return
        dm.journal_own(
            shard,
            self._tick,
            qid,
            self.inner.export_query_state(qid) if gained else None,
        )

    def _journal_home(self, shard: int, oid: int, present: bool) -> None:
        """Journal a home-table mutation to the *cell's* durable store.

        The store is per cell; whichever live server currently serves
        the cell (the shard itself, or its covering watcher) holds the
        mount and appends — so home rows of a covered cell keep being
        journaled while its own server is down.
        """
        dm = self._durability
        if dm is None:
            return
        dm.journal_home(shard, self._tick, oid, present)

    def _flag_degraded(self, qid: int, answer=None) -> None:
        """Open a degraded window: the published answer (or ``answer``,
        the one a repair started from) may be stale (failover replica,
        shed repair, lost borrow). Closed by :meth:`_settle_degraded`."""
        if qid not in self._degraded_overlay:
            if answer is None:
                answer = tuple(self.inner.answers.get(qid, ()))
            self._degraded_overlay[qid] = (self._tick, answer)

    def _replicate(self, tick: int) -> None:
        """Stream changed query-state snapshots to each owner's buddy,
        and journal them to the owner's durable store when one exists
        (same delta detection, no extra export)."""
        plan = self._fault_plan
        dm = self._durability
        for qid in sorted(self._owner):
            owner = self._owner[qid]
            if plan.is_down(owner, tick) or self._is_recovering(owner):
                continue  # a dead owner replicates (and journals) nothing
            state = self.inner.export_query_state(qid)
            if dm is not None:
                dm.journal_state(owner, tick, qid, state)
            if self._repl_sent.get(qid) == state:
                continue  # unchanged since the last delivered delta
            self.shard_stats.replications += 1
            sent = self.link.send(
                SHARD_REPLICATE,
                owner,
                self._buddy(owner),
                payload_size(state),
                payload=(qid,),
            )
            if sent is not None:
                # Only a delta the backbone accepted counts as shipped;
                # a dropped one stays dirty and retries next tick, so a
                # lossy link can delay — but never permanently lose —
                # the buddy's replica.
                self._repl_sent[qid] = state

    def _checkpoint(self, tick: int) -> None:
        """Write each live shard's compacting checkpoint when due."""
        dm = self._durability
        if dm is None or not dm.due(tick):
            return
        plan = self._fault_plan
        n = self.router.n_shards
        queries_by: List[Dict[int, Any]] = [{} for _ in range(n)]
        for qid in sorted(self._owner):
            queries_by[self._owner[qid]][qid] = (
                self.inner.export_query_state(qid)
            )
        tel = self._telemetry
        for s in range(n):
            if plan.is_down(s, tick) or self._is_recovering(s):
                continue  # a dead disk writes nothing new
            homes = np.nonzero(self._home == s)[0].tolist()
            nbytes = dm.checkpoint(s, tick, queries_by[s], homes)
            if tel.enabled:
                tel.emit(
                    tick,
                    "shard.checkpoint",
                    shard=s,
                    queries=len(queries_by[s]),
                    homes=len(homes),
                    bytes=nbytes,
                )

    def _settle_degraded(self, tick: int) -> None:
        """Close degraded windows: the query re-published a different
        answer, or the settle bound elapsed — but only while a live
        shard serves it (a query of a dead, uncovered shard stays
        degraded) and only once the tier-wide suspicion horizon has
        passed (a republish *during* an outage may be a repair against
        a table that is still missing lost uplinks)."""
        if tick < self._suspect_until:
            return
        plan = self._fault_plan
        settle = (
            _ADMISSION_SETTLE_TICKS
            if plan is None
            else plan.recovery_settle_ticks
        )
        stats = self.shard_stats
        tel = self._telemetry
        for qid in list(self._degraded_overlay):
            owner = self._owner.get(qid)
            if owner is None or self._serving(owner) is None:
                continue
            flagged, snap = self._degraded_overlay[qid]
            current = tuple(self.inner.answers.get(qid, ()))
            republished = current != snap and bool(current)
            if republished or tick - flagged >= settle:
                del self._degraded_overlay[qid]
                stats.recovery_latencies.append(tick - flagged)
                if tel.enabled:
                    tel.emit(
                        tick,
                        "shard.recovered",
                        qid=qid,
                        ticks=tick - flagged,
                        republished=republished,
                    )

    # -- routing ------------------------------------------------------------

    def _home_table(self, max_oid: int):
        """The home table, grown (fill -1) to cover ``max_oid``."""
        arr = self._home
        if max_oid >= arr.shape[0]:
            grown = np.full(
                max(max_oid + 1, arr.shape[0] * 2), -1, dtype=np.int64
            )
            grown[: arr.shape[0]] = arr
            self._home = arr = grown
        return arr

    def _home_of(self, oid: int) -> int:
        """One home row (-1 = never reported)."""
        arr = self._home
        return int(arr[oid]) if oid < arr.shape[0] else -1

    def _report(self, src: int, prev: int, home: int, serving: int) -> None:
        """Ledger one positional report of ``src``: the only place a
        report changes a home row (``prev -> home``, journaled, the
        dead-reckoning entry migrating over the backbone when the
        object crossed a shard boundary, its queries handed to
        ``serving``) or bootstraps ownership. The row must exist
        (:meth:`_home_table`)."""
        focal_of = self._qids_by_focal.get(src, ())
        if prev < 0:
            self._home[src] = home
            self._journal_home(home, src, True)
        elif prev != home:
            self._home[src] = home
            self._journal_home(prev, src, False)
            self._journal_home(home, src, True)
            self.shard_stats.migrations += 1
            self.link.send(SHARD_MIGRATE, prev, home, _MIGRATE_BYTES)
            for qid in focal_of:
                self._maybe_handoff(qid, serving)
        for qid in focal_of:
            if qid not in self._owner and qid not in self._handoff_pending:
                # First focal report: ownership bootstraps on the shard
                # serving the focal's home cell, no transfer needed.
                self._owner[qid] = serving
                self._journal_own(serving, qid, True)

    def _forward(self, msg: Message, qid: int, serving: int) -> None:
        """An uplink naming ``qid`` landed on ``serving``: if another
        shard owns the query, relay the whole client message to it over
        the backbone."""
        owner = self._owner.get(qid)
        if owner is None or owner == serving:
            return
        self.shard_stats.forwards += 1
        self.link.send(SHARD_FORWARD, serving, owner, msg.size - HEADER_BYTES)
        tel = self._telemetry
        if tel.enabled:
            tel.emit(
                self._tick,
                "shard.forward",
                qid=qid,
                kind=msg.kind.value,
                src_shard=serving,
                dst_shard=owner,
            )

    def _route_uplink(self, msg: Message) -> bool:
        """Route one client uplink to its home shard; ledger the load,
        migrations, ownership changes and cross-shard forwards.

        Returns False when a fault swallowed the uplink — no live base
        station covers the sender's cell, or admission control shed it
        — in which case the inner engine never sees the message. With
        no fault plan this always returns True on exactly the fault-
        free code path.
        """
        payload = msg.payload
        src = msg.src
        plan = self._fault_plan
        x = getattr(payload, "x", None)
        if x is not None:
            cell = self.router.cell_of(x, payload.y)
            self._cell_window[cell] += 1
            home = int(self.router.owner[cell])
        else:
            home = max(self._home_of(src), 0)
        qid = getattr(payload, "qid", None)
        if plan is not None:
            serving = self._serving(home)
            if serving is None:
                # The cell's base station is down and nobody covers it
                # (yet): the transmission dies in the air.
                self.shard_stats.lost_uplinks += 1
                return False
            shed = plan.shed_uplinks_per_tick
            if shed is not None:
                accepted = self._tick_uplinks[serving]
                overloaded = accepted >= 2 * shed
                if overloaded or (accepted >= shed and qid is not None):
                    # Past the threshold the shard sheds query-carrying
                    # (repair) uplinks first; past twice the threshold,
                    # everything.
                    self.shard_stats.shed_uplinks += 1
                    if qid is not None:
                        self._flag_degraded(qid)
                    tel = self._telemetry
                    if tel.enabled:
                        tel.emit(
                            self._tick,
                            "shard.shed",
                            shard=serving,
                            qid=qid,
                            kind=msg.kind.value,
                            overloaded=overloaded,
                        )
                    return False
            self._tick_uplinks[serving] += 1
        else:
            serving = home
        if x is not None:
            self._report(src, int(self._home_table(src)[src]), home, serving)
        if self._admission is not None and not self._admit(
            msg, serving, qid
        ):
            return False
        self.shard_stats.uplinks[serving] += 1
        if qid is not None:
            self._forward(msg, qid, serving)
        return True

    def _note_inner_send(self, dst: int, msg=None) -> None:
        """Ledger one send of the inner engine against a shard.

        With a fault plan, a unicast downlink into a dead, uncovered
        cell is lost: the tier pops it back off the radio queue (only
        if it is still the freshly-appended tail — a radio FaultPlan
        may already have dropped or delayed it) and records the drop.
        Broadcast/geocast are transmitted by every live base station
        and stay unaffected.
        """
        if dst >= 0:
            home = max(self._home_of(dst), 0)
            if self._fault_plan is not None:
                serving = self._serving(home)
                if serving is None:
                    self.shard_stats.lost_downlinks += 1
                    channel = self.__dict__.get("_channel")
                    queue = getattr(channel, "_queue", None)
                    if msg is not None and queue and queue[-1] is msg:
                        queue.pop()
                        channel.stats.record_drop(msg)
                    return
                self.shard_stats.downlinks[serving] += 1
                return
            self.shard_stats.downlinks[home] += 1
        else:
            self.shard_stats.area_sends += 1

    def _note_inner_send_batch(self, batch) -> None:
        """Ledger one columnar downlink flight of the inner engine.

        Batches exist only fault-free, so this is the plan-less arm of
        :meth:`_note_inner_send` vectorized: one downlink per recipient,
        attributed to the recipient's home shard (unknown homes ledger
        to shard 0).
        """
        dsts = batch.dsts
        if dsts is None or dsts.shape[0] == 0:
            return  # inner engines only batch downlinks
        arr = self._home_table(int(dsts.max()))
        homes = np.maximum(arr[dsts], 0)
        dl = self.shard_stats.downlinks
        counts = np.bincount(homes, minlength=self.router.n_shards)
        for s, c in enumerate(counts.tolist()):
            if c:
                dl[s] += c

    # -- query handoff -------------------------------------------------------

    def _maybe_handoff(self, qid: int, new_home: int) -> None:
        """The focal's home changed: start (or retarget) the handoff."""
        owner = self._owner.get(qid)
        if owner is None:
            if qid not in self._handoff_pending:
                self._owner[qid] = new_home
                self._journal_own(new_home, qid, True)
            return
        if owner == new_home:
            # The focal swung back before the transfer committed; any
            # in-flight copy is ignored on arrival (superseded check).
            self._clear_handoff(qid)
            return
        pending = self._handoff_pending.get(qid)
        if pending == new_home:
            return  # already in flight to the right shard
        self._handoff_pending[qid] = new_home
        self._send_handoff(qid, owner, new_home)

    def _clear_handoff(self, qid: int) -> None:
        """Forget a pending handoff: committed, superseded or moot."""
        self._handoff_pending.pop(qid, None)
        self._retry.pop(qid, None)

    def _send_handoff(self, qid: int, owner: int, dst: int) -> None:
        state = self.inner.export_query_state(qid)
        nbytes = payload_size(state)
        self.inner.meter.charge(CostMeter.HANDOFF)
        # Fresh-send schedule: a copy that may merely be delayed (not
        # dropped) gets the link's latency, then the first retransmit
        # is eligible — the same tick it fired before backoff existed.
        self._retry[qid] = (self._tick + self.link.delay_ticks + 1, 1)
        self.link.send(
            SHARD_HANDOFF, owner, dst, nbytes, payload=(qid, dst)
        )

    def _retry_pending_handoffs(self) -> None:
        """Re-send handoffs lost on the backbone, with seeded
        exponential backoff.

        Ownership never moved — the old owner still holds the query —
        so the retry re-exports the current state and tries again. The
        first retransmit fires one tick after the link's latency
        window (exactly the pre-backoff schedule, so a healthy
        backbone is bit-identical); each further retransmit doubles
        the gap up to ``_RETRY_GAP_CAP`` plus seeded jitter, so a
        partitioned backbone sees a thinning retry stream instead of a
        storm.
        """
        for qid in sorted(self._handoff_pending):
            owner = self._owner.get(qid)
            dst = self._handoff_pending[qid]
            if owner is None or owner == dst:
                self._clear_handoff(qid)
                continue
            at, gap = self._retry[qid]
            if self._tick < at:
                continue  # in flight, or backing off
            self.shard_stats.handoff_retries += 1
            gap = min(gap * 2, _RETRY_GAP_CAP)
            self._send_handoff(qid, owner, dst)
            # Override the fresh-send schedule with the widened gap
            # (the jitter draw happens only here, on an actual
            # retransmit — never on a healthy backbone).
            wait = self.link.delay_ticks + gap
            wait += self._backoff_rng.randrange(gap)
            self._retry[qid] = (self._tick + wait, gap)

    def _on_shard_message(self, msg: ShardMessage) -> None:
        """Backbone delivery handler (synchronous or via begin_tick)."""
        plan = self._fault_plan
        if plan is not None and plan.is_down(msg.dst_shard, self._tick):
            # A delayed message arriving at a shard that crashed while
            # it was in flight is dead-lettered.
            self.link.dropped += 1
            self.link.crash_dropped += 1
            return
        if msg.kind == SHARD_HEARTBEAT:
            self._last_heard[msg.src_shard] = self._tick
            if msg.src_shard in self._failed:
                self._restore(msg.src_shard)
            return
        if msg.kind == SHARD_REPLICATE:
            self._replica[msg.payload[0]] = msg.sent_tick
            return
        if msg.kind == SHARD_HANDOFF:
            qid, dst = msg.payload
            if self._handoff_pending.get(qid) != dst:
                return  # superseded while in flight (focal moved again)
            # Commit: the destination shard installed the state; the
            # single owner map flips in one assignment, so at no point
            # do two shards own the query.
            self._clear_handoff(qid)
            src = self._owner.get(qid)
            self._owner[qid] = dst
            if src is not None:
                self._journal_own(src, qid, False)
            self._journal_own(dst, qid, True)
            self.shard_stats.handoffs += 1
            self.link.send(
                SHARD_HANDOFF_ACK, dst, msg.src_shard, _ACK_BYTES
            )
            tel = self._telemetry
            if tel.enabled:
                tel.emit(
                    self._tick,
                    "shard.handoff",
                    qid=qid,
                    src_shard=src,
                    dst_shard=dst,
                    state_bytes=msg.size - HEADER_BYTES,
                )
        # HANDOFF_ACK / BORROW / BORROW_REPLY / FORWARD / MIGRATE need
        # no coordinator action beyond the accounting already done at
        # send time: the inner engine holds the authoritative state.

    # -- candidate borrowing --------------------------------------------------

    def _circle_counts(self, cx, cy, radius):
        """Per circle of the float columns and per shard, the objects
        homed there that the table places inside it: one pass over the
        members of the cells under the circles' boxes, one bincount
        over ``(circle, home)``, nothing charged. A negative radius
        holds nothing; a tableless inner server has no positions."""
        m, n_shards = cx.shape[0], self.router.n_shards
        table = getattr(self.inner, "table", None)
        if table is None:
            return np.zeros((m, n_shards), dtype=np.int64)
        grid = table.grid
        arr = self._home
        row, ci, cj = grid.box_cells(
            *grid.boxes(cx, cy, np.maximum(radius, 0.0))
        )
        ids, at = grid._store.gather_sources(ci * grid.cells + cj)
        row = row[at]
        keep = ids < arr.shape[0]
        ids, row = ids[keep], row[keep]
        homes = arr[ids]
        dx = grid._dx[ids] - cx[row]
        dy = grid._dy[ids] - cy[row]
        r = radius[row]
        mask = (homes >= 0) & (r >= 0) & (dx * dx + dy * dy <= r * r)
        return np.bincount(
            row[mask] * n_shards + homes[mask], minlength=m * n_shards
        ).reshape(m, n_shards)

    def repair_scope(
        self, qid: int, cx: float, cy: float, radius: float
    ) -> None:
        """The inner engine's ``ownership_probe`` seam: a repair reads
        the table over a circle, so it borrows the members of every
        other shard the circle overlaps — sized and sent when the
        subround ends (:meth:`_flush_borrows`). Under a fault plan a
        lost leg flags the answer the repair started from."""
        answer = self._fault_plan and tuple(self.inner.answers.get(qid, ()))
        self._scopes.append((qid, cx, cy, radius, answer))

    def _flush_borrows(self) -> None:
        """Size, charge and send the borrows of the subround's repair
        circles, in the order the repairs named them. Exact, because
        inside a subround the owner map, the home table, ``router.owner``
        and the table's positions are read-only (ingest and handoff
        commits run between subrounds, rebalancing at tick end; the
        inner ``on_subround`` never writes the grid)."""
        scopes, self._scopes = self._scopes, []
        qids, cx, cy, radius, answers = zip(*scopes)
        router, owner = self.router, self._owner
        # a query nobody owns yet borrows for the shard under the centre
        owners = np.array([
            owner[q] if q in owner else router.shard_of(x, y)
            for q, x, y in zip(qids, cx, cy)
        ])
        cx, cy, radius = np.array(cx), np.array(cy), np.array(radius)
        remote = router.shards_overlapping(cx, cy, radius)
        remote[np.arange(owners.shape[0]), owners] = False
        rows, sids = np.nonzero(remote)
        if not rows.shape[0]:
            return
        need = np.flatnonzero(remote.any(axis=1))
        counts = self._circle_counts(cx[need], cy[need], radius[need])
        srcs = owners[rows]
        sizes = counts[np.searchsorted(need, rows), sids]
        stats = self.shard_stats
        stats.borrows += rows.shape[0]
        stats.borrowed_candidates += int(sizes.sum())
        self.inner.meter.charge(CostMeter.BORROW, rows.shape[0])
        link, plan, tel = self.link, self._fault_plan, self._telemetry
        batched = plan is None
        if batched:
            link.send_many(SHARD_BORROW, srcs, sids, _BORROW_REQ_BYTES)
            link.send_many(SHARD_BORROW_REPLY, sids, srcs, 8 + 20 * sizes)
        traced = tel.enabled
        if batched and not traced:
            return
        for row, src, sid, n in zip(
            rows.tolist(), srcs.tolist(), sids.tolist(), sizes.tolist()
        ):
            if not batched:
                # leg by leg: the reply only if the request survived
                reply = link.send(SHARD_BORROW, src, sid, _BORROW_REQ_BYTES)
                if reply is not None:
                    reply = link.send(SHARD_BORROW_REPLY, sid, src, 8 + 20 * n)
                if reply is None:
                    # A lost leg: the answer may miss the lender's
                    # candidates — flag it instead of staying silent.
                    stats.lost_borrows += 1
                    self._flag_degraded(qids[row], answers[row])
            if traced:
                tel.emit(
                    self._tick,
                    "shard.borrow",
                    qid=qids[row],
                    owner=src,
                    lender=sid,
                    candidates=n,
                )


def shard_attach(sim, config: ShardConfig) -> ShardedServer:
    """Wrap a built simulator's server in a sharded tier, in place.

    ``config`` is the :class:`~repro.server.config.ShardConfig`: shard
    count, rebalance / admission policies and the fault plan, which
    carries the backbone faults and the durability cadence.

    The inner server keeps its channel registration (same SERVER_ID
    address); the wrapper takes its place as the simulator's server and
    interposes the downlink-ledger proxy on the inner
    engine's channel slot. A tier that decides per message (a fault
    plan or an admission policy) takes the client phase away: the
    simulator runs the per-object loop, as it does over a radio fault
    plan (``repro.net.simulator.ClientPhase``), over nodes built when
    it first needs them. Returns the installed :class:`ShardedServer`.
    """
    if not isinstance(config, ShardConfig):
        raise ConfigError(
            f"shard_attach takes a ShardConfig, got {config!r}"
        )
    inner = sim.server
    if isinstance(inner, ShardedServer):
        raise NetworkError("simulator already has a sharded server tier")
    rebalance = config.rebalance
    router = ShardRouter(
        sim.fleet.universe,
        config.shards,
        rebalance.cells_per_shard if rebalance is not None else 1,
    )
    tier = ShardedServer(inner, router, sim.channel.stats, config)
    # Share the already-registered SERVER_ID address: assign the channel
    # slot directly (attach() would re-register and raise).
    tier._channel = sim.channel
    inner._channel = _InnerChannelProxy(sim.channel, tier)
    tier.telemetry = sim.telemetry
    sim.server = tier  # the simulator's receiver lookup reads this slot
    if tier.per_message and sim.client_phase is not None:
        if sim.tick:
            # the phase's columns are the only copy of the nodes' state
            raise NetworkError(
                "a per-message tier runs the per-object loop: attach it "
                "before the first tick"
            )
        sim.client_phase = None
        sim.mobiles.held_by = None
    return tier
