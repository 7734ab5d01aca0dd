"""Fault injection for the simulated network.

The seed protocol stack assumes a perfect radio: :class:`~repro.net.
channel.Channel` never loses, duplicates, or reorders a message, and a
node never disappears. This module supplies the adversary:

:class:`FaultPlan`
    A frozen, seeded description of everything that can go wrong —
    per-direction drop probabilities, duplication and extra-delay
    probabilities, node *blackout windows* (a node neither sends nor
    receives for ``[t0, t1)``), and permanent node crashes. Plans are
    deterministic: the same plan applied to the same message stream
    makes the same decisions, so faulty runs are exactly reproducible.

:class:`FaultyChannel`
    A drop-in :class:`Channel` subclass that consults the plan on every
    ``send`` and records per-kind drop/duplicate/delay counts in
    :class:`~repro.net.stats.CommStats`.

:class:`ShardFaultPlan`
    The *server-side* counterpart: a frozen, seeded description of what
    can go wrong in the sharded server tier — shard-server crash /
    restart windows, backbone message drop and delay, backbone
    **partitions** between shard pairs, and admission-control (load
    shedding) thresholds. Consumed by
    :class:`~repro.server.sharding.ShardedServer` and
    :class:`~repro.net.shardlink.ShardLink`; plumbed through
    ``RunConfig(shard=ShardConfig(faults=...))``. A disabled plan (the default
    ``ShardFaultPlan()``) takes exactly the fault-free code paths, so
    the sharded tier's bit-identity contract is preserved.

The simulator (:class:`~repro.net.simulator.RoundSimulator`) accepts a
``faults=`` plan directly, builds the faulty channel, and additionally
skips dispatch to (and tick hooks of) blacked-out or crashed nodes.

**Zero-fault bit-identity.** A disabled plan (all probabilities zero,
no blackouts, no crashes — the default ``FaultPlan()``) never draws
from the random stream and takes exactly the non-faulty code paths, so
a simulation with ``faults=FaultPlan()`` (or ``faults=None``) produces
byte-identical message streams, :class:`CommStats` and answers to the
seed behavior. ``tests/test_net_faults.py`` pins this guarantee.

Drop semantics by direction: ``drop_uplink`` applies to object->server
messages; ``drop_downlink`` applies to server->object messages *and*
to broadcast/geocast transmissions as a whole (a lost broadcast is lost
at the transmitter — per-receiver loss is modeled with blackouts).
"""

from __future__ import annotations

import difflib
import random
from typing import Deque, List, Optional, Set, Tuple

from repro.errors import FaultError
from repro.net.channel import Channel
from repro.net.message import Message, MessageKind

__all__ = ["FaultPlan", "FaultyChannel", "ShardFaultPlan"]

_PROB_FIELDS = ("drop_uplink", "drop_downlink", "dup_prob", "delay_prob")


class FaultPlan:
    """Deterministic, seeded description of network/node faults.

    Parameters
    ----------
    seed:
        Seed of the fault-decision stream (independent of the workload
        seed so the same faults can be replayed across algorithms).
    drop_uplink, drop_downlink:
        Per-message loss probability by direction (broadcast/geocast
        count as downlink).
    dup_prob:
        Probability a successfully sent message is delivered twice.
    delay_prob, delay_ticks:
        Probability a successfully sent message is held back an extra
        ``delay_ticks`` ticks before entering the delivery queue.
    blackouts:
        Tuples ``(node_id, t0, t1)``: the node neither sends nor
        receives during ``[t0, t1)``.
    crashes:
        Tuples ``(node_id, tick)``: the node is permanently down from
        ``tick`` on.
    until_tick:
        If set, the probabilistic faults (drop/dup/delay) apply only to
        ticks ``< until_tick`` — the knob the recovery experiments and
        the re-convergence property test use to make faults *cease*.
        Blackouts keep their own windows; crashes are permanent.
    """

    __slots__ = (
        "seed",
        "drop_uplink",
        "drop_downlink",
        "dup_prob",
        "delay_prob",
        "delay_ticks",
        "blackouts",
        "crashes",
        "until_tick",
    )

    def __init__(
        self,
        seed: int = 0,
        drop_uplink: float = 0.0,
        drop_downlink: float = 0.0,
        dup_prob: float = 0.0,
        delay_prob: float = 0.0,
        delay_ticks: int = 1,
        blackouts: Tuple[Tuple[int, int, int], ...] = (),
        crashes: Tuple[Tuple[int, int], ...] = (),
        until_tick: Optional[int] = None,
    ) -> None:
        self.seed = int(seed)
        self.drop_uplink = float(drop_uplink)
        self.drop_downlink = float(drop_downlink)
        self.dup_prob = float(dup_prob)
        self.delay_prob = float(delay_prob)
        self.delay_ticks = int(delay_ticks)
        self.blackouts = tuple(
            (int(n), int(t0), int(t1)) for n, t0, t1 in blackouts
        )
        self.crashes = tuple((int(n), int(t)) for n, t in crashes)
        self.until_tick = until_tick
        for name in _PROB_FIELDS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise FaultError(f"{name} must be in [0, 1], got {p}")
        if self.delay_ticks < 1:
            raise FaultError(
                f"delay_ticks must be >= 1, got {self.delay_ticks}"
            )
        for node, t0, t1 in self.blackouts:
            if t0 >= t1:
                raise FaultError(
                    f"empty blackout window [{t0}, {t1}) for node {node}"
                )
        for node, t in self.crashes:
            if t < 0:
                raise FaultError(f"negative crash tick {t} for node {node}")
        if until_tick is not None and until_tick < 0:
            raise FaultError(f"negative until_tick {until_tick}")

    # -- queries -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True if this plan can ever perturb a run."""
        return (
            any(getattr(self, name) > 0.0 for name in _PROB_FIELDS)
            or bool(self.blackouts)
            or bool(self.crashes)
        )

    def lossy_at(self, tick: int) -> bool:
        """True if the probabilistic faults apply at ``tick``."""
        if self.until_tick is not None and tick >= self.until_tick:
            return False
        return any(getattr(self, name) > 0.0 for name in _PROB_FIELDS)

    def is_down(self, node_id: int, tick: int) -> bool:
        """True if ``node_id`` neither sends nor receives at ``tick``."""
        for node, t0, t1 in self.blackouts:
            if node == node_id and t0 <= tick < t1:
                return True
        for node, t in self.crashes:
            if node == node_id and tick >= t:
                return True
        return False

    # reach: the whole-fleet form the broadcast receiver count uses; no
    # product row broadcasts under a radio FaultPlan
    def down_at(self, tick: int) -> Set[int]:
        """Every node that is down at ``tick`` — ``{i : is_down(i,
        tick)}`` in one walk of the plan, for callers that would
        otherwise ask :meth:`is_down` once per node of a fleet."""
        down = {node for node, t0, t1 in self.blackouts if t0 <= tick < t1}
        down.update(node for node, t in self.crashes if tick >= t)
        return down

    def drop_prob(self, msg: Message) -> float:
        return (
            self.drop_uplink
            if msg.direction() == "uplink"
            else self.drop_downlink
        )

    def __repr__(self) -> str:
        if not self.enabled:
            return "FaultPlan(disabled)"
        return (
            f"FaultPlan(seed={self.seed}, drop_up={self.drop_uplink:g}, "
            f"drop_down={self.drop_downlink:g}, dup={self.dup_prob:g}, "
            f"delay={self.delay_prob:g}x{self.delay_ticks}, "
            f"blackouts={len(self.blackouts)}, crashes={len(self.crashes)}, "
            f"until={self.until_tick})"
        )


class FaultyChannel(Channel):
    """A :class:`Channel` whose ``send`` consults a :class:`FaultPlan`.

    Dropped messages are accounted as *sent* (the node transmitted
    them; the network lost them) but never enter the delivery queue.
    Delayed messages sit in a holding area until their release tick and
    then join the queue in deterministic order. Duplicates are queued
    twice back to back. Messages *from* a downed node are suppressed
    entirely (the radio is dead; nothing was transmitted), recorded
    only in the drop counter.
    """

    #: per-message drop/dup/delay decisions consume the fault RNG
    #: stream message by message — columnar batches would skip draws
    #: and change every later decision, so senders must stay scalar.
    supports_columnar = False

    def __init__(self, plan: FaultPlan) -> None:
        super().__init__()
        if not isinstance(plan, FaultPlan):
            raise FaultError(f"expected a FaultPlan, got {plan!r}")
        self.plan = plan
        self._rng = random.Random(plan.seed)
        #: (release_tick, insertion_seq, message) held-back messages.
        self._held: List[Tuple[int, int, Message]] = []
        self._held_seq = 0

    # -- observability -------------------------------------------------------

    def _note_fault(self, event: str, msg: Message, **extra) -> None:
        """Emit one fault intervention (caller checked ``tel.enabled``).

        Fault decisions are deterministic given the plan seed and the
        message stream, and the fast path is bit-identical to scalar —
        so these are *protocol-scope* events: the streams must match.
        """
        self.telemetry.emit(
            self._tick,
            "fault." + event,
            kind=msg.kind.name,
            src=msg.src,
            dst=msg.dst,
            **extra,
        )

    # -- time ----------------------------------------------------------------

    def begin_tick(self, tick: int) -> None:
        super().begin_tick(tick)
        if not self._held:
            return
        ready = sorted(
            (h for h in self._held if h[0] <= tick), key=lambda h: (h[0], h[1])
        )
        if ready:
            self._held = [h for h in self._held if h[0] > tick]
            for _, _, msg in ready:
                self._queue.append(msg)

    # -- traffic ---------------------------------------------------------------

    def send(
        self, kind: MessageKind, src: int, dst: int, payload=None
    ) -> Message:
        tick = self._tick
        if self.plan.is_down(src, tick):
            # Defense in depth: the simulator already skips the hooks
            # of downed nodes, so normally nothing reaches this branch.
            msg = Message(kind, src, dst, payload, sent_tick=tick)
            self.stats.record_drop(msg)
            if self.telemetry.enabled:
                self._note_fault("drop", msg, reason="sender_down")
            return msg
        msg = super().send(kind, src, dst, payload)
        if not self.plan.lossy_at(tick):
            return msg
        rng = self._rng
        p_drop = self.plan.drop_prob(msg)
        if p_drop > 0.0 and rng.random() < p_drop:
            self._queue.pop()  # super() queued it; the network eats it
            self.stats.record_drop(msg)
            if self.telemetry.enabled:
                self._note_fault("drop", msg, reason="lossy")
            return msg
        if self.plan.delay_prob > 0.0 and rng.random() < self.plan.delay_prob:
            self._queue.pop()
            self.stats.record_delay(msg)
            self._held.append(
                (tick + self.plan.delay_ticks, self._held_seq, msg)
            )
            self._held_seq += 1
            if self.telemetry.enabled:
                self._note_fault(
                    "delay", msg, release=tick + self.plan.delay_ticks
                )
            return msg
        if self.plan.dup_prob > 0.0 and rng.random() < self.plan.dup_prob:
            self.stats.record_duplicate(msg)
            self._queue.append(msg)
            if self.telemetry.enabled:
                self._note_fault("dup", msg)
        return msg

    # -- delivery accounting hooks -----------------------------------------

    # reach: a broadcast or geocast under a radio FaultPlan (DKNN-B/G
    # with faults) has no product row; without it down nodes would count
    def _broadcast_receivers(self, msg: Message) -> int:
        gone = self.plan.down_at(self._tick)
        gone.add(msg.src)
        return self.registered_count() - sum(map(self.is_registered, gone))

    def _unicast_receivers(self, msg: Message) -> int:
        if self.plan.is_down(msg.dst, self._tick):
            self.stats.record_drop(msg)
            if self.telemetry.enabled:
                self._note_fault("drop", msg, reason="receiver_down")
            return 0
        return 1


_SHARD_PLAN_FIELDS = (
    "seed",
    "link_drop",
    "link_delay",
    "crashes",
    "crash_groups",
    "full_restarts",
    "partitions",
    "heartbeat_timeout",
    "shed_uplinks_per_tick",
    "recovery_settle_ticks",
    "checkpoint_interval",
    "wal_replay_per_tick",
)


class ShardFaultPlan:
    """Deterministic, seeded description of shard-tier faults.

    Everything the sharded server tier can suffer, in one frozen plan
    (the server-side sibling of :class:`FaultPlan`, which covers the
    radio and the mobile objects). It is the only place backbone loss,
    delay and seed and the durability cadence are set: no plan (or a
    disabled one) is a healthy backbone. Under an enabled plan every
    shard heartbeats to its replication buddy and streams per-query
    state deltas to it each tick, the replica a failover replays.

    Parameters
    ----------
    seed:
        Seed of the backbone fault stream *and* of the tier's seeded
        retry-backoff jitter. Independent of the workload seed and of
        any radio :class:`FaultPlan` seed, so backbone faults never
        perturb the radio fault decisions (and vice versa).
    link_drop:
        Per-message backbone loss probability in ``[0, 1)``.
    link_delay:
        Backbone latency in ticks (0 = same-subround delivery).
    crashes:
        Tuples ``(shard, t0, t1)``: the shard server is down for
        ``[t0, t1)``; ``t1=None`` means it never restarts. A downed
        shard neither sends nor receives backbone messages, its base
        station serves no radio traffic, and its buddy takes over its
        queries after ``heartbeat_timeout`` missed heartbeats.
    crash_groups:
        Tuples ``((shard, ...), t0, t1)``: a *correlated* crash — every
        shard in the group is down together for ``[t0, t1)``
        (``t1=None`` = never restarts). The interesting case is a shard
        and its replication buddy in one group: nobody can fail the
        pair over, so on restart the survivors' tables come back only
        through the durable store (or not at all — see
        ``checkpoint_interval``).
    full_restarts:
        Tuples ``(t0, t1)``: every shard in the tier is down during
        ``[t0, t1)`` — a whole-service restart (rolling deploy gone
        wrong, datacenter power event). Equivalent to a crash group
        over all shards, without having to know S when writing the
        plan.
    partitions:
        Tuples ``(a, b, t0, t1)``: the backbone link between shards
        ``a`` and ``b`` is severed (both directions) during
        ``[t0, t1)``. Heartbeats crossing the cut are lost too, so a
        partition between replication buddies triggers failover even
        though both shards are alive — the ownership ledger stays
        single-owner by construction either way.
    heartbeat_timeout:
        Consecutive missed buddy heartbeats before a shard is declared
        crashed and its buddy takes over (mirrors the lease machinery
        of the radio failure model, DESIGN.md §7).
    shed_uplinks_per_tick:
        Admission-control threshold, or ``None`` (off). Once a shard
        has accepted this many uplinks in one tick, further
        query-carrying uplinks (repair traffic — the lowest-priority
        class) are shed with a degraded annotation; at twice the
        threshold the shard sheds every further uplink.
    recovery_settle_ticks:
        Upper bound on the degraded window after a failover or a shed:
        the annotation clears when the query's answer is next
        republished, or after this many ticks, whichever comes first.
    checkpoint_interval:
        Durability cadence, or ``None`` (no durable store). When set,
        every live shard writes a compacting checkpoint of its tables
        (owned query states, homed objects) every this-many ticks and
        journals protocol-critical mutations to a write-ahead log in
        between. A shard that cold-restarts *uncovered* — its buddy
        dead too, so no failover replayed a replica — rebuilds its
        tables by checkpoint load + WAL replay instead of losing them
        (amnesia). A tuning knob: setting it alone does **not** enable
        the plan, so a fault-free run with a checkpoint interval stays
        bit-identical to the seed behavior.
    wal_replay_per_tick:
        WAL replay throughput, or ``None`` (replay completes within the
        restart tick). When set, a recovering shard replays at most
        this many journal records per tick and serves nothing until
        replay finishes — the knob that makes long checkpoint intervals
        *cost* recovery time (the E17 trade-off). Also a tuning knob:
        does not enable the plan by itself.
    """

    __slots__ = _SHARD_PLAN_FIELDS

    def __init__(
        self,
        seed: int = 0,
        link_drop: float = 0.0,
        link_delay: int = 0,
        crashes: Tuple[Tuple[int, int, Optional[int]], ...] = (),
        crash_groups: Tuple[
            Tuple[Tuple[int, ...], int, Optional[int]], ...
        ] = (),
        full_restarts: Tuple[Tuple[int, int], ...] = (),
        partitions: Tuple[Tuple[int, int, int, int], ...] = (),
        heartbeat_timeout: int = 3,
        shed_uplinks_per_tick: Optional[int] = None,
        recovery_settle_ticks: int = 12,
        checkpoint_interval: Optional[int] = None,
        wal_replay_per_tick: Optional[int] = None,
        **unknown,
    ) -> None:
        if unknown:
            hints = []
            for wrong in sorted(unknown):
                close = difflib.get_close_matches(
                    wrong, _SHARD_PLAN_FIELDS, n=1
                )
                hints.append(
                    wrong + (f" (did you mean {close[0]!r}?)" if close else "")
                )
            raise FaultError(
                "ShardFaultPlan got unknown parameters: "
                + ", ".join(hints)
                + f"; valid: {sorted(_SHARD_PLAN_FIELDS)}"
            )
        self.seed = int(seed)
        self.link_drop = float(link_drop)
        self.link_delay = int(link_delay)
        self.crashes = tuple(
            (int(s), int(t0), None if t1 is None else int(t1))
            for s, t0, t1 in crashes
        )
        self.crash_groups = tuple(
            (
                tuple(int(s) for s in group),
                int(t0),
                None if t1 is None else int(t1),
            )
            for group, t0, t1 in crash_groups
        )
        self.full_restarts = tuple(
            (int(t0), int(t1)) for t0, t1 in full_restarts
        )
        self.partitions = tuple(
            (int(a), int(b), int(t0), int(t1)) for a, b, t0, t1 in partitions
        )
        self.heartbeat_timeout = int(heartbeat_timeout)
        self.shed_uplinks_per_tick = (
            None
            if shed_uplinks_per_tick is None
            else int(shed_uplinks_per_tick)
        )
        self.recovery_settle_ticks = int(recovery_settle_ticks)
        self.checkpoint_interval = (
            None if checkpoint_interval is None else int(checkpoint_interval)
        )
        self.wal_replay_per_tick = (
            None if wal_replay_per_tick is None else int(wal_replay_per_tick)
        )
        if not 0.0 <= self.link_drop < 1.0:
            raise FaultError(
                f"link_drop must be in [0, 1), got {self.link_drop}"
            )
        if self.link_delay < 0:
            raise FaultError(f"negative link_delay {self.link_delay}")
        if self.heartbeat_timeout < 1:
            raise FaultError(
                f"heartbeat_timeout must be >= 1, got {self.heartbeat_timeout}"
            )
        if self.recovery_settle_ticks < 1:
            raise FaultError(
                "recovery_settle_ticks must be >= 1, got "
                f"{self.recovery_settle_ticks}"
            )
        if (
            self.shed_uplinks_per_tick is not None
            and self.shed_uplinks_per_tick < 1
        ):
            raise FaultError(
                "shed_uplinks_per_tick must be None or >= 1, got "
                f"{self.shed_uplinks_per_tick}"
            )
        for shard, t0, t1 in self.crashes:
            if shard < 0:
                raise FaultError(f"negative shard id {shard} in crashes")
            if t0 < 0:
                raise FaultError(f"negative crash tick {t0} for shard {shard}")
            if t1 is not None and t0 >= t1:
                raise FaultError(
                    f"empty crash window [{t0}, {t1}) for shard {shard}"
                )
        for group, t0, t1 in self.crash_groups:
            if not group:
                raise FaultError(f"empty crash group at tick {t0}")
            if len(set(group)) != len(group):
                raise FaultError(f"duplicate shard in crash group {group}")
            if any(s < 0 for s in group):
                raise FaultError(f"negative shard id in crash group {group}")
            if t0 < 0:
                raise FaultError(
                    f"negative crash tick {t0} for group {group}"
                )
            if t1 is not None and t0 >= t1:
                raise FaultError(
                    f"empty crash window [{t0}, {t1}) for group {group}"
                )
        for t0, t1 in self.full_restarts:
            if t0 < 0:
                raise FaultError(f"negative full-restart tick {t0}")
            if t0 >= t1:
                raise FaultError(
                    f"empty full-restart window [{t0}, {t1})"
                )
        if (
            self.checkpoint_interval is not None
            and self.checkpoint_interval < 1
        ):
            raise FaultError(
                "checkpoint_interval must be None or >= 1, got "
                f"{self.checkpoint_interval}"
            )
        if (
            self.wal_replay_per_tick is not None
            and self.wal_replay_per_tick < 1
        ):
            raise FaultError(
                "wal_replay_per_tick must be None or >= 1, got "
                f"{self.wal_replay_per_tick}"
            )
        for a, b, t0, t1 in self.partitions:
            if a < 0 or b < 0:
                raise FaultError(f"negative shard id in partition ({a}, {b})")
            if a == b:
                raise FaultError(f"partition of shard {a} with itself")
            if t0 >= t1:
                raise FaultError(
                    f"empty partition window [{t0}, {t1}) for ({a}, {b})"
                )

    # -- queries -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True if this plan can ever perturb a run.

        ``checkpoint_interval`` and ``wal_replay_per_tick`` are tuning
        knobs, not faults: alone they do not enable the plan, so a
        fault-free run configured with them stays bit-identical.
        """
        return (
            self.link_drop > 0.0
            or self.link_delay > 0
            or bool(self.crashes)
            or bool(self.crash_groups)
            or bool(self.full_restarts)
            or bool(self.partitions)
            or self.shed_uplinks_per_tick is not None
        )

    def is_down(self, shard: int, tick: int) -> bool:
        """True if ``shard``'s server is crashed at ``tick``."""
        for s, t0, t1 in self.crashes:
            if s == shard and t0 <= tick and (t1 is None or tick < t1):
                return True
        for group, t0, t1 in self.crash_groups:
            if shard in group and t0 <= tick and (t1 is None or tick < t1):
                return True
        for t0, t1 in self.full_restarts:
            if t0 <= tick < t1:
                return True
        return False

    def is_partitioned(self, a: int, b: int, tick: int) -> bool:
        """True if the backbone between ``a`` and ``b`` is cut at ``tick``."""
        for pa, pb, t0, t1 in self.partitions:
            if {pa, pb} == {a, b} and t0 <= tick < t1:
                return True
        return False

    def active_partitions(self, tick: int) -> Tuple[Tuple[int, int], ...]:
        """The ``(a, b)`` pairs cut at ``tick``, in plan order."""
        return tuple(
            (a, b)
            for a, b, t0, t1 in self.partitions
            if t0 <= tick < t1
        )

    def __repr__(self) -> str:
        if not self.enabled:
            return "ShardFaultPlan(disabled)"
        return (
            f"ShardFaultPlan(seed={self.seed}, drop={self.link_drop:g}, "
            f"delay={self.link_delay}, crashes={len(self.crashes)}, "
            f"groups={len(self.crash_groups)}, "
            f"full_restarts={len(self.full_restarts)}, "
            f"partitions={len(self.partitions)}, "
            f"hb_timeout={self.heartbeat_timeout}, "
            f"shed={self.shed_uplinks_per_tick}, "
            f"ckpt={self.checkpoint_interval}, "
            f"replay={self.wal_replay_per_tick})"
        )
