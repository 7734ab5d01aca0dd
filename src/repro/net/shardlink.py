"""The shard-to-shard backbone of the sharded server tier.

Shard servers (base stations) are connected by a wired backbone, not
the radio interface mobile objects use — so backbone traffic gets its
own channel with its own accounting, latency and fault model, entirely
separate from :class:`~repro.net.channel.Channel`:

* **Accounting**: every backbone send is recorded in the main
  :class:`~repro.net.stats.CommStats` under the dedicated
  ``server_to_server`` bucket (plus this link's own per-pair counters).
  It never touches the radio ``total_messages`` / uplink / downlink
  totals — see the double-counting note in :mod:`repro.net.stats`.
* **Latency and loss** come from the
  :class:`~repro.net.faults.ShardFaultPlan` the link is built with, and
  only from it: ``link_delay`` holds every backbone message for that
  many ticks before :meth:`begin_tick` releases it, and ``link_drop``
  drops each message independently with an RNG seeded by the plan's
  ``seed``. The stream is private to this link, so backbone faults
  cannot perturb the radio-side
  :class:`~repro.net.faults.FaultyChannel` RNG — the bit-identity
  contract of the sharded tier depends on that separation. Without a
  plan the backbone is healthy: same-subround delivery, nothing lost.

Message kinds are plain strings (they never ride the radio
:class:`~repro.net.message.MessageKind` vocabulary):

``handoff`` / ``handoff_ack``
    Query-ownership transfer: the exported query state travels to the
    shard now containing the focal object; the ack commits it.
``borrow``  / ``borrow_reply``
    Cross-shard candidate borrowing: a repair whose search circle
    overlaps a neighbor shard requests that shard's member positions
    inside the circle.
``forward``
    An uplink that landed on a non-owning shard, relayed to the owner.
``migrate``
    An object's dead-reckoning entry moving to its new home shard.
``rebalance``
    A cell migration of the elastic rebalancer (DESIGN.md §14): the
    donor shard ships a fine cell's home-table rows to the receiving
    shard in one bulk transfer, sized by the rows moved. Never sent
    when no :class:`~repro.server.config.RebalancePolicy` is installed,
    so a static tier's backbone byte counts are unchanged.
``heartbeat`` / ``replicate``
    The fault-tolerance traffic of :class:`~repro.net.faults.
    ShardFaultPlan` runs: each shard pings its replication buddy every
    tick, and streams per-query state deltas to it. Neither kind is
    ever sent when the plan is disabled, so a fault-free run's backbone
    byte counts are unchanged.

Under a plan the link also drops (deterministically, *before* the
probabilistic drop) any message whose source or destination shard is
crashed at the current tick, and any message crossing an active
backbone partition. These checks apply at **send time only**: a
message already in the delay queue when a partition opens is still
delivered (it left the source before the cut). :meth:`ShardLink.
send_many`, the batch form for kinds whose delivery does nothing, is
for the healthy backbone only: it keeps the accounting and refuses a
link built with a plan, whose sends go one by one.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Callable, Deque, Optional, Tuple

import numpy as np

from repro.errors import NetworkError
from repro.net.message import HEADER_BYTES
from repro.net.stats import CommStats

__all__ = [
    "SHARD_HANDOFF",
    "SHARD_HANDOFF_ACK",
    "SHARD_BORROW",
    "SHARD_BORROW_REPLY",
    "SHARD_FORWARD",
    "SHARD_MIGRATE",
    "SHARD_REBALANCE",
    "SHARD_HEARTBEAT",
    "SHARD_REPLICATE",
    "SHARD_KINDS",
    "ShardMessage",
    "ShardLink",
]

SHARD_HANDOFF = "handoff"
SHARD_HANDOFF_ACK = "handoff_ack"
SHARD_BORROW = "borrow"
SHARD_BORROW_REPLY = "borrow_reply"
SHARD_FORWARD = "forward"
SHARD_MIGRATE = "migrate"
SHARD_REBALANCE = "rebalance"
SHARD_HEARTBEAT = "heartbeat"
SHARD_REPLICATE = "replicate"

#: kinds whose delivery does nothing: :meth:`ShardLink.send_many`'s.
_INERT_KINDS = (
    SHARD_MIGRATE, SHARD_FORWARD, SHARD_BORROW, SHARD_BORROW_REPLY
)

SHARD_KINDS = (
    SHARD_HANDOFF,
    SHARD_HANDOFF_ACK,
    SHARD_BORROW,
    SHARD_BORROW_REPLY,
    SHARD_FORWARD,
    SHARD_MIGRATE,
    SHARD_REBALANCE,
    SHARD_HEARTBEAT,
    SHARD_REPLICATE,
)


class ShardMessage:
    """One backbone message between two shard servers."""

    __slots__ = ("kind", "src_shard", "dst_shard", "size", "payload", "sent_tick")

    def __init__(
        self,
        kind: str,
        src_shard: int,
        dst_shard: int,
        size: int,
        payload=None,
        sent_tick: int = 0,
    ) -> None:
        self.kind = kind
        self.src_shard = src_shard
        self.dst_shard = dst_shard
        self.size = size
        self.payload = payload
        self.sent_tick = sent_tick


class ShardLink:
    """Backbone channel between the shard servers of one tier.

    ``deliver`` is the coordinator's handler for arrived messages; the
    link calls it synchronously for undelayed sends and from
    :meth:`begin_tick` for delayed ones. Delivery order is send order.
    """

    def __init__(
        self,
        n_shards: int,
        stats: CommStats,
        deliver: Callable[[ShardMessage], None],
        fault_plan=None,
    ) -> None:
        if n_shards < 1:
            raise NetworkError(f"need at least one shard, got {n_shards}")
        self.n_shards = n_shards
        self.stats = stats
        #: the enabled :class:`~repro.net.faults.ShardFaultPlan` behind
        #: every delay and drop, or None (= the healthy backbone).
        self.fault_plan = plan = fault_plan
        self.delay_ticks = 0 if plan is None else plan.link_delay
        self._deliver = deliver
        self._rng = random.Random(0 if plan is None else plan.seed)
        self._tick = 0
        #: (deliver_at_tick, message) FIFO of in-flight delayed traffic.
        self._queue: Deque[Tuple[int, ShardMessage]] = deque()
        # -- link-local accounting -------------------------------------
        self.sent_by_kind: Counter = Counter()
        self.bytes_by_kind: Counter = Counter()
        #: (src_shard, dst_shard) -> messages, the backbone heat map.
        self.sent_by_pair: Counter = Counter()
        self.dropped: int = 0
        #: messages lost to a crashed endpoint / an active partition.
        self.crash_dropped: int = 0
        self.partition_dropped: int = 0

    # -- time --------------------------------------------------------------

    def begin_tick(self, tick: int) -> None:
        """Advance the link clock and deliver every due delayed message."""
        self._tick = tick
        while self._queue and self._queue[0][0] <= tick:
            _, msg = self._queue.popleft()
            self._deliver(msg)

    # -- traffic -----------------------------------------------------------

    def send(
        self,
        kind: str,
        src_shard: int,
        dst_shard: int,
        payload_bytes: int,
        payload=None,
    ) -> Optional[ShardMessage]:
        """Send one backbone message; returns None if the link dropped it.

        ``payload_bytes`` is the wire-model payload size; the fixed
        header is added here. Undelayed messages are delivered to the
        coordinator before this call returns.
        """
        if not 0 <= src_shard < self.n_shards:
            raise NetworkError(f"unknown source shard {src_shard}")
        if not 0 <= dst_shard < self.n_shards:
            raise NetworkError(f"unknown destination shard {dst_shard}")
        size = HEADER_BYTES + payload_bytes
        msg = ShardMessage(
            kind, src_shard, dst_shard, size, payload, sent_tick=self._tick
        )
        self.sent_by_kind[kind] += 1
        self.bytes_by_kind[kind] += size
        self.sent_by_pair[(src_shard, dst_shard)] += 1
        self.stats.record_server_to_server(kind, size)
        if self._lost(src_shard, dst_shard):
            return None
        if self.delay_ticks == 0:
            self._deliver(msg)
        else:
            self._queue.append((self._tick + self.delay_ticks, msg))
        return msg

    def send_many(self, kind: str, srcs, dsts, payload_bytes) -> None:
        """:meth:`send` over int64 rows ``srcs[i] -> dsts[i]`` on the
        healthy backbone, for a kind whose delivery does nothing beyond
        the send-time accounting (``migrate``, ``forward``, ``borrow``,
        ``borrow_reply``): the same counters, nothing lost or queued.
        ``payload_bytes`` is an int or one size per row; the rows name
        shards of this link (the tier's own tables, unchecked)."""
        if self.fault_plan is not None:
            raise NetworkError("send_many needs a link built without a plan")
        if kind not in _INERT_KINDS:
            raise NetworkError(f"send_many cannot deliver {kind!r}")
        n, s = srcs.shape[0], self.n_shards
        if n == 0:
            return
        size = HEADER_BYTES + payload_bytes
        nbytes = int(size.sum()) if isinstance(size, np.ndarray) else n * size
        self.sent_by_kind[kind] += n
        self.bytes_by_kind[kind] += nbytes
        pairs = np.bincount(srcs * s + dsts, minlength=s * s).tolist()
        for pair, count in enumerate(pairs):
            if count:
                self.sent_by_pair[divmod(pair, s)] += count
        self.stats.record_server_to_server(kind, nbytes, n)

    def _lost(self, src_shard: int, dst_shard: int) -> bool:
        """Send-time drops, in order: crashed end, partition, RNG draw."""
        plan = self.fault_plan
        if plan is None:
            return False
        if plan.is_down(src_shard, self._tick) or plan.is_down(
            dst_shard, self._tick
        ):
            self.dropped += 1
            self.crash_dropped += 1
            return True
        if plan.is_partitioned(src_shard, dst_shard, self._tick):
            self.dropped += 1
            self.partition_dropped += 1
            return True
        if plan.link_drop and self._rng.random() < plan.link_drop:
            self.dropped += 1
            return True
        return False

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())
