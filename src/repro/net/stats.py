"""Communication accounting.

Every message sent through the channel is recorded here, broken down by
kind and by direction (uplink / downlink / broadcast). A broadcast
counts as *one* transmitted message (one radio broadcast) regardless of
receiver count; receptions are tracked separately because some cost
models charge per listener wake-up.

Shard-to-shard (backbone) traffic of the sharded server tier lives in
a **separate** ``server_to_server`` bucket, keyed by shard-message kind
strings (``handoff``, ``borrow``, ...). It deliberately does NOT feed
``total_messages`` / ``total_bytes`` or any radio direction counter:
backbone links between base stations are wired, and mixing them into
the air-interface totals would double-count the client traffic the
paper's figures measure. ``tests/test_sharding.py`` pins that an S=1
sharded run reports the exact same radio totals as an unsharded run.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.net.message import Message, MessageKind

__all__ = ["CommStats"]


class CommStats:
    """Mutable counters of simulated network traffic."""

    def __init__(self) -> None:
        self.sent_by_kind: Counter = Counter()
        self.bytes_by_kind: Counter = Counter()
        self.sent_by_direction: Counter = Counter()
        self.bytes_by_direction: Counter = Counter()
        self.broadcast_receptions: int = 0
        self.delivered: int = 0
        # Fault-layer counters: all zero unless a FaultPlan is active
        # (see repro.net.faults) or a hardened protocol retransmits.
        self.dropped_by_kind: Counter = Counter()
        self.duplicated_by_kind: Counter = Counter()
        self.delayed_by_kind: Counter = Counter()
        self.retransmits_by_kind: Counter = Counter()
        # Shard-tier backbone counters, keyed by shard-message kind
        # *string* (see repro.net.shardlink). Kept out of every radio
        # total above by construction.
        self.s2s_by_kind: Counter = Counter()
        self.s2s_bytes_by_kind: Counter = Counter()
        # Columnar-plane transport diagnostic (see repro.net.plane):
        # messages that travelled as batch columns (each already
        # counted normally in ``sent_by_kind``). It describes *how*
        # traffic moved through the transport, not how much moved, so
        # the bit-identity suite compares every counter above but
        # exempts it. ``materialized_by_kind`` stays empty: a receiver
        # takes every batch whole. The layered benchmark still reads
        # ``materialized_messages``.
        self.columnar_by_kind: Counter = Counter()
        self.materialized_by_kind: Counter = Counter()

    # -- recording --------------------------------------------------------

    def record_send(self, msg: Message) -> None:
        self.sent_by_kind[msg.kind] += 1
        self.bytes_by_kind[msg.kind] += msg.size
        direction = msg.direction()
        self.sent_by_direction[direction] += 1
        self.bytes_by_direction[direction] += msg.size

    def record_delivery(self, msg: Message, receivers: int = 1) -> None:
        self.delivered += receivers
        if msg.direction() in ("broadcast", "geocast"):
            self.broadcast_receptions += receivers

    def record_send_batch(
        self, kind: MessageKind, direction: str, count: int, nbytes: int
    ) -> None:
        """Account one columnar batch exactly as ``count`` scalar sends.

        The legacy counters receive the same integer increments the
        per-message path would have produced; ``columnar_by_kind``
        additionally notes that these messages travelled as columns.
        """
        self.sent_by_kind[kind] += count
        self.bytes_by_kind[kind] += nbytes
        self.sent_by_direction[direction] += count
        self.bytes_by_direction[direction] += nbytes
        self.columnar_by_kind[kind] += count

    def record_delivery_batch(self, count: int) -> None:
        """Batch deliveries are always unicast: one reception each."""
        self.delivered += count

    def record_drop(self, msg: Message) -> None:
        """A message the network lost (or a receiver that was down)."""
        self.dropped_by_kind[msg.kind] += 1

    def record_duplicate(self, msg: Message) -> None:
        """A message the network delivered twice."""
        self.duplicated_by_kind[msg.kind] += 1

    def record_delay(self, msg: Message) -> None:
        """A message the network held back beyond its normal latency."""
        self.delayed_by_kind[msg.kind] += 1

    def record_retransmit(self, kind: MessageKind) -> None:
        """A protocol-level retransmission (the repair overhead)."""
        self.retransmits_by_kind[kind] += 1

    def record_server_to_server(
        self, kind: str, nbytes: int, count: int = 1
    ) -> None:
        """``count`` backbone (shard-to-shard) messages of ``nbytes``
        in all.

        Accounted only in the ``server_to_server`` bucket — never in
        ``total_messages`` / ``total_bytes`` or a direction counter.
        """
        self.s2s_by_kind[kind] += count
        self.s2s_bytes_by_kind[kind] += nbytes

    # -- views -------------------------------------------------------------

    @property
    def total_messages(self) -> int:
        """Messages transmitted (a broadcast counts once)."""
        return sum(self.sent_by_kind.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())

    @property
    def uplink_messages(self) -> int:
        return self.sent_by_direction["uplink"]

    @property
    def downlink_messages(self) -> int:
        return self.sent_by_direction["downlink"]

    @property
    def broadcast_messages(self) -> int:
        return self.sent_by_direction["broadcast"]

    @property
    def geocast_messages(self) -> int:
        return self.sent_by_direction["geocast"]

    @property
    def dropped(self) -> int:
        """Messages lost by the fault layer (never delivered)."""
        return sum(self.dropped_by_kind.values())

    @property
    def duplicated(self) -> int:
        return sum(self.duplicated_by_kind.values())

    @property
    def delayed(self) -> int:
        return sum(self.delayed_by_kind.values())

    @property
    def retransmits(self) -> int:
        """Protocol-level retransmissions (already counted as sends)."""
        return sum(self.retransmits_by_kind.values())

    @property
    def columnar_messages(self) -> int:
        """Messages that travelled as batch columns (diagnostic)."""
        return sum(self.columnar_by_kind.values())

    @property
    def materialized_messages(self) -> int:
        """Batched messages expanded back to scalars: always 0."""
        return sum(self.materialized_by_kind.values())

    @property
    def server_to_server_messages(self) -> int:
        """Backbone messages between shard servers (not radio traffic)."""
        return sum(self.s2s_by_kind.values())

    @property
    def server_to_server_bytes(self) -> int:
        return sum(self.s2s_bytes_by_kind.values())

    def server_to_server_table(self) -> Dict[str, Dict[str, int]]:
        """``{kind: {"messages": m, "bytes": b}}`` for the backbone."""
        return {
            kind: {
                "messages": self.s2s_by_kind[kind],
                "bytes": self.s2s_bytes_by_kind[kind],
            }
            for kind in sorted(self.s2s_by_kind)
            if self.s2s_by_kind[kind]
        }

    def messages_of(self, kind: MessageKind) -> int:
        return self.sent_by_kind[kind]

    def bytes_of(self, kind: MessageKind) -> int:
        return self.bytes_by_kind[kind]

    def per_kind_table(self) -> Dict[str, Dict[str, int]]:
        """``{kind: {"messages": m, "bytes": b}}`` for reporting."""
        return {
            kind.value: {
                "messages": self.sent_by_kind[kind],
                "bytes": self.bytes_by_kind[kind],
            }
            for kind in MessageKind
            if self.sent_by_kind[kind]
        }

    # -- combination ---------------------------------------------------------

    def merge(self, other: "CommStats") -> None:
        """Fold another stats object into this one."""
        self.sent_by_kind.update(other.sent_by_kind)
        self.bytes_by_kind.update(other.bytes_by_kind)
        self.sent_by_direction.update(other.sent_by_direction)
        self.bytes_by_direction.update(other.bytes_by_direction)
        self.broadcast_receptions += other.broadcast_receptions
        self.delivered += other.delivered
        self.dropped_by_kind.update(other.dropped_by_kind)
        self.duplicated_by_kind.update(other.duplicated_by_kind)
        self.delayed_by_kind.update(other.delayed_by_kind)
        self.retransmits_by_kind.update(other.retransmits_by_kind)
        self.s2s_by_kind.update(other.s2s_by_kind)
        self.s2s_bytes_by_kind.update(other.s2s_bytes_by_kind)
        self.columnar_by_kind.update(other.columnar_by_kind)

    def snapshot(self) -> "CommStats":
        """An independent copy (for per-window deltas)."""
        copy = CommStats()
        copy.merge(self)
        return copy

    def delta_since(self, earlier: "CommStats") -> "CommStats":
        """Traffic recorded after ``earlier`` was snapshotted."""
        d = CommStats()
        d.sent_by_kind = self.sent_by_kind - earlier.sent_by_kind
        d.bytes_by_kind = self.bytes_by_kind - earlier.bytes_by_kind
        d.sent_by_direction = self.sent_by_direction - earlier.sent_by_direction
        d.bytes_by_direction = (
            self.bytes_by_direction - earlier.bytes_by_direction
        )
        d.broadcast_receptions = (
            self.broadcast_receptions - earlier.broadcast_receptions
        )
        d.delivered = self.delivered - earlier.delivered
        d.dropped_by_kind = self.dropped_by_kind - earlier.dropped_by_kind
        d.duplicated_by_kind = (
            self.duplicated_by_kind - earlier.duplicated_by_kind
        )
        d.delayed_by_kind = self.delayed_by_kind - earlier.delayed_by_kind
        d.retransmits_by_kind = (
            self.retransmits_by_kind - earlier.retransmits_by_kind
        )
        d.s2s_by_kind = self.s2s_by_kind - earlier.s2s_by_kind
        d.s2s_bytes_by_kind = (
            self.s2s_bytes_by_kind - earlier.s2s_bytes_by_kind
        )
        d.columnar_by_kind = self.columnar_by_kind - earlier.columnar_by_kind
        return d

    def __repr__(self) -> str:
        s2s = (
            f", s2s={self.server_to_server_messages}"
            if self.s2s_by_kind
            else ""
        )
        return (
            f"CommStats(msgs={self.total_messages}, bytes={self.total_bytes}, "
            f"up={self.uplink_messages}, down={self.downlink_messages}, "
            f"bcast={self.broadcast_messages}{s2s})"
        )
