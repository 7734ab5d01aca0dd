"""The simulated communication medium.

A :class:`Channel` connects the server node and all mobile nodes. It
queues messages on send, records them in :class:`CommStats`, and hands
them out to the simulator's delivery loop. Point-to-point messages
address a single node id; ``BROADCAST_ID`` fans out to every registered
node **except the sender** — the server included, when a mobile node
is the one broadcasting. (In practice only the server broadcasts, so
the receiver count equals the mobile population.) Reception accounting
here and delivery in :meth:`~repro.net.simulator.RoundSimulator._deliver`
share that semantic; ``tests/test_net_simulator.py`` pins it.

Lossy/faulty behavior lives in :class:`~repro.net.faults.FaultyChannel`,
a subclass that perturbs ``send`` and overrides the per-message
delivery-accounting hooks; this base class is perfectly reliable.

The queue also carries :class:`~repro.net.plane.ColumnarBatch` entries
(one queue slot per batch, see :mod:`repro.net.plane`): ``send_batch``
accounts a batch exactly as the scalar messages it replaces, and the
drain/latency paths treat a batch as one unit stamped with one
``sent_tick``. ``supports_columnar`` advertises whether senders may
batch at all — :class:`FaultyChannel` turns it off because per-message
fault decisions must consume the fault RNG stream message by message.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Set, Union

from repro.errors import NetworkError
from repro.net.message import BROADCAST_ID, GEOCAST_ID, Message, MessageKind
from repro.net.plane import ColumnarBatch
from repro.net.stats import CommStats
from repro.obs.telemetry import NULL_TELEMETRY

__all__ = ["Channel"]

#: what the delivery loop receives from a drain
Transportable = Union[Message, ColumnarBatch]


class Channel:
    """Message queue with accounting between server and mobile nodes."""

    #: senders may use ``send_batch`` (FaultyChannel sets this False).
    supports_columnar = True

    def __init__(self) -> None:
        self.stats = CommStats()
        self._queue: Deque[Transportable] = deque()
        self._registered: Set[int] = set()
        #: ids ``0 .. _mobiles - 1`` are registered as one range.
        self._mobiles = 0
        self._tick = 0
        #: observability handle; the simulator installs its own on
        #: construction. Disabled (NULL_TELEMETRY) costs one branch.
        self.telemetry = NULL_TELEMETRY

    # -- membership ---------------------------------------------------------

    def register(self, node_id: int) -> None:
        """Declare a node id as addressable (server uses SERVER_ID)."""
        if node_id in (BROADCAST_ID, GEOCAST_ID):
            raise NetworkError(f"{node_id} is not a node address")
        if self.is_registered(node_id):
            raise NetworkError(f"node {node_id} already registered")
        self._registered.add(node_id)

    def register_mobiles(self, n: int) -> None:
        """Declare the mobile ids ``0 .. n-1`` addressable, in one call."""
        if self._mobiles or any(0 <= i < n for i in self._registered):
            raise NetworkError("mobile ids already registered")
        self._mobiles = n

    def is_registered(self, node_id: int) -> bool:
        return 0 <= node_id < self._mobiles or node_id in self._registered

    def registered_count(self) -> int:
        return self._mobiles + len(self._registered)

    @property
    def node_ids(self) -> Set[int]:
        return set(range(self._mobiles)) | self._registered

    # -- time ----------------------------------------------------------------

    def begin_tick(self, tick: int) -> None:
        """Advance the channel clock (stamped onto sent messages)."""
        self._tick = tick

    # -- traffic ---------------------------------------------------------------

    def send(
        self, kind: MessageKind, src: int, dst: int, payload: Any = None
    ) -> Message:
        """Queue a message and account for it; returns the message."""
        # is_registered, inlined: this runs once per scalar message.
        mobiles = self._mobiles
        registered = self._registered
        if not (0 <= src < mobiles or src in registered):
            raise NetworkError(f"unknown sender {src}")
        if not (
            0 <= dst < mobiles
            or dst in registered
            or dst in (BROADCAST_ID, GEOCAST_ID)
        ):
            raise NetworkError(f"unknown destination {dst}")
        msg = Message(kind, src, dst, payload, sent_tick=self._tick)
        self.stats.record_send(msg)
        self._queue.append(msg)
        return msg

    def send_batch(self, batch: ColumnarBatch) -> ColumnarBatch:
        """Queue one columnar batch (one queue slot) and account it.

        An uplink batch must replace a run of messages that would have
        been *contiguous* in the scalar send order — the queue position
        of the batch is the queue position of that run. A downlink
        batch is one kind of a server subround's flush, which the
        per-object reference sends in the same order one message at a
        time (:mod:`repro.net.plane`). Accounting matches ``count``
        scalar sends exactly, a report flight's kind by kind.
        """
        batch.sent_tick = self._tick
        direction = batch.direction()
        for kind, count, nbytes in batch.split():
            self.stats.record_send_batch(kind, direction, count, nbytes)
        self._queue.append(batch)
        return batch

    def pending(self) -> int:
        """Number of queued, undelivered messages."""
        total = 0
        for item in self._queue:
            total += item.count if isinstance(item, ColumnarBatch) else 1
        return total

    def idle(self) -> bool:
        """True when no transportable is queued or otherwise in flight.

        The event engine only skips a tick when the channel is idle —
        a queued item means the next tick must run its delivery phase.
        It asks only a channel that takes columnar flights: a build
        over one that decides per message (``FaultyChannel``, whose
        delayed flights this does not see) has no client phase, so its
        driver never skips.
        """
        return not self._queue

    def collect(self) -> List[Transportable]:
        """Drain and return all queued messages (delivery accounting).

        Broadcast messages are returned once; the delivery loop is
        responsible for handing them to every node. Reception counts
        are recorded here. Columnar batches come out as single entries,
        in queue position.
        """
        drained = list(self._queue)
        self._queue.clear()
        self._record_collected(drained)
        return drained

    def collect_sent_before(self, tick: int) -> List[Transportable]:
        """Drain only messages sent strictly before ``tick``.

        Used by latency mode: messages take one full tick to arrive.
        A batch carries one ``sent_tick`` for all its messages, so it
        is held back or released whole.
        """
        ready: List[Transportable] = []
        later: Deque[Transportable] = deque()
        for msg in self._queue:
            if msg.sent_tick < tick:
                ready.append(msg)
            else:
                later.append(msg)
        self._queue = later
        self._record_collected(ready)
        return ready

    def _record_collected(self, msgs: List[Transportable]) -> None:
        """Reception accounting for a batch of drained messages."""
        for msg in msgs:
            if isinstance(msg, ColumnarBatch):
                # batches are always unicast flights: one reception per
                # column entry, same integer the scalar path records.
                self.stats.record_delivery_batch(msg.count)
            elif msg.dst == BROADCAST_ID:
                self.stats.record_delivery(
                    msg, receivers=self._broadcast_receivers(msg)
                )
            elif msg.dst == GEOCAST_ID:
                pass  # the simulator records coverage-based receptions
            else:
                self.stats.record_delivery(
                    msg, receivers=self._unicast_receivers(msg)
                )

    # -- delivery accounting hooks (FaultyChannel overrides) -----------------

    def _broadcast_receivers(self, msg: Message) -> int:
        """Receiver count of one broadcast: everyone but the sender."""
        return max(self.registered_count() - 1, 0)

    def _unicast_receivers(self, msg: Message) -> int:
        return 1

    # -- snapshots -----------------------------------------------------------

    def stats_snapshot(self) -> CommStats:
        return self.stats.snapshot()
