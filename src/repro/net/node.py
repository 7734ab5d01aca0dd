"""Node abstractions: the server and the mobile (object-side) nodes.

Mobile nodes have access to **their own** ground-truth position — a
mobile device always knows where it is — via the fleet reference and
their object id. By convention (enforced by code review, as in any
simulation of a distributed system) a node never reads another node's
position; all cross-node information flows through the channel.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import NetworkError, ProtocolError
from repro.net.channel import Channel
from repro.net.message import BROADCAST_ID, GEOCAST_ID, SERVER_ID, Message, MessageKind

__all__ = ["Node", "MobileNode", "Population", "ServerNodeBase"]


class Node:
    """A network endpoint with a registered address."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self._channel: Optional[Channel] = None

    def attach(self, channel: Channel) -> None:
        """Register this node on ``channel``; required before sending."""
        channel.register(self.node_id)
        self._channel = channel

    @property
    def channel(self) -> Channel:
        if self._channel is None:
            raise NetworkError(f"node {self.node_id} not attached to a channel")
        return self._channel

    def send(self, dst: int, kind: MessageKind, payload: Any = None) -> Message:
        """Send a point-to-point (or broadcast) message."""
        return self.channel.send(kind, self.node_id, dst, payload)

    # -- simulator hooks ----------------------------------------------------

    def on_tick_start(self, tick: int) -> None:
        """Called once per tick before any message delivery."""

    def on_message(self, msg: Message) -> None:
        """Called for every delivered message addressed to this node."""

    def on_subround(self, tick: int) -> None:
        """Called after each delivery batch (servers run planning here).

        Within one tick this may run several times: once after the
        initial client transmissions, then again after each wave of
        replies, until the exchange quiesces.
        """

    def busy(self) -> bool:
        """True while this node still owes work this tick.

        The zero-latency engine keeps running subrounds while any
        message is in flight *or* the server reports busy — a server
        can be mid-exchange with nothing in flight (e.g. a collect
        round that drew zero replies).
        """
        return False


class MobileNode(Node):
    """A node riding on fleet object ``oid``; knows its own position."""

    def __init__(self, oid: int, fleet: Any) -> None:
        if oid < 0:
            raise NetworkError(f"mobile node needs a non-negative oid, got {oid}")
        super().__init__(node_id=oid)
        self.oid = oid
        self._fleet = fleet

    @property
    def position(self) -> Tuple[float, float]:
        """This node's own ground-truth position at the current tick."""
        return self._fleet.positions[self.oid]

    def send_server(self, kind: MessageKind, payload: Any = None) -> Message:
        return self.send(SERVER_ID, kind, payload)


class Population:
    """The mobile nodes of one simulator by oid.

    A builder hands over a constructor for oids ``0..n-1``
    (``Population(n, node_class, make)``) and nothing is built up
    front. Under a client phase nothing ever is: the phase holds every
    member as columns (:meth:`hold`), and indexing or iterating raises.
    Without one, every node is built at once the first time the
    per-object loop needs them. A hand-built system passes its nodes
    (:meth:`of`), in ascending oid, which fills the table up front.
    ``nodes`` is the table by oid (None before the build, and at an
    oid a hand-built table has no member for); ``len`` counts members.
    """

    def __init__(
        self, n: int, node_class: type, make: Callable[[int], MobileNode]
    ) -> None:
        self.nodes: Optional[List[Optional[MobileNode]]] = None
        #: the classes of the members, built or not.
        self.classes = frozenset((node_class,))
        #: the name of the client phase holding the members, or None.
        self.held_by: Optional[str] = None
        self._make = make
        self._members = n
        self._channel: Optional[Channel] = None

    @classmethod
    def of(cls, nodes: Sequence[MobileNode], n: int = 0) -> "Population":
        """A table of prebuilt ``nodes``, ``n`` slots or more.

        The list must be in ascending oid: the table runs and delivers
        to its members in that order, so a list in any other order is
        refused rather than silently reordered."""
        table: List[Optional[MobileNode]] = [None] * max(
            [n] + [node.oid + 1 for node in nodes]
        )
        pop = cls(len(nodes), MobileNode, None)
        last = -1
        for node in nodes:
            if table[node.oid] is not None:
                raise NetworkError(f"duplicate node id {node.node_id}")
            if node.oid < last:
                raise NetworkError(
                    f"node {node.oid} listed after node {last}: list "
                    "mobile nodes in ascending oid"
                )
            last = node.oid
            table[node.oid] = node
        pop.nodes = table
        pop.classes = frozenset(type(node) for node in nodes)
        return pop

    def attach(self, channel: Channel) -> None:
        """Register the members on ``channel``: the whole id range in one
        call, or each prebuilt node not attached yet."""
        self._channel = channel
        if self.nodes is None:
            channel.register_mobiles(self._members)
            return
        for node in self:
            if node._channel is None:
                node.attach(channel)

    def hold(self, phase: str, n: int) -> None:
        """Hand all ``n`` members, none built, to the client phase named
        ``phase``, which holds them as columns."""
        if self.nodes is not None or self._members != n:
            raise ProtocolError(
                f"{phase} holds every object of the fleet as columns: bind "
                "it to a builder's population before any node is built"
            )
        self.held_by = phase

    def _table(self) -> List[Optional[MobileNode]]:
        """The node table, every node built on the first call."""
        if self.held_by is not None:
            raise NetworkError(
                f"no mobile node exists under a client phase: the "
                f"members are {self.held_by}'s columns"
            )
        if self.nodes is None:
            self.nodes = [self._make(oid) for oid in range(self._members)]
            for node in self.nodes:
                node._channel = self._channel
        return self.nodes

    def get(self, oid: int) -> Optional[MobileNode]:
        """Member ``oid``; None for no member."""
        nodes = self._table()
        return nodes[oid] if 0 <= oid < len(nodes) else None

    def __getitem__(self, oid: int) -> MobileNode:
        node = self.get(oid)
        if node is None:
            raise IndexError(f"no mobile node {oid}")
        return node

    def __len__(self) -> int:
        return self._members

    def __iter__(self) -> Iterator[MobileNode]:
        """Every member in ascending oid."""
        return (node for node in self._table() if node is not None)


class ServerNodeBase(Node):
    """The central server endpoint (address ``SERVER_ID``)."""

    #: the simulator that took ownership of this server (it installs
    #: itself on construction); None while the server stands alone.
    sim = None
    #: True on a tier that decides the fate of traffic one message at
    #: a time (``ShardedServer`` under a fault plan or an admission
    #: policy): the simulator then tolerates dead-air subrounds, and
    #: ``shard_attach`` takes the client phase away, which keeps the
    #: columnar plane closed.
    per_message = False

    def __init__(self) -> None:
        super().__init__(node_id=SERVER_ID)

    def on_tick_end(self, tick: int) -> None:
        """Called once per tick after the exchange quiesces."""

    def on_uplink_batch(self, batch) -> None:
        """Take one uplink flight whole: the effects of its scalar
        messages handled one by one, or
        :class:`~repro.errors.ProtocolError` for a flight this server
        has no arm for (:mod:`repro.net.plane`)."""
        raise ProtocolError(f"{type(self).__name__} cannot take {batch!r}")

    def broadcast(self, kind: MessageKind, payload: Any = None) -> Message:
        """One radio broadcast heard by every mobile node."""
        return self.send(BROADCAST_ID, kind, payload)

    def geocast(self, kind: MessageKind, payload: Any = None) -> Message:
        """One area-scoped radio message: the physical layer delivers
        it to every mobile node inside ``payload.covers(x, y)``."""
        return self.send(GEOCAST_ID, kind, payload)

    def event_idle(self, tick: int) -> bool:
        """May the event engine skip ``tick`` as far as this server cares?

        True asserts that running ``on_tick_start`` / ``on_subround`` /
        ``on_tick_end`` at ``tick`` with zero deliveries would send
        nothing and leave all observable server state (answers, query
        table, shard placement) unchanged. The base class answers False
        — any server that has not proven its per-tick hooks are no-ops
        simply never skips, which is slow but never wrong.
        """
        return False
