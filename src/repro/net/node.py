"""Node abstractions: the server and the mobile (object-side) nodes.

Mobile nodes have access to **their own** ground-truth position — a
mobile device always knows where it is — via the fleet reference and
their object id. By convention (enforced by code review, as in any
simulation of a distributed system) a node never reads another node's
position; all cross-node information flows through the channel.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.errors import NetworkError
from repro.net.channel import Channel
from repro.net.message import BROADCAST_ID, GEOCAST_ID, SERVER_ID, Message, MessageKind

__all__ = ["Node", "MobileNode", "ServerNodeBase"]


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

    def on_tick_end(self, tick: int) -> None:
        """Called once per tick after the exchange quiesces."""


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


class ServerNodeBase(Node):
    """The central server endpoint (address ``SERVER_ID``)."""

    #: the simulator that took ownership of this server (it installs
    #: itself on construction); None while the server stands alone.
    sim = None
    #: True on a tier that decides the fate of traffic one message at
    #: a time (``ShardedServer`` under a fault plan or an admission
    #: policy): the simulator then tolerates dead-air subrounds and
    #: keeps the columnar plane closed.
    per_message = False

    def __init__(self) -> None:
        super().__init__(node_id=SERVER_ID)

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
