"""The synchronous round engine.

Each tick proceeds in phases:

1. the fleet moves (ground truth advances);
2. the client phase, or every mobile node's ``on_tick_start``, runs
   (mobiles inspect their own position and may transmit; the server
   runs per-tick planning);
3. queued messages are delivered and handlers may respond, repeating
   until the exchange quiesces (**zero-latency mode**: messages cross
   the network within the tick, the mode in which answers are provably
   exact) or exactly one delivery pass runs (**latency mode**: every
   message takes one tick, exposing answer staleness, measured by E8);
4. the server's ``on_tick_end`` runs (it publishes per-query answers).

The engine also meters server wall-clock time: every server handler
invocation is timed, giving the "server CPU" axis of E6 without
instrumenting the algorithms themselves.
"""

from __future__ import annotations

import time
from typing import Callable, List, NoReturn, Optional, Sequence, Union

from repro.errors import FaultError, NetworkError, ProtocolError
from repro.net.channel import Channel
from repro.net.engine import EngineConfig, EventDriver
from repro.net.faults import FaultPlan, FaultyChannel
from repro.net.message import GEOCAST_ID, SERVER_ID, Message
from repro.net.node import MobileNode, Node, Population, ServerNodeBase
from repro.net.plane import ColumnarBatch
from repro.obs.telemetry import Telemetry, active_telemetry

__all__ = ["ClientPhase", "RoundSimulator", "ZERO_LATENCY", "ONE_TICK_LATENCY"]

ZERO_LATENCY = "zero"
ONE_TICK_LATENCY = "one_tick"

# A protocol exchange (violation -> repair -> probes -> replies ->
# installs) needs a handful of hops — collect-radius doubling can take
# a couple dozen; anything deeper indicates a protocol loop and should
# fail loudly.
_MAX_SUBROUNDS = 64


class ClientPhase:
    """The whole client side of a build: the mobiles as columns.

    Implementations (``repro.core.fastpath``, ``ReporterPhase``) hold
    the nodes' protocol state as columns, evaluate the silent-object
    predicate over the whole fleet in one vectorized pass and send what
    the nodes it flags would send. No node object exists under a phase
    (:meth:`~repro.net.node.Population.hold`): every scalar message for
    the mobiles goes to :meth:`deliver_area`, every downlink flight to
    :meth:`deliver_batch`. Correctness contract: a tick of the phase is
    indistinguishable from every node running its own code (same sends,
    same state, same answers), which is what ``tests/test_fastpath.py``
    pins.

    A phase runs only where it can be the whole node: the simulator
    binds none over a channel that decides per message (a radio
    ``FaultPlan``), ``shard_attach`` drops it under a tier that does,
    and the DKNN-P builder passes none over hardened nodes, whose
    clocks may fire on any tick. So a phase never sees a fault plan,
    and every flight it sends or takes stays whole.
    """

    #: True when :meth:`idle` can answer True: the event engine may
    #: then skip a tick this phase observes to be still.
    observes_stillness: bool = False
    #: the node classes the phase holds as columns (exact classes).
    drives: tuple = ()

    def bind(self, sim: "RoundSimulator") -> None:
        """Called once when the simulator takes ownership of the phase:
        the phase takes every member of its population, which must be
        of the classes it :attr:`drives`."""
        self.sim = sim
        name = type(self).__name__
        stray = sorted(c.__name__ for c in sim.mobiles.classes - set(self.drives))
        if stray:
            raise ProtocolError(f"{name} cannot drive {', '.join(stray)}")
        sim.mobiles.hold(name, sim.fleet.n)

    def tick_start(self, tick: int) -> None:
        """Run the batched tick-start phase."""
        raise NotImplementedError

    def idle(self) -> bool:
        """Would this tick's :meth:`tick_start`, at the positions the
        fleet just took, find no candidate? False: cannot tell."""
        return False

    def _refuse(self, what) -> NoReturn:
        raise ProtocolError(f"{type(self).__name__} cannot take {what!r}")

    def deliver_area(self, msg: Message) -> None:
        """Deliver one scalar message for the mobiles — a broadcast, a
        geocast (recording its reception count) or a unicast to one
        node: do to the columns, and send, what every receiver's
        handler would, in their order. What no handler takes raises
        :class:`~repro.errors.ProtocolError`."""
        self._refuse(msg)

    def deliver_batch(self, batch: ColumnarBatch) -> None:
        """Deliver one downlink flight: the effects of its scalar
        messages dispatched one by one (same replies in the same order,
        same node state after), or :class:`~repro.errors.ProtocolError`."""
        self._refuse(batch)


class RoundSimulator:
    """Drives the fleet, the nodes and the channel in lockstep.

    ``mobiles`` is a builder's :class:`~repro.net.node.Population` or a
    list of prebuilt nodes in ascending oid (any other order is a
    :class:`NetworkError`). Without a client phase the mobiles run
    their tick-start and hear broadcasts in ascending oid, and
    ``sim.mobiles[oid]`` looks a node up by oid, not by list position.
    """

    def __init__(
        self,
        fleet,
        server: ServerNodeBase,
        mobiles: Union[Population, Sequence[MobileNode]],
        channel: Optional[Channel] = None,
        latency: str = ZERO_LATENCY,
        faults: Optional[FaultPlan] = None,
        client_phase: Optional["ClientPhase"] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if latency not in (ZERO_LATENCY, ONE_TICK_LATENCY):
            raise NetworkError(f"unknown latency mode {latency!r}")
        if faults is not None and channel is not None:
            raise FaultError(
                "pass either a prebuilt channel or a fault plan, not both"
            )
        self.fleet = fleet
        #: the active fault plan, or None for a perfect network. A
        #: disabled plan is normalized away so the zero-fault path is
        #: bit-identical to a run that never mentioned faults.
        self.faults = faults if faults is not None and faults.enabled else None
        if channel is not None:
            self.channel = channel
        elif self.faults is not None:
            self.channel = FaultyChannel(self.faults)
        else:
            self.channel = Channel()
        self.server = server
        #: the mobile nodes by oid: a builder's :class:`Population`, or
        #: a node list as a table filled up front.
        self.mobiles = (
            mobiles
            if isinstance(mobiles, Population)
            else Population.of(mobiles, fleet.n)
        )
        self.latency = latency
        self.server_seconds = 0.0
        #: observability handle, shared with the channel and the server
        #: so every seam emits into one stream. ``None`` resolves to the
        #: process-wide ambient handle (NULL_TELEMETRY by default).
        self.telemetry = (
            telemetry if telemetry is not None else active_telemetry()
        )
        self.channel.telemetry = self.telemetry
        server.telemetry = self.telemetry
        server.sim = self
        if server._channel is None:
            server.attach(self.channel)
        self.mobiles.attach(self.channel)
        self.tick = 0
        #: vectorized client phase (``repro.core.fastpath``): replaces
        #: the per-mobile ``on_tick_start`` loop with a batched
        #: predicate pass over the nodes' columns. None is the
        #: per-object loop: range monitoring, hand-built test systems,
        #: and every build whose transport decides per message or whose
        #: nodes keep clocks (:class:`ClientPhase`). A channel that
        #: takes no columnar flights gets none.
        if client_phase is not None and not self.channel.supports_columnar:
            client_phase = None
        self.client_phase = client_phase
        if client_phase is not None:
            client_phase.bind(self)
        #: the engine driver every tick goes through
        #: (``repro.net.engine``): ``step`` skips the ticks it observes
        #: to be still. Tick mode is the driver that never skips.
        self.driver = EventDriver(self, EngineConfig(mode="tick"))
        #: the same driver once ``build_system`` installed one for a
        #: ``RunConfig(engine=...)``; None means no engine was asked for
        #: (the layered benchmark reads it)
        self._driver = None

    # -- the columnar plane ---------------------------------------------------

    def plane_open(self) -> bool:
        """May senders put columnar batches on the channel? Exactly when
        a client phase is attached: without one nothing consumes a
        downlink batch whole, and a build gets one only where the
        transport takes runs whole (:meth:`transport_per_message` is
        False; :class:`ClientPhase`)."""
        return self.client_phase is not None

    def transport_per_message(self) -> bool:
        """Does the transport decide the fate of single messages? The
        channel does when it does not queue batches (``FaultyChannel``
        draws drop/dup/delay per message), the server tier when it
        says so (``per_message``: the sharded tier under a fault plan
        or an admission policy). Then a sender sends message by message,
        in its own order."""
        return not self.channel.supports_columnar or self.server.per_message

    # -- delivery -------------------------------------------------------------

    def _is_down(self, node_id: int) -> bool:
        """True if the fault plan has ``node_id`` down right now."""
        return self.faults is not None and self.faults.is_down(
            node_id, self.tick
        )

    def node(self, node_id: int) -> Optional[Node]:
        """The receiver at ``node_id`` — the server or a mobile; None
        for an unknown address."""
        if node_id == SERVER_ID:
            return self.server
        return self.mobiles.get(node_id)

    def _deliver(self, messages: List[Message]) -> None:
        phase = self.client_phase
        for msg in messages:
            if isinstance(msg, ColumnarBatch):
                self._deliver_batch(msg)
            elif msg.dst == SERVER_ID or phase is None:
                self._deliver_scalar(msg)
            else:
                phase.deliver_area(msg)

    def _deliver_scalar(self, msg: Message) -> None:
        """Deliver one message to the server, or to the mobile nodes of a
        build without a phase: a geocast reaches those whose *true*
        position its payload ``covers`` right now (radio coverage)."""
        dst = msg.dst
        if dst >= SERVER_ID:
            node = self.node(dst)
            if node is None:
                raise NetworkError(f"message to unknown node {dst}")
            if not self._is_down(dst):
                self._dispatch(node, msg)
            return
        covers = None
        if dst == GEOCAST_ID:
            covers = getattr(msg.payload, "covers", None)
            if covers is None:
                raise NetworkError(
                    f"geocast payload {msg.payload!r} has no covers()"
                )
        elif msg.src != SERVER_ID and not self._is_down(SERVER_ID):
            self._dispatch(self.server, msg)
        receivers = 0
        positions = self.fleet.positions
        for node in self.mobiles:
            oid = node.oid
            if oid == msg.src or self._is_down(oid):
                continue
            if covers is None or covers(*positions[oid]):
                receivers += 1
                self._dispatch(node, msg)
        if covers is not None:
            self.channel.stats.record_delivery(msg, receivers=receivers)

    def _deliver_batch(self, batch: ColumnarBatch) -> None:
        """Deliver one columnar batch.

        An uplink batch goes to the server's ``on_uplink_batch`` (timed
        as server work like ``on_message``); a downlink batch goes to
        the client phase's ``deliver_batch``. A server that declines
        (returns False), or a downlink without a phase, gets the batch
        expanded into the scalar messages it replaced and dispatched
        one by one, counted in ``CommStats.materialized_by_kind``.
        """
        if batch.srcs is not None and batch.dst == SERVER_ID:
            handler = getattr(self.server, "on_uplink_batch", None)
            if handler is not None:
                t0 = time.perf_counter()
                handled = handler(batch)
                self.server_seconds += time.perf_counter() - t0
                if handled:
                    return
        elif batch.dsts is not None and self.client_phase is not None:
            self.client_phase.deliver_batch(batch)
            return
        for kind, count, _ in batch.split():
            self.channel.stats.record_materialized(kind, count)
        for msg in batch.materialize():
            self._deliver_scalar(msg)

    def _dispatch(self, node: Node, msg: Message) -> None:
        if node.node_id == SERVER_ID:
            t0 = time.perf_counter()
            node.on_message(msg)
            self.server_seconds += time.perf_counter() - t0
        else:
            node.on_message(msg)

    # -- stepping ---------------------------------------------------------------

    def step(self) -> None:
        """Advance one tick — ground truth, then a skip or a full
        protocol round.

        The fleet advances every tick. Then the driver decides: a tick
        it observes to be still skips the client phase, delivery
        machinery and server hooks; answers and message streams stay
        bit-identical (DESIGN §8). Every other tick is :meth:`_round`.
        In tick mode every tick is full.
        """
        traced = self.telemetry.enabled
        t_move = time.perf_counter() if traced else 0.0
        self.fleet.advance()
        self.tick = self.fleet.tick
        self.channel.begin_tick(self.tick)
        if traced:
            t_move = time.perf_counter() - t_move
        driver = self.driver
        if driver.can_skip(self.tick):
            driver.skip_tick()
            return
        self._round(t_move)
        driver.after_full_step()

    def _round(self, t_move: float) -> None:
        """Run one full protocol round on the tick the fleet just took.

        When telemetry is enabled, the tick is split into wall-clock
        phases — move (``t_move``, timed by :meth:`step`) / client /
        deliver / server — and one ``tick.phase`` event is
        emitted per tick. ``deliver`` covers message dispatch
        *including* the handlers it invokes on both sides; ``server``
        covers only the planning hooks (tick start / subrounds / tick
        end), matching ``server_seconds`` minus the on-message share.
        """
        tel = self.telemetry
        traced = tel.enabled
        t_client = t_deliver = t_server = 0.0
        if traced:
            t_mark = time.perf_counter()
        if self.client_phase is not None:
            self.client_phase.tick_start(self.tick)
        else:
            for node in self.mobiles:
                if self._is_down(node.node_id):
                    continue  # blacked out/crashed: no checks, no sends
                node.on_tick_start(self.tick)
        if traced:
            t_client = time.perf_counter() - t_mark
        t0 = time.perf_counter()
        self.server.on_tick_start(self.tick)
        dt = time.perf_counter() - t0
        self.server_seconds += dt
        t_server += dt

        zero_latency = self.latency == ZERO_LATENCY
        subrounds = 0
        while True:
            subrounds += 1
            if subrounds > _MAX_SUBROUNDS:
                raise NetworkError(
                    "protocol did not quiesce within "
                    f"{_MAX_SUBROUNDS} subrounds at tick {self.tick}"
                )
            sent_mark = self.channel.stats.total_messages
            if traced:
                t_mark = time.perf_counter()
            if zero_latency:
                delivered = self.channel.collect()
            else:
                delivered = self.channel.collect_sent_before(self.tick)
            self._deliver(delivered)
            if traced:
                t_deliver += time.perf_counter() - t_mark
            t0 = time.perf_counter()
            self.server.on_subround(self.tick)
            dt = time.perf_counter() - t0
            self.server_seconds += dt
            t_server += dt
            if not zero_latency:
                # Replies queued this subround stay in flight until the
                # next tick — that is the point of latency mode.
                break
            if not self.channel.pending() and not self.server.busy():
                break
            if (
                (self.faults is not None or self.server.per_message)
                and not delivered
                and not self.channel.pending()
                and self.channel.stats.total_messages == sent_mark
            ):
                # The exchange is stalled on a lost message: nothing
                # was delivered or sent this subround and nothing is
                # queued, yet the server still owes work. Under a
                # fault plan — radio, or a shard-fault plan on the
                # server tier (``per_message``) — this is
                # expected: end the tick and let the hardened
                # protocol's retransmit timers recover on a later
                # tick instead of dying at the cap.
                break

        t0 = time.perf_counter()
        self.server.on_tick_end(self.tick)
        dt = time.perf_counter() - t0
        self.server_seconds += dt
        t_server += dt

        if traced:
            tel.emit(
                self.tick,
                "tick.phase",
                move=round(1000.0 * t_move, 6),
                client=round(1000.0 * t_client, 6),
                deliver=round(1000.0 * t_deliver, 6),
                server=round(1000.0 * t_server, 6),
                subrounds=subrounds,
            )

    def run(
        self,
        ticks: int,
        on_tick: Optional[Callable[["RoundSimulator"], None]] = None,
    ) -> None:
        """Run ``ticks`` rounds, invoking ``on_tick`` after each."""
        if ticks < 0:
            raise NetworkError(f"negative tick count {ticks}")
        for _ in range(ticks):
            self.step()
            if on_tick is not None:
                on_tick(self)
