"""Shared helpers for protocol integration tests."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.hardened import HardenedDknnServer
from repro.core.server import DknnServer
from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.geometry import Rect
from repro.metrics.accuracy import is_valid_knn
from repro.mobility import Fleet
from repro.net.channel import Channel
from repro.net.engine import EventDriver
from repro.net.message import SERVER_ID
from repro.net.node import ServerNodeBase
from repro.net.plane import ColumnarBatch
from repro.net.simulator import RoundSimulator
from repro.server.query_table import QuerySpec
from repro.server.sharding import shard_attach
from repro.workloads.generator import (
    build_workload,
    make_focal_movers,
    make_mobility_model,
)
from repro.workloads.spec import WorkloadSpec
from tests.per_query import PER_QUERY
from tests.walk import HardenedWalk, WalkServer

__all__ = [
    "ExactnessChecker",
    "SinkServer",
    "built_system",
    "logged_sends",
    "messages_of",
    "scalar_workload",
    "reference_system",
    "on_the_wire",
    "recorded_run",
]


def built_system(
    cfg: RunConfig, spec: WorkloadSpec, telemetry=None
) -> Tuple[RoundSimulator, List[QuerySpec]]:
    """``build_workload`` + ``build_system``: the program that ships,
    in the call shape of :func:`reference_system`."""
    fleet, queries = build_workload(spec)
    return build_system(cfg, fleet, queries, telemetry=telemetry), queries


def scalar_workload(spec: WorkloadSpec) -> Tuple[Fleet, List[QuerySpec]]:
    """``build_workload(spec)`` over a scalar :class:`Fleet` of the same
    movers: the same positions every tick, and no kernel to say whether
    they moved."""
    size = spec.universe_size
    universe = Rect(0.0, 0.0, size, size)
    fleet = Fleet.from_model(
        make_mobility_model(spec, universe),
        spec.n_objects,
        seed=spec.seed,
        extra_movers=make_focal_movers(spec, universe),
    )
    queries = [
        QuerySpec(qid=i, focal_oid=spec.n_objects + i, k=spec.k)
        for i in range(spec.n_queries)
    ]
    return fleet, queries


def reference_system(
    cfg: RunConfig, spec: WorkloadSpec, telemetry=None
) -> Tuple[RoundSimulator, List[QuerySpec]]:
    """The per-object reference program for ``cfg`` over ``spec``.

    What every differential test compares the build against: a scalar
    :class:`Fleet` (one ``mover.step`` per object per tick) under a
    :class:`RoundSimulator` with no client phase — every node runs its
    own ``on_tick_start`` every tick, every message is dispatched to
    its own handler, and with no phase attached the columnar plane
    stays closed (``RoundSimulator.plane_open``), so the server sends
    one by one. Same server, same nodes, same parameters as
    ``build_system(cfg, ...)``: the system is built by it and its phase
    taken away before the first tick, the population released with it
    (a phase builds no node: the per-object loop builds every node
    fresh at tick 1); the shard tier and the engine driver are
    installed afterwards, as ``build_system`` orders them. A DKNN-P
    server becomes the per-query walk (:class:`tests.walk.WalkServer`,
    or :class:`~tests.walk.HardenedWalk` over the self-healing server,
    the same server advanced one query at a time, before any tick),
    so every index search of the reference is a per-query
    ``knn_search`` / ``range_search_arrays`` call and every effect
    happens in walk order; a SEA or CPM server repairs one query at a
    time (:mod:`tests.per_query`).
    """
    fleet, queries = scalar_workload(spec)
    sim = build_system(
        cfg.but(shard=None, engine=None), fleet, queries, telemetry=telemetry
    )
    sim.client_phase = None
    sim.mobiles.held_by = None
    if type(sim.server) is DknnServer:
        sim.server.__class__ = WalkServer
    elif type(sim.server) is HardenedDknnServer:
        sim.server.__class__ = HardenedWalk
    elif type(sim.server) in PER_QUERY:
        sim.server.__class__ = PER_QUERY[type(sim.server)]
    if cfg.shard is not None:
        shard_attach(sim, cfg.shard)
    if cfg.engine is not None:
        sim.driver = sim._driver = EventDriver(sim, cfg.engine)
    return sim, queries


def logged_sends(monkeypatch) -> List[Tuple]:
    """Log every ``Channel.send`` and ``Channel.send_batch`` call from
    here on, on every channel: ``(channel, item)`` in call order,
    ``item`` the ``Message`` or the ``ColumnarBatch`` sent, its
    ``sent_tick`` stamped. A test that needs other marks in the same
    order (a subround starting) may append its own entries."""
    log: List[Tuple] = []
    send, send_batch = Channel.send, Channel.send_batch

    def logged_send(self, kind, src, dst, payload=None):
        msg = send(self, kind, src, dst, payload)
        log.append((self, msg))
        return msg

    def logged_send_batch(self, batch):
        batch = send_batch(self, batch)
        log.append((self, batch))
        return batch

    monkeypatch.setattr(Channel, "send", logged_send)
    monkeypatch.setattr(Channel, "send_batch", logged_send_batch)
    return log


def messages_of(item) -> List:
    """A queue entry as the scalar messages it stands for."""
    return item.materialize() if isinstance(item, ColumnarBatch) else [item]


def on_the_wire(items) -> List[Tuple]:
    """Queue entries as the scalar messages they stand for, a columnar
    batch expanded in place: one ``(kind, src, dst, size, sent_tick,
    payload fields)`` tuple per message, in queue order."""
    sent = []
    for item in items:
        for m in messages_of(item):
            fields = tuple(getattr(m.payload, f) for f in m.payload.__slots__)
            sent.append((m.kind, m.src, m.dst, m.size, m.sent_tick, fields))
    return sent


def recorded_run(
    cfg: RunConfig, spec: WorkloadSpec, build, ticks: int,
    skip: Optional[Sequence[int]] = None,
) -> dict:
    """Run ``build(cfg, spec)`` for ``ticks`` and return everything two
    builds of one configuration must agree on: what the server sent,
    message by message in queue order (batches expanded), and what it
    was sent, per subround and as a set: a client phase sends its
    drift-only updates, its region holders' report flight (ascending
    oid, each node's reports in its order) and its probe replies as
    three runs, per-object nodes send by sender. Then the answers after
    every tick,
    per-kind ``CommStats``, the per-category meter, the ticks an event
    driver skipped and — sharded — the whole tier ledger.

    ``skip`` makes the event driver skip exactly those ticks. The
    reference has no client phase, so it cannot observe stillness and
    skips nothing on its own; given the ticks the build skipped, it
    runs the same schedule, and each of those ticks must still be one
    its channel and server call idle."""
    sim, _ = build(cfg, spec)
    driver = sim.driver
    if skip is not None:
        skip = set(skip)

        def can_skip(tick: int) -> bool:
            if tick not in skip:
                return False
            assert sim.channel.idle() and sim.server.event_idle(tick), tick
            return True

        driver.can_skip = can_skip
    wire = []
    collect = sim.channel.collect

    def recording_collect():
        items = collect()
        flight = on_the_wire(items)
        wire.append(
            (sim.tick, sorted((m for m in flight if m[1] != SERVER_ID), key=repr))
        )
        wire.extend((sim.tick, m) for m in flight if m[1] == SERVER_ID)
        return items

    sim.channel.collect = recording_collect
    answers = []
    skipped = []

    def observe(s) -> None:
        answers.append({qid: tuple(a) for qid, a in s.server.answers.items()})
        if driver.skipped_ticks > len(skipped):
            skipped.append(s.tick)

    sim.run(ticks, on_tick=observe)
    stats = sim.channel.stats
    out = {
        "wire": wire,
        "answers": answers,
        "messages": dict(stats.sent_by_kind),
        "bytes": dict(stats.bytes_by_kind),
        "meter": dict(sim.server.meter.units),
        "repairs": dict(sim.server.repair_count),
        "skipped": skipped,
    }
    ss = getattr(sim.server, "shard_stats", None)
    if ss is not None:
        out["shard_ledger"] = (
            list(ss.uplinks),
            list(ss.downlinks),
            ss.migrations,
            ss.forwards,
            ss.area_sends,
            ss.handoffs,
            ss.borrows,
            ss.borrowed_candidates,
            ss.cells_moved,
            ss.rehomed_objects,
            stats.server_to_server_messages,
            stats.server_to_server_bytes,
        )
    return out


class SinkServer(ServerNodeBase):
    """Accepts every uplink and answers nothing: the test plays the
    server's part by dispatching downlinks to the nodes itself."""

    def on_uplink_batch(self, batch) -> None:
        pass


class ExactnessChecker:
    """Verifies published answers against ground truth every tick."""

    def __init__(self, fleet, specs: Sequence[QuerySpec]) -> None:
        self.fleet = fleet
        self.specs = list(specs)
        self.failures: List[str] = []
        self.checked = 0

    def __call__(self, sim) -> None:
        positions = self.fleet.positions
        for spec in self.specs:
            qx, qy = positions[spec.focal_oid]
            answer = sim.server.answers[spec.qid]
            self.checked += 1
            if not is_valid_knn(
                positions, qx, qy, spec.k, answer, {spec.focal_oid}
            ):
                self.failures.append(
                    f"tick {sim.tick} query {spec.qid}: {sorted(answer)}"
                )

    def assert_clean(self) -> None:
        assert self.checked > 0, "checker never ran"
        assert not self.failures, (
            f"{len(self.failures)}/{self.checked} invalid answers; "
            f"first: {self.failures[0]}"
        )
