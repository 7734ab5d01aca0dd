"""The columnar message plane: batch semantics and bit-identity.

Three layers of pinning:

* :class:`~repro.net.plane.ColumnarBatch` itself — construction
  invariants, the one-queue-slot channel contract, accounting parity
  with the scalar sends the batch replaces, and exact lazy
  materialization;
* whole-system bit-identity — the build against the per-object
  reference (``tests/helpers.py::reference_system``, which never
  batches) for every algorithm, under the sharded tier at S in {1, 4},
  and with a ShardFaultPlan active (which must veto the plane
  entirely): per-tick answers, every legacy CommStats counter, and the
  shard ledger agree, while ``columnar_by_kind`` proves the plane
  actually carried traffic on the fault-free built runs — for DKNN-B
  and DKNN-G the ``COLLECT_REPLY`` flight a collect round draws, whose
  rows name their query (the sharded tier takes it whole and forwards
  each reply that lands off its query's owner);
* trace streams — a traced build carries the same batches as a bare
  one, and its Jsonl event stream (timing kinds aside) is
  byte-identical to the reference's.

The radio-FaultPlan identity matrix lives in ``tests/test_fastpath.py``
(FaultyChannel advertises ``supports_columnar = False``, so those runs
exercise the one-by-one fallback of every phase).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.broadcast_variant import _COLLECTING, _IDLE
from repro.core.fastpath import _report_payload
from repro.core.protocol import (
    AnswerPush,
    CollectReply,
    CollectRequest,
    LocationUpdate,
    ProbeRequest,
    RevokeBand,
    ViolationReport,
)
from repro.errors import NetworkError, ProtocolError
from repro.experiments.algorithms import ALGORITHMS
from repro.experiments.config import RunConfig
from repro.net.channel import Channel
from repro.net.engine import EngineConfig
from repro.net.faults import ShardFaultPlan
from repro.server.config import ShardConfig
from repro.net.message import (
    BROADCAST_ID,
    GEOCAST_ID,
    HEADER_BYTES,
    SERVER_ID,
    Message,
    MessageKind,
    payload_size,
)
from repro.net.plane import MIN_BATCH, REPORT_KINDS, ColumnarBatch
from repro.net.simulator import ONE_TICK_LATENCY, ZERO_LATENCY
from repro.obs.telemetry import Telemetry
from repro.obs.trace import PERF_KINDS, PROTOCOL_KINDS, JsonlSink, RingSink
from repro.server.sharding import ShardedServer
from repro.workloads.spec import WorkloadSpec
from tests.helpers import built_system, on_the_wire, reference_system

LU_NBYTES = payload_size(LocationUpdate(0.0, 0.0))


def _uplink_batch(n=4, kind=MessageKind.LOCATION_UPDATE):
    oids = np.arange(n, dtype=np.int64)
    return ColumnarBatch(
        kind,
        srcs=oids,
        dst=SERVER_ID,
        xs=np.arange(n, dtype=np.float64),
        ys=np.arange(n, dtype=np.float64) * 2.0,
        payload_nbytes=LU_NBYTES,
        payload_ctor=LocationUpdate,
    )


def _downlink_batch(kind, dsts, payloads, pidx=None):
    return ColumnarBatch(
        kind,
        src=SERVER_ID,
        dsts=np.array(dsts, dtype=np.int64),
        payloads=payloads,
        pidx=np.array(pidx or [0] * len(dsts), dtype=np.int64),
    )


class TestColumnarBatch:
    def test_needs_exactly_one_of_srcs_dsts(self):
        oids = np.arange(3, dtype=np.int64)
        with pytest.raises(NetworkError):
            ColumnarBatch(MessageKind.PROBE)
        with pytest.raises(NetworkError):
            ColumnarBatch(
                MessageKind.PROBE, srcs=oids, dsts=oids, src=0, dst=0
            )

    def test_uplink_needs_scalar_dst(self):
        with pytest.raises(NetworkError):
            ColumnarBatch(
                MessageKind.LOCATION_UPDATE,
                srcs=np.arange(3, dtype=np.int64),
            )

    def test_downlink_needs_scalar_src(self):
        with pytest.raises(NetworkError):
            ColumnarBatch(
                MessageKind.PROBE, dsts=np.arange(3, dtype=np.int64)
            )

    def test_xs_ys_together(self):
        with pytest.raises(NetworkError):
            ColumnarBatch(
                MessageKind.LOCATION_UPDATE,
                srcs=np.arange(3, dtype=np.int64),
                dst=SERVER_ID,
                xs=np.zeros(3),
            )

    def test_views(self):
        batch = _uplink_batch(5)
        assert batch.count == 5
        assert batch.total_bytes == 5 * (HEADER_BYTES + LU_NBYTES)
        assert batch.direction() == "uplink"
        down = _downlink_batch(MessageKind.PROBE, [7, 9], [ProbeRequest()])
        assert down.direction() == "downlink"

    def test_materialize_matches_scalar_messages(self):
        batch = _uplink_batch(4)
        batch.sent_tick = 6
        msgs = batch.materialize()
        assert len(msgs) == 4
        for i, msg in enumerate(msgs):
            assert isinstance(msg, Message)
            assert msg.kind is MessageKind.LOCATION_UPDATE
            assert (msg.src, msg.dst) == (i, SERVER_ID)
            assert msg.sent_tick == 6
            assert (msg.payload.x, msg.payload.y) == (float(i), 2.0 * i)
            assert msg.size == HEADER_BYTES + LU_NBYTES
        assert sum(m.size for m in msgs) == batch.total_bytes

    def test_materialize_rebuilds_the_qid_of_the_flight(self):
        batch = ColumnarBatch(
            MessageKind.COLLECT_REPLY,
            srcs=np.array([4, 9], dtype=np.int64),
            dst=SERVER_ID,
            xs=np.array([1.5, 2.5]),
            ys=np.array([3.5, 4.5]),
            qids=np.array([7, 7], dtype=np.int64),
            payload_nbytes=payload_size(CollectReply(0, 0.0, 0.0)),
            payload_ctor=CollectReply,
        )
        msgs = batch.materialize()
        assert [
            (m.src, m.payload.qid, m.payload.x, m.payload.y) for m in msgs
        ] == [(4, 7, 1.5, 3.5), (9, 7, 2.5, 4.5)]
        assert sum(m.size for m in msgs) == batch.total_bytes
        assert _uplink_batch(2).qids is None
        # a one-kind flight slices like a report flight
        tail = batch.rows(1, 2)
        assert tail.count == 1 and tail.total_bytes == msgs[1].size
        [msg] = tail.materialize()
        assert (msg.src, msg.payload.qid, msg.payload.x) == (9, 7, 2.5)
        assert batch.rows(0, 0).total_bytes == 0

    def test_materialize_coordinate_free_and_bare(self):
        down = _downlink_batch(MessageKind.PROBE, [3, 1], [ProbeRequest()])
        msgs = down.materialize()
        assert [m.dst for m in msgs] == [3, 1]
        assert all(isinstance(m.payload, ProbeRequest) for m in msgs)
        bare = _downlink_batch(MessageKind.PROBE, [2], [None])
        assert bare.materialize()[0].payload is None

    def test_a_downlink_carries_its_payloads_as_one_table(self):
        """Row ``i`` carries ``payloads[pidx[i]]``, and the bytes are the
        sum of the rows' own sizes: answer pushes of different lengths
        in one flight are sized row by row."""
        pushes = [AnswerPush(0, (4, 5, 6)), AnswerPush(3, (1,))]
        flight = _downlink_batch(
            MessageKind.ANSWER_PUSH, [8, 2, 8], pushes, pidx=[0, 1, 1]
        )
        msgs = flight.materialize()
        assert [(m.dst, m.payload) for m in msgs] == [
            (8, pushes[0]), (2, pushes[1]), (8, pushes[1])
        ]
        assert sum(m.size for m in msgs) == flight.total_bytes
        assert flight.total_bytes == 3 * HEADER_BYTES + 16 + 2 * 8
        with pytest.raises(NetworkError):
            ColumnarBatch(
                MessageKind.PROBE, src=SERVER_ID,
                dsts=np.arange(2, dtype=np.int64),
            )
        with pytest.raises(NetworkError):
            ColumnarBatch(
                MessageKind.LOCATION_UPDATE, srcs=np.arange(2), dst=SERVER_ID,
                payloads=[None], pidx=np.zeros(2, dtype=np.int64),
            )


class TestChannelIntegration:
    def _channel(self, n=8):
        ch = Channel()
        ch.register(SERVER_ID)
        for oid in range(n):
            ch.register(oid)
        return ch

    def test_one_queue_slot_in_run_position(self):
        ch = self._channel()
        before = ch.send(MessageKind.VIOLATION, 0, SERVER_ID)
        batch = ch.send_batch(_uplink_batch(4))
        after = ch.send(MessageKind.QUERY_MOVE, 1, SERVER_ID)
        assert ch.pending() == 6  # 1 + batch.count + 1
        drained = ch.collect()
        assert drained == [before, batch, after]

    def test_accounting_parity_with_scalar_sends(self):
        """A flight of one kind, and a report flight of three (a repeated
        sender, an epoch-stamped row), account as their messages sent
        one by one."""
        report = _report_flight(
            [(0, 1, -1, 1.0, 2.0, -1), (1, 1, 0, 1.0, 2.0, -1),
             (2, 5, 1, 3.0, 4.0, 2)], 3,
        )
        for batch in (_uplink_batch(4), report):
            scalar = self._channel()
            scalar.begin_tick(3)
            for m in batch.materialize():
                scalar.send(m.kind, m.src, m.dst, m.payload)
            scalar.collect()
            columnar = self._channel()
            columnar.begin_tick(3)
            columnar.send_batch(batch)
            columnar.collect()
            s, c = scalar.stats, columnar.stats
            assert dict(c.sent_by_kind) == dict(s.sent_by_kind)
            assert dict(c.bytes_by_kind) == dict(s.bytes_by_kind)
            assert dict(c.sent_by_direction) == dict(s.sent_by_direction)
            assert dict(c.bytes_by_direction) == dict(s.bytes_by_direction)
            assert c.delivered == s.delivered
            # The plane's own ledger is the only divergence — diagnostic,
            # deliberately outside the legacy counters.
            assert dict(c.columnar_by_kind) == dict(s.sent_by_kind)
            assert not s.columnar_by_kind
        assert len(s.sent_by_kind) == 3

    def test_revoke_batch_parity_and_queue_slot(self):
        """A subround's revoke flight (two queries' runs): counts, bytes
        and direction of the scalar sends it replaces, and one queue
        slot where that run stood."""
        dsts = [5, 2, 7, 0]
        pidx = [0, 0, 1, 1]
        payloads = [RevokeBand(3), RevokeBand(1)]
        scalar = self._channel()
        columnar = self._channel()
        for ch in (scalar, columnar):
            ch.begin_tick(4)
        before = columnar.send(MessageKind.INSTALL_REGION, SERVER_ID, 1)
        batch = columnar.send_batch(
            _downlink_batch(MessageKind.REVOKE_REGION, dsts, payloads, pidx)
        )
        after = columnar.send(MessageKind.ANSWER_PUSH, SERVER_ID, 1)
        scalar.send(MessageKind.INSTALL_REGION, SERVER_ID, 1)
        sent = [
            scalar.send(
                MessageKind.REVOKE_REGION, SERVER_ID, dst, payloads[i]
            )
            for dst, i in zip(dsts, pidx)
        ]
        scalar.send(MessageKind.ANSWER_PUSH, SERVER_ID, 1)
        assert columnar.pending() == scalar.pending() == 6
        assert columnar.collect() == [before, batch, after]
        scalar.collect()
        assert batch.direction() == sent[0].direction() == "downlink"
        assert [
            (m.dst, m.size, m.payload.qid) for m in batch.materialize()
        ] == [(m.dst, m.size, m.payload.qid) for m in sent]
        s, c = scalar.stats, columnar.stats
        assert dict(c.sent_by_kind) == dict(s.sent_by_kind)
        assert dict(c.bytes_by_kind) == dict(s.bytes_by_kind)
        assert dict(c.sent_by_direction) == dict(s.sent_by_direction)
        assert dict(c.bytes_by_direction) == dict(s.bytes_by_direction)
        assert c.delivered == s.delivered
        assert dict(c.columnar_by_kind) == {MessageKind.REVOKE_REGION: 4}

    def test_one_tick_latency_holds_batch_whole(self):
        ch = self._channel()
        ch.begin_tick(2)
        ch.send_batch(_uplink_batch(3))
        assert ch.collect_sent_before(2) == []
        released = ch.collect_sent_before(3)
        assert len(released) == 1 and released[0].count == 3


def _spec(n=300, ticks=22, **fields):
    return WorkloadSpec(
        ticks=ticks, warmup_ticks=0, seed=42, n_objects=n, n_queries=6, k=5,
        **fields,
    )


#: dense enough that repairs revoke as well as install, so a run has
#: every downlink kind of a subround's flush on the wire.
DENSE = dict(n=1200, universe_size=2000.0)


def _run(algorithm, build, shards=None, shard_faults=None, telemetry=None,
         n=300, ticks=22, latency=ZERO_LATENCY, engine=None, **fields):
    spec = _spec(n, ticks, **fields)
    shard = (
        None
        if shards is None and shard_faults is None
        else ShardConfig(shards=shards or 1, faults=shard_faults)
    )
    cfg = RunConfig(
        algorithm, record_history=True, shard=shard, latency=latency,
        engine=engine,
    )
    sim, _ = build(cfg, spec, telemetry=telemetry)
    answers = []

    def snap(s):
        answers.append(
            {
                qid: tuple(a[-1]) if a else None
                for qid, a in s.server.answer_history.items()
            }
        )

    sim.run(ticks, on_tick=snap)
    stats = sim.channel.stats
    out = {
        "answers": answers,
        "messages": dict(stats.sent_by_kind),
        "bytes": dict(stats.bytes_by_kind),
        "delivered": (stats.delivered, stats.broadcast_receptions),
        "meter": dict(sim.server.meter.units),
        "columnar": dict(stats.columnar_by_kind),
        "materialized": stats.materialized_messages,
    }
    if isinstance(sim.server, ShardedServer):
        ss = sim.server.shard_stats
        out["shard_ledger"] = (
            list(ss.uplinks),
            list(ss.downlinks),
            ss.migrations,
            ss.forwards,
            ss.area_sends,
            ss.handoffs,
            stats.server_to_server_messages,
            stats.server_to_server_bytes,
        )
    return out


def _assert_identical(built, reference):
    assert built["answers"] == reference["answers"]
    assert built["messages"] == reference["messages"]
    assert built["bytes"] == reference["bytes"]
    assert built["delivered"] == reference["delivered"]
    assert built["meter"] == reference["meter"]
    if "shard_ledger" in reference:
        assert built["shard_ledger"] == reference["shard_ledger"]


#: algorithms whose build routes unicast hot-path traffic through the
#: plane, in both directions.
COLUMNAR_ALGS = ("DKNN-P", "CPM", "PER", "SEA")
#: algorithms whose downlinks are broadcasts / geocasts (one message,
#: never a batch) and whose collect rounds answer in one
#: ``COLLECT_REPLY`` uplink batch.
COLLECT_ALGS = ("DKNN-B", "DKNN-G")


class TestBitIdentity:
    @pytest.mark.parametrize("algorithm", COLUMNAR_ALGS)
    def test_columnar_fast_run_is_identical_and_actually_batches(
        self, algorithm
    ):
        scalar = _run(algorithm, reference_system)
        fast = _run(algorithm, built_system)
        _assert_identical(fast, scalar)
        # with no client phase to take a batch whole the plane stays
        # closed: the reference sends every message on its own.
        assert not scalar["columnar"]
        # the guard against a silently dead plane: the built run must
        # have moved real traffic through batch columns, and every
        # batch must have found a receiver that takes it whole.
        assert sum(fast["columnar"].values()) > 0
        assert fast["materialized"] == 0

    @pytest.mark.parametrize("algorithm", ("DKNN-P", "CPM"))
    @pytest.mark.parametrize("shards", (1, 4))
    def test_sharded_tier_identity(self, algorithm, shards):
        scalar = _run(algorithm, reference_system, shards=shards)
        fast = _run(algorithm, built_system, shards=shards)
        _assert_identical(fast, scalar)
        assert sum(fast["columnar"].values()) > 0

    @pytest.mark.parametrize("shards", (None, 2, 4))
    def test_dknn_p_downlink_batches_are_consumed_in_place(self, shards):
        """Installs and revokes cross the plane as batches and no batch
        of any kind is expanded back into scalar messages: a receiver
        that stops consuming one fails here, not only in a benchmark."""
        scalar = _run("DKNN-P", reference_system, shards=shards, **DENSE)
        fast = _run("DKNN-P", built_system, shards=shards, **DENSE)
        _assert_identical(fast, scalar)
        assert fast["columnar"][MessageKind.INSTALL_REGION] > 0
        assert fast["columnar"][MessageKind.REVOKE_REGION] > 0
        assert fast["materialized"] == 0

    @pytest.mark.parametrize("algorithm", ("DKNN-P", "CPM"))
    def test_shard_fault_plan_vetoes_the_plane(self, algorithm):
        plan = ShardFaultPlan(
            seed=3, link_drop=0.05, crashes=((2, 8, 14),)
        )
        scalar = _run(algorithm, reference_system, shards=4, shard_faults=plan)
        fast = _run(algorithm, built_system, shards=4, shard_faults=plan)
        _assert_identical(fast, scalar)
        # an active plan adjudicates faults per message: no batches.
        assert not fast["columnar"]

    @pytest.mark.parametrize("latency", (ZERO_LATENCY, ONE_TICK_LATENCY))
    @pytest.mark.parametrize("algorithm", COLLECT_ALGS)
    def test_collect_rounds_answer_in_one_batch(self, algorithm, latency):
        """A round of ``MIN_BATCH`` replies or more crosses the plane
        as one batch the tableless server ingests whole; under one-tick
        latency it is in flight while the fleet moves on, so it must
        carry the positions of the tick it was sent in. The violation
        reports of a tick cross in one report flight beside it."""
        scalar = _run(algorithm, reference_system, latency=latency)
        fast = _run(algorithm, built_system, latency=latency)
        _assert_identical(fast, scalar)
        assert not scalar["columnar"]
        assert set(fast["columnar"]) == {
            MessageKind.COLLECT_REPLY, MessageKind.VIOLATION,
            MessageKind.QUERY_MOVE,
        }
        assert fast["columnar"][MessageKind.COLLECT_REPLY] > 0
        assert fast["materialized"] == 0

    @pytest.mark.parametrize("shards", (2, 4))
    @pytest.mark.parametrize("algorithm", COLLECT_ALGS)
    def test_sharded_tier_takes_collect_flights_whole(
        self, algorithm, shards
    ):
        """A collect reply names a query, so one that lands on a shard
        that does not own it is forwarded over the backbone. The tier
        ledgers the flight row by row from its ``qids`` column as the
        inner server ingests it, or the forwards (and the backbone
        traffic they are) go missing while answers and radio totals
        still agree. Compared: the whole shard ledger."""
        scalar = _run(algorithm, reference_system, shards=shards, **DENSE)
        fast = _run(algorithm, built_system, shards=shards, **DENSE)
        _assert_identical(fast, scalar)
        forwards = fast["shard_ledger"][3]
        assert forwards > 0
        assert fast["columnar"][MessageKind.COLLECT_REPLY] >= MIN_BATCH
        assert fast["materialized"] == 0

    def test_all_registered_algorithms_have_identity_coverage(self):
        assert set(COLUMNAR_ALGS + COLLECT_ALGS) == set(ALGORITHMS)


class TestCollectReplyBatch:
    """The one uplink batch that names a query, at its two ends."""

    def _pair(self, algorithm, latency=ZERO_LATENCY):
        cfg = RunConfig(algorithm, latency=latency)
        fast, queries = built_system(cfg, _spec())
        scalar, _ = reference_system(cfg, _spec())
        return fast, scalar, queries

    @pytest.mark.parametrize("algorithm", COLLECT_ALGS)
    def test_batch_stands_where_its_scalar_run_would(self, algorithm):
        fast, scalar, queries = self._pair(algorithm)
        area = GEOCAST_ID if algorithm == "DKNN-G" else BROADCAST_ID
        qid, focal = queries[0].qid, queries[0].focal_oid
        queues = []
        for sim in (fast, scalar):
            sim.run(3)
            cx, cy = sim.fleet.positions[focal]
            request = CollectRequest(qid, cx, cy, 2500.0)
            marker = (
                MessageKind.VIOLATION, 0, SERVER_ID, ViolationReport(1, 2.0, 3.0)
            )
            sim.channel.send(*marker)
            sim._deliver(
                [Message(MessageKind.COLLECT, SERVER_ID, area, request)]
            )
            sim.channel.send(*marker)
            queues.append(list(sim.channel._queue))
        built, reference = queues
        assert [type(item) for item in built] == [
            Message, ColumnarBatch, Message
        ]
        batch = built[1]
        assert batch.qids.tolist() == [qid] * batch.count
        assert batch.count >= MIN_BATCH
        assert focal not in batch.srcs  # its own handler returns early
        assert list(batch.srcs) == sorted(batch.srcs)
        assert on_the_wire(built) == on_the_wire(reference)
        assert not any(isinstance(item, ColumnarBatch) for item in reference)

    @pytest.mark.parametrize("algorithm", COLLECT_ALGS)
    def test_round_the_server_has_left_is_ignored_whole(self, algorithm):
        """One-tick latency, and the server leaves ``_COLLECTING``
        while the replies are in flight (here: by hand, on both
        sides): the batch is ingested under ``on_message``'s phase
        gate — swallowed, nothing collected — and the runs stay
        identical from there on."""
        fast, scalar, _ = self._pair(algorithm, ONE_TICK_LATENCY)
        for _ in range(40):
            fast.step()
            scalar.step()
            inflight = [
                item for item in fast.channel._queue
                if isinstance(item, ColumnarBatch)
            ]
            if inflight:
                break
        qid = int(inflight[0].qids[0])
        for sim in (fast, scalar):
            st = sim.server._states[qid]
            st.phase, st.collected = _IDLE, {}
        fast.step()
        scalar.step()
        assert fast.channel.stats.materialized_messages == 0
        assert fast.server._states[qid].collected == {}
        assert scalar.server._states[qid].collected == {}
        for _ in range(15):
            fast.step()
            scalar.step()
            assert fast.server.answers == scalar.server.answers
        assert fast.channel.stats.sent_by_kind == scalar.channel.stats.sent_by_kind
        assert fast.channel.stats.bytes_by_kind == scalar.channel.stats.bytes_by_kind
        assert dict(fast.server.meter.units) == dict(scalar.server.meter.units)


@pytest.mark.parametrize(
    "algorithm, shards, kind",
    [
        pytest.param("DKNN-P", None, MessageKind.COLLECT_REPLY, id="DKNN-P"),
        pytest.param("DKNN-B", None, MessageKind.LOCATION_UPDATE, id="DKNN-B"),
        pytest.param("PER", None, MessageKind.LOCATION_UPDATE, id="PER"),
        pytest.param("DKNN-P", 2, MessageKind.TICK_REPORT, id="DKNN-P-S2"),
    ],
)
def test_a_flight_no_arm_takes_is_refused(algorithm, shards, kind):
    """Every server takes a flight whole or raises: a kind it has no
    arm for is a :class:`ProtocolError` at delivery, never a fallback
    to scalar messages, and the tier ledgers nothing of it."""
    shard = None if shards is None else ShardConfig(shards=shards)
    sim, _ = built_system(RunConfig(algorithm, shard=shard), _spec())
    sim.run(2)
    ledger = getattr(sim.server, "shard_stats", None)
    uplinks = None if ledger is None else list(ledger.uplinks)
    with pytest.raises(ProtocolError):
        sim._deliver([_uplink_batch(MIN_BATCH, kind)])
    if ledger is not None:
        assert list(ledger.uplinks) == uplinks


class TestTraceStreams:
    @pytest.mark.parametrize(
        "algorithm, shards, mode",
        [pytest.param(a, None, None, id=a) for a in ALGORITHMS]
        + [
            pytest.param("DKNN-P", 2, None, id="DKNN-P-S2"),
            pytest.param("DKNN-B", 2, None, id="DKNN-B-S2"),
            pytest.param("DKNN-G", 4, None, id="DKNN-G-S4"),
            pytest.param("DKNN-P", None, "event", id="DKNN-P-event"),
        ],
    )
    def test_traced_runs_ride_the_plane_with_identical_jsonl(
        self, algorithm, shards, mode, tmp_path
    ):
        """A trace leaves the plane open and the event streams agree.

        The traced build sends exactly the batches the bare build sends,
        none of them expanded, with the same answers and counters. Its
        Jsonl file is compared with the reference's on everything
        except ``PERF_KINDS`` — timing (``tick.phase``) and dispatch
        (``fastpath.candidates``) events are explicitly allowed to
        differ between the build and the reference; every other kind
        must be byte-for-byte identical.
        """
        engine = None if mode is None else EngineConfig(mode=mode)
        bare = _run(algorithm, built_system, shards=shards, engine=engine,
                    ticks=15)
        streams, traced = {}, {}
        for build in (reference_system, built_system):
            path = tmp_path / f"trace_{build.__name__}.jsonl"
            tel = Telemetry(JsonlSink(str(path)))
            traced[build] = _run(algorithm, build, shards=shards,
                                 engine=engine, telemetry=tel, ticks=15)
            tel.close()
            lines = path.read_text().strip().splitlines()
            assert lines
            events = [json.loads(line) for line in lines]
            streams[build] = [
                e for e in events if e["kind"] not in PERF_KINDS
            ]
        out = traced[built_system]
        _assert_identical(out, bare)
        assert out["columnar"] == bare["columnar"]
        assert sum(out["columnar"].values()) > 0
        assert out["materialized"] == 0
        assert streams[built_system] == streams[reference_system]
        if algorithm.startswith("DKNN"):
            # The distributed protocols emit server.* events every run;
            # the centralized baselines legitimately emit none, so only
            # DKNN-P/B/G pin a non-empty comparison.
            assert any(
                e["kind"] in PROTOCOL_KINDS for e in streams[built_system]
            )


# -- report flights: whole against one by one ------------------------------

#: the property's systems: 36 objects and 4 queries, whose focals are
#: oids 36-39 — the last senders of a flight, after the violations
#: they may have to export when they hand their query off.
REPORT_SPEC = WorkloadSpec(
    n_objects=36, n_queries=4, k=3, ticks=4, warmup_ticks=0, seed=3
)
REPORT_OIDS = REPORT_SPEC.n_objects + REPORT_SPEC.n_queries
REPORT_FOCALS = tuple(range(REPORT_SPEC.n_objects, REPORT_OIDS))
REPORT_SYSTEMS = {
    "DKNN-P": RunConfig("DKNN-P"),
    "DKNN-B": RunConfig("DKNN-B"),
    "DKNN-G": RunConfig("DKNN-G"),
    "DKNN-P-S4": RunConfig("DKNN-P", shard=ShardConfig(shards=4)),
    "DKNN-B-S4": RunConfig("DKNN-B", shard=ShardConfig(shards=4)),
}


@st.composite
def _report_case(draw):
    """A system, its server's state before the first flight, and two to
    four ticks' report flights: each sender one position, a location
    row (DKNN-P) and up to two violation / query-move rows about any
    query, stamped — under DKNN-G — with an epoch that may be stale.
    Under DKNN-B/G each tick may add one collect round
    (:func:`_collect_round`)."""
    system = draw(st.sampled_from(sorted(REPORT_SYSTEMS)))
    q = REPORT_SPEC.n_queries
    flag = st.lists(st.booleans(), min_size=q, max_size=q)
    oid = st.integers(min_value=0, max_value=REPORT_OIDS - 1)
    before = {
        "dirty": draw(flag),
        "light_ok": draw(flag),
        "violators": draw(st.lists(st.sets(oid, max_size=3), min_size=q,
                                   max_size=q)),
        "probed": draw(st.sets(oid, max_size=6)),
        "epochs": draw(st.lists(st.integers(0, 2), min_size=q, max_size=q)),
        "collecting": draw(flag),
    }
    coord = st.floats(min_value=0.0, max_value=REPORT_SPEC.universe_size)
    flights = []
    for tick in range(1, draw(st.integers(2, 4)) + 1):
        senders = draw(st.sets(st.integers(0, REPORT_FOCALS[0] - 1),
                               max_size=8))
        senders |= draw(st.sets(st.sampled_from(REPORT_FOCALS)))
        rows = []
        for src in sorted(senders):
            x, y = draw(coord), draw(coord)
            if system.startswith("DKNN-P") and draw(st.booleans()):
                rows.append((0, src, -1, x, y, -1))
            for qid in draw(st.lists(st.integers(0, q - 1), unique=True,
                                     max_size=2)):
                epoch = draw(st.integers(0, 2)) if system == "DKNN-G" else -1
                rows.append((draw(st.sampled_from((1, 2))), src, qid, x, y,
                             epoch))
        collect = None
        if not system.startswith("DKNN-P") and draw(st.booleans()):
            qid = draw(st.integers(0, q - 1))
            repliers = draw(st.sets(oid, min_size=1, max_size=10))
            collect = _collect_round(qid, [
                (o, draw(coord), draw(coord)) for o in sorted(repliers)
            ])
        flights.append((tick, rows, collect))
    return system, draw(st.booleans()), before, flights


def _collect_round(qid, replies):
    """A collect round of query ``qid`` from drawn ``(oid, x, y)``
    replies: every one but the query's focal's, which does not answer
    its own round. None, no round, where the focal was the only one
    drawn: a flight cannot be built from no replies."""
    replies = [reply for reply in replies if reply[0] != REPORT_FOCALS[qid]]
    return (qid, replies) if replies else None


#: a draw whose only collect replier is the query's focal (seen failing
#: to build its flight when such a draw made an empty round)
_FOCAL_ONLY = (
    "DKNN-B",
    False,
    {
        "dirty": [False] * REPORT_SPEC.n_queries,
        "light_ok": [False] * REPORT_SPEC.n_queries,
        "violators": [set()] * REPORT_SPEC.n_queries,
        "probed": set(),
        "epochs": [0] * REPORT_SPEC.n_queries,
        "collecting": [True] * REPORT_SPEC.n_queries,
    },
    [
        (1, [(1, 0, 0, 10.0, 10.0, -1)],
         _collect_round(0, [(REPORT_FOCALS[0], 20.0, 20.0)])),
        (2, [], _collect_round(1, [(3, 30.0, 30.0)])),
    ],
)


def _report_flight(rows, tick):
    codes, srcs, qids, xs, ys, epochs = (np.array(c) for c in zip(*rows))
    nbytes = [
        payload_size(_report_payload(REPORT_KINDS[row[0]], *row[2:]))
        for row in rows
    ]
    return ColumnarBatch(
        None, srcs=srcs.astype(np.int64), dst=SERVER_ID,
        xs=xs.astype(np.float64), ys=ys.astype(np.float64),
        payload_nbytes=np.array(nbytes, dtype=np.int64),
        payload_ctor=_report_payload, codes=codes.astype(np.int8),
        qids=qids.astype(np.int64), epochs=epochs.astype(np.int64),
        sent_tick=tick,
    )


def _collect_flight(qid, replies, tick):
    srcs, xs, ys = (np.array(c) for c in zip(*replies))
    return ColumnarBatch(
        MessageKind.COLLECT_REPLY, srcs=srcs.astype(np.int64), dst=SERVER_ID,
        xs=xs.astype(np.float64), ys=ys.astype(np.float64),
        qids=np.full(srcs.shape[0], qid, dtype=np.int64),
        payload_nbytes=payload_size(CollectReply(qid, 0.0, 0.0)),
        payload_ctor=CollectReply, sent_tick=tick,
    )


def _report_view(sim, sink):
    """Everything a report can change on ``sim``'s server."""
    tier = sim.server if isinstance(sim.server, ShardedServer) else None
    server = sim.server if tier is None else tier.inner
    view = {
        "events": [(e.tick, e.kind, e.fields) for e in sink.events()],
        "meter": dict(server.meter.units),
        "states": {
            qid: tuple(
                sorted(v) if isinstance(v, set) else v
                for v in (
                    getattr(st, f, None) for f in (
                        "dirty", "light_ok", "violators", "focal_pos",
                        "focal_tick", "phase", "collected",
                    )
                )
            )
            for qid, st in server._states.items()
        },
        "stale": getattr(server, "stale_violations", None),
    }
    table = getattr(server, "table", None)
    if table is not None:
        grid = table.grid
        rows = [
            (oid, grid.position_of(oid), int(grid._dcell[oid]),
             int(table._ft[oid]))
            for oid in range(REPORT_OIDS) if oid in table
        ]
        view["table"] = rows
        view["cells"] = {
            lin: sorted(grid._store.cell(lin).tolist())
            for lin in {row[2] for row in rows}
        }
        view["probes"] = list(server._probes_in_flight)
    if tier is not None:
        ss, link = tier.shard_stats, tier.link
        view["tier"] = (
            [tier._home_of(oid) for oid in range(REPORT_OIDS)],
            dict(tier._owner), dict(tier._handoff_pending),
            list(ss.uplinks), list(ss.downlinks), ss.migrations,
            ss.forwards, ss.handoffs, tier._cell_window.tolist(),
            dict(link.sent_by_kind), dict(link.bytes_by_kind),
            dict(link.sent_by_pair),
            dict(sim.channel.stats.s2s_by_kind),
            dict(sim.channel.stats.s2s_bytes_by_kind),
        )
    return view


@given(case=_report_case())
@example(case=_FOCAL_ONLY)
@settings(max_examples=150, deadline=None)
def test_a_report_flight_ingests_as_its_messages_one_by_one(case):
    """Ingesting a report or collect flight whole equals dispatching
    its ``materialize()`` message by message, flight after flight: on
    DKNN-P the table, grid cells, freshness, dirty / light_ok /
    violators, probes in flight, meter and events; on DKNN-B/G the
    dirty flags, focal positions, the epoch gate and each round's
    collected replies under the phase gate; on the S = 4 tiers besides
    the inner server's state the home table, owners, pending handoffs,
    shard ledger, forwards and every backbone message and byte —
    traced or not."""
    system, traced, before, flights = case
    views = []
    for whole in (True, False):
        sink = RingSink()
        sim, _ = built_system(
            REPORT_SYSTEMS[system], REPORT_SPEC,
            telemetry=Telemetry(sink) if traced else None,
        )
        tier = sim.server if isinstance(sim.server, ShardedServer) else None
        server = sim.server if tier is None else tier.inner
        for qid, st in server._states.items():
            if system == "DKNN-G":
                st.epoch = before["epochs"][qid]
            if before["collecting"][qid] and not hasattr(st, "light_ok"):
                st.phase = _COLLECTING
            if hasattr(st, "light_ok"):
                st.dirty = before["dirty"][qid]
                st.light_ok = before["light_ok"][qid]
                st.violators = set(before["violators"][qid])
        if hasattr(server, "_probes_in_flight"):
            for oid in sorted(before["probed"]):
                server._probes_in_flight.add(oid)
        for tick, rows, collect in flights:
            sim.server.on_tick_start(tick)
            batches = [_report_flight(rows, tick)] if rows else []
            if collect is not None:
                batches.append(_collect_flight(*collect, tick))
            for flight in batches:
                if whole:
                    sim.server.on_uplink_batch(flight)
                else:
                    for msg in flight.materialize():
                        sim.server.on_message(msg)
        views.append(_report_view(sim, sink))
    assert views[0] == views[1]
