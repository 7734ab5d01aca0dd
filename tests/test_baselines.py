"""Behavioral tests for the centralized baselines (beyond exactness)."""

import numpy as np
import pytest

from repro.baselines import (
    build_cpm_system,
    build_periodic_system,
    build_seacnn_system,
)
from repro.errors import ProtocolError
from repro.geometry import Rect
from repro.mobility import Fleet, RandomWaypointModel, StationaryMover
from repro.net.message import MessageKind
from repro.server import QuerySpec
from repro.workloads import build_workload, WorkloadSpec


def _fleet_and_queries(n=80, q=2, k=5, seed=9, query_speed=50.0):
    spec = WorkloadSpec(
        n_objects=n, n_queries=q, k=k, seed=seed, ticks=10,
        warmup_ticks=1, query_speed=query_speed,
    )
    return build_workload(spec)


class TestCommunicationPattern:
    def test_every_object_reports_every_tick(self):
        fleet, queries = _fleet_and_queries()
        sim = build_periodic_system(fleet, queries)
        sim.run(10)
        reports = sim.channel.stats.messages_of(MessageKind.TICK_REPORT)
        assert reports == fleet.n * 10

    def test_baselines_share_the_same_uplink_cost(self):
        counts = []
        for build in (
            build_periodic_system,
            build_seacnn_system,
            build_cpm_system,
        ):
            fleet, queries = _fleet_and_queries()
            sim = build(fleet, queries)
            sim.run(10)
            counts.append(sim.channel.stats.uplink_messages)
        assert counts[0] == counts[1] == counts[2]

    def test_answer_push_only_on_membership_change(self):
        # Static everything: after the first answer, no more pushes.
        universe = Rect(0, 0, 10_000, 10_000)
        import random

        rng = random.Random(1)
        movers = [
            StationaryMover(universe, rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            for _ in range(30)
        ]
        fleet = Fleet(movers)
        queries = [QuerySpec(qid=0, focal_oid=0, k=4)]
        sim = build_periodic_system(fleet, queries)
        sim.run(10)
        pushes = sim.channel.stats.messages_of(MessageKind.ANSWER_PUSH)
        assert pushes == 1


    @pytest.mark.parametrize("algorithm", ("PER", "SEA", "CPM"))
    def test_a_short_population_reports_in_one_flight(self, algorithm):
        """Fewer objects than ``MIN_BATCH``: the phase still sends one
        ``TICK_REPORT`` flight a tick, and the run equals the per-object
        loop's report by report."""
        from repro.experiments.config import RunConfig
        from repro.net.plane import MIN_BATCH
        from tests.helpers import built_system, reference_system

        spec = WorkloadSpec(
            n_objects=3, n_queries=2, k=2, seed=5, ticks=8, warmup_ticks=0
        )
        sim, _ = built_system(RunConfig(algorithm), spec)
        ref, _ = reference_system(RunConfig(algorithm), spec)
        assert sim.fleet.n < MIN_BATCH
        for _ in range(spec.ticks):
            sim.step()
            ref.step()
            assert sim.server.answers == ref.server.answers
        stats, ref_stats = sim.channel.stats, ref.channel.stats
        assert stats.columnar_by_kind == {
            MessageKind.TICK_REPORT: sim.fleet.n * spec.ticks
        }
        assert stats.sent_by_kind == ref_stats.sent_by_kind
        assert stats.bytes_by_kind == ref_stats.bytes_by_kind
        assert sim.server.meter.units == ref.server.meter.units


class TestServerCostOrdering:
    def test_dirty_tracking_beats_naive_rescan(self):
        """With static queries and mostly-pausing objects, SEA and CPM
        skip quiet queries; PER rescans everything."""
        spec = WorkloadSpec(
            n_objects=300,
            n_queries=8,
            k=5,
            seed=11,
            ticks=30,
            warmup_ticks=1,
            query_speed=0.0,
            mobility_options={"pause_max": 20},
        )
        units = {}
        for name, build in (
            ("PER", build_periodic_system),
            ("SEA", build_seacnn_system),
            ("CPM", build_cpm_system),
        ):
            fleet, queries = build_workload(spec)
            sim = build(fleet, queries)
            sim.run(30)
            units[name] = sim.server.meter.total
        assert units["SEA"] < units["PER"]
        assert units["CPM"] < units["PER"]


class TestPeriodic:
    def test_invalid_period_raises(self):
        fleet, queries = _fleet_and_queries()
        with pytest.raises(ProtocolError):
            build_periodic_system(fleet, queries, period=0)

    def test_period_skips_evaluations(self):
        fleet, queries = _fleet_and_queries()
        sim = build_periodic_system(fleet, queries, period=5)
        sim.run(1)
        first = list(sim.server.answers[queries[0].qid])
        assert first  # evaluated at tick 1
        sim.run(3)  # ticks 2-4: no re-evaluation
        assert sim.server.answers[queries[0].qid] == first

    def test_tick_batch_is_never_expanded(self):
        """PER's scan reads the grid, not the update log: the tick's
        ``TICK_REPORT`` batch arrives whole — and the answers are still
        the per-object loop's, report by report."""
        from repro.experiments.config import RunConfig
        from tests.helpers import built_system, reference_system

        spec = WorkloadSpec(
            n_objects=80, n_queries=2, k=5, seed=9, ticks=12, warmup_ticks=0
        )
        cfg = RunConfig("PER", params={"period": 2})
        sim, _ = built_system(cfg, spec)
        ref, _ = reference_system(cfg, spec)
        for _ in range(spec.ticks):
            sim.step()
            ref.step()
            assert sim.server.answers == ref.server.answers
        batched = sim.channel.stats.columnar_by_kind[MessageKind.TICK_REPORT]
        assert batched == sim.fleet.n * spec.ticks
        assert sim.server.meter.units == ref.server.meter.units
        assert (
            sim.channel.stats.sent_by_kind == ref.channel.stats.sent_by_kind
        )

    def test_unknown_message_kind_raises(self):
        fleet, queries = _fleet_and_queries()
        sim = build_periodic_system(fleet, queries)
        from repro.net.message import Message, SERVER_ID

        with pytest.raises(ProtocolError):
            sim.server.on_message(
                Message(MessageKind.VIOLATION, 0, SERVER_ID, None)
            )


class TestRegistrationDiscipline:
    def test_register_after_start_raises(self):
        fleet, queries = _fleet_and_queries()
        sim = build_periodic_system(fleet, queries)
        sim.run(1)
        with pytest.raises(ProtocolError):
            sim.server.register_query(QuerySpec(qid=99, focal_oid=0, k=2))

    def test_duplicate_qid_raises(self):
        fleet, queries = _fleet_and_queries()
        sim = build_periodic_system(fleet, queries)
        with pytest.raises(ProtocolError):
            sim.server.register_query(queries[0])


class TestAnswerHistory:
    def test_history_recorded_per_tick(self):
        fleet, queries = _fleet_and_queries()
        sim = build_periodic_system(fleet, queries, record_history=True)
        sim.run(7)
        history = sim.server.answer_history[queries[0].qid]
        assert len(history) == 7
        assert history[0][0] == 1 and history[-1][0] == 7
        assert all(len(ids) == queries[0].k for _, ids in history)


class TestColumnarIngest:
    """The columnar ``TICK_REPORT`` path of the centralized servers."""

    @staticmethod
    def _server(cells=6):
        from repro.baselines.cpm import CpmServer

        return CpmServer(Rect(0, 0, 1000, 1000), cells)

    @staticmethod
    def _batch(oids, xs, ys):
        from repro.core.protocol import LocationUpdate
        from repro.net.message import SERVER_ID
        from repro.net.plane import ColumnarBatch

        return ColumnarBatch(
            MessageKind.TICK_REPORT,
            srcs=np.asarray(oids, dtype=np.int64),
            dst=SERVER_ID,
            xs=np.asarray(xs, dtype=np.float64),
            ys=np.asarray(ys, dtype=np.float64),
            payload_nbytes=16,
            payload_ctor=LocationUpdate,
        )

    def test_empty_batch_is_ingested_as_nothing(self):
        server = self._server()
        server.on_uplink_batch(self._batch([], [], []))
        assert server._updates == [] and not list(server.grid.ids())

    def test_touched_cells_equal_the_sorted_unique_of_old_and_new(self):
        """The cells**2 flag scatter finds what ``np.unique`` over the
        old and new cells of the moved rows found, first-time inserts
        (``old_cell == -1``, which must not wrap to the last cell)
        included."""
        from repro.baselines.common import _touched_cells

        rng = np.random.default_rng(3)
        server = self._server()
        server.grid.reserve(60)  # the columns are read before any ingest
        n_cells = server.grid.cells ** 2
        inserted_something = False
        for _ in range(40):
            oids = np.sort(
                rng.choice(60, size=rng.integers(1, 30), replace=False)
            )
            # stay clear of the last cell so a wrapped -1 would show
            xs = rng.uniform(0, 800, oids.shape[0])
            ys = rng.uniform(0, 800, oids.shape[0])
            known = server.grid._dcell[oids] >= 0
            still = known & (rng.random(oids.shape[0]) < 0.3)
            xs[still] = server.grid._dx[oids[still]]
            ys[still] = server.grid._dy[oids[still]]
            server.on_uplink_batch(self._batch(oids, xs, ys))
            e = server._updates.pop()
            assert (e.known == known).all()
            inserted_something |= bool((~e.known).any())
            moved = ~e.known | (e.old_x != e.new_x) | (e.old_y != e.new_y)
            expected = np.unique(
                np.concatenate((e.old_cell[moved & e.known], e.new_cell[moved]))
            )
            touched = np.flatnonzero(_touched_cells(e, moved, n_cells))
            assert touched.tolist() == expected.tolist()
            assert n_cells - 1 not in touched.tolist()
        assert inserted_something


class TestOneDirtyRule:
    """SEA and CPM read the update log through one rule, whatever shape
    the reports arrived in: one columnar batch, scalar tuples, or a
    tick split between both (scalar runs around a batch, focal objects
    on both sides)."""

    N, CELLS = 60, 10

    @staticmethod
    def _ticks():
        """Positions of ``N`` objects over four ticks: everyone new at
        tick 1, then about one in ten moves each tick and the rest
        stay parked on the exact same coordinates."""
        rng = np.random.default_rng(12)
        xs = rng.uniform(0, 1000, TestOneDirtyRule.N)
        ys = rng.uniform(0, 1000, TestOneDirtyRule.N)
        out = [(xs.copy(), ys.copy())]
        for _ in range(3):
            move = rng.random(xs.shape[0]) < 0.1
            xs[move] = np.clip(xs[move] + rng.normal(0, 60, move.sum()), 0, 999)
            ys[move] = np.clip(ys[move] + rng.normal(0, 60, move.sum()), 0, 999)
            out.append((xs.copy(), ys.copy()))
        return out

    def _run(self, server_cls, shape):
        from repro.core.protocol import LocationUpdate
        from repro.net.message import SERVER_ID, Message

        server = server_cls(Rect(0, 0, 1000, 1000), self.CELLS)
        # focal objects 3 and 31 fall in the batch, 7 and 52 in the
        # scalar runs of the split shape
        for qid, focal in enumerate((3, 31, 7, 52)):
            server.register_query(QuerySpec(qid=qid, focal_oid=focal, k=3))
        repaired, pushes, record = [], [], []
        repair = server._repair_rows

        def logged_repair(specs, qx, qy):
            repaired.extend(spec.qid for spec in specs)
            return repair(specs, qx, qy)

        server._repair_rows = logged_repair
        server.send = lambda dst, kind, payload: pushes.append(
            (dst, payload.qid, payload.ids)
        )
        batch = TestColumnarIngest._batch
        lo, hi = self.N // 4, 3 * self.N // 4
        for tick, (xs, ys) in enumerate(self._ticks(), start=1):
            server.on_tick_start(tick)
            oids = np.arange(self.N)
            if shape == "batch":
                runs = [("batch", oids)]
            elif shape == "scalar":
                runs = [("scalar", oids)]
            else:
                runs = [
                    ("scalar", oids[:lo]),
                    ("batch", oids[lo:hi]),
                    ("scalar", oids[hi:]),
                ]
            for how, ids in runs:
                if how == "batch":
                    server.on_uplink_batch(batch(ids, xs[ids], ys[ids]))
                    continue
                for oid in ids.tolist():
                    server.on_message(Message(
                        MessageKind.TICK_REPORT, oid, SERVER_ID,
                        LocationUpdate(xs[oid], ys[oid]),
                    ))
            del repaired[:], pushes[:]
            server.on_subround(tick)
            record.append((
                list(repaired),
                dict(server.answers),
                dict(server.meter.units),
                list(pushes),
            ))
        return record

    @pytest.mark.parametrize("server", ["SEA", "CPM"])
    def test_any_log_shape_gives_the_same_tick(self, server):
        from repro.baselines import CpmServer, SeaCnnServer

        cls = {"SEA": SeaCnnServer, "CPM": CpmServer}[server]
        batch = self._run(cls, "batch")
        assert self._run(cls, "scalar") == batch
        assert self._run(cls, "split") == batch
        # the ticks exercised the rule: every query repaired at tick 1,
        # then a proper, non-empty subset at some later tick
        assert batch[0][0] == [0, 1, 2, 3]
        assert any(0 < len(rep) < 4 for rep, *_ in batch[1:])
        assert all(rep == sorted(rep) for rep, *_ in batch)
        assert any(pushes for *_, pushes in batch[1:])


class TestSlicePath:
    """An every-object report batch is read and written by slice. A
    slice is a view, so the phase and the server copy: nothing the
    update log keeps shares memory with the grid's or the fleet's
    columns, and one-tick-latency delivery still sees the sending
    tick's positions."""

    SPEC = WorkloadSpec(
        n_objects=300, n_queries=10, k=5, seed=4, ticks=12, warmup_ticks=0
    )

    def test_logged_columns_share_no_memory(self):
        from repro.core.fastpath import _fleet_xy
        from repro.experiments.config import RunConfig
        from tests.helpers import built_system

        sim, _ = built_system(RunConfig("CPM"), self.SPEC)
        server = sim.server
        ingest = server.on_uplink_batch
        logged = []

        def logged_ingest(batch):
            ingest(batch)
            logged.append((batch, server._updates[-1]))

        server.on_uplink_batch = logged_ingest
        sim.run(self.SPEC.ticks)
        assert len(logged) == self.SPEC.ticks
        grid = server.grid
        columns = (grid._dx, grid._dy, grid._dcell, *_fleet_xy(sim.fleet))
        for batch, e in logged:
            assert e.oids.tolist() == list(range(sim.fleet.n))
            kept = (e.old_x, e.old_y, e.old_cell, batch.xs, batch.ys)
            for a in kept:
                for b in columns:
                    assert not np.shares_memory(a, b)

    def test_one_tick_latency_equals_the_reference(self):
        from repro.experiments.config import RunConfig
        from repro.net.simulator import ONE_TICK_LATENCY
        from tests.helpers import built_system, reference_system

        cfg = RunConfig("CPM", latency=ONE_TICK_LATENCY)

        def run(build):
            sim, _ = build(cfg, self.SPEC)
            answers = []
            sim.run(self.SPEC.ticks, on_tick=lambda s: answers.append(
                {qid: tuple(a) for qid, a in s.server.answers.items()}
            ))
            stats = sim.channel.stats
            return answers, dict(sim.server.meter.units), (
                dict(stats.sent_by_kind), dict(stats.bytes_by_kind)
            )

        built = run(built_system)
        assert built == run(reference_system)
        assert len({tuple(a.items()) for a in built[0]}) > 2
