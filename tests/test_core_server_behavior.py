"""Behavioral tests for the point-to-point DKNN server (beyond exactness)."""

import numpy as np
import pytest

from repro.core import DknnMobileNode, DknnParams, build_dknn_system
from repro.core.hardened import HardenedDknnNode, HardenedDknnServer
from repro.core.server import DknnServer
from repro.errors import ConfigError, ProtocolError
from repro.geometry import Rect
from repro.index.knn import BREAK_EVEN
from repro.mobility import Fleet, StationaryMover
from repro.net.message import MessageKind
from repro.server import QuerySpec
from repro.workloads import WorkloadSpec, build_workload
from tests.helpers import built_system, reference_system
from tests.walk import WalkServer


def _system(n=100, q=2, k=5, seed=17, query_speed=50.0, **params):
    spec = WorkloadSpec(
        n_objects=n, n_queries=q, k=k, seed=seed, ticks=10,
        warmup_ticks=1, query_speed=query_speed,
    )
    fleet, queries = build_workload(spec)
    sim = build_dknn_system(
        fleet, queries, DknnParams(**params) if params else None
    )
    return sim, fleet, queries


class TestFaultToleranceSplit:
    """The self-healing half lives in :mod:`repro.core.hardened`; the
    builder composes it in only when ``params.fault_tolerant`` is set."""

    FT_STATE = (
        "_unacked", "_suspected", "_last_heard", "_probe_sent",
        "_probe_first", "_suspect_probe", "_install_seq",
    )

    def test_a_fault_free_build_holds_no_self_healing_state(self):
        sim, _, _ = _system(n=60)
        sim.run(3)
        assert type(sim.server) is DknnServer
        for name in self.FT_STATE:
            assert not hasattr(sim.server, name), name
        assert sim.mobiles.classes == {DknnMobileNode}
        assert sim.mobiles.nodes is None  # the phase's columns

    def test_a_hardened_build_is_the_hardened_pair(self):
        sim, _, _ = _system(n=60, fault_tolerant=True)
        sim.run(3)
        assert type(sim.server) is HardenedDknnServer
        for name in self.FT_STATE:
            assert hasattr(sim.server, name), name
        assert sim.mobiles.classes == {HardenedDknnNode}

    def test_a_direct_server_refuses_the_fault_tolerant_params(self):
        with pytest.raises(ConfigError, match="HardenedDknnServer"):
            DknnServer(Rect(0, 0, 100, 100), DknnParams(fault_tolerant=True))


class TestSilenceProperty:
    def test_static_world_goes_silent_after_installation(self):
        """With everything parked, there must be zero traffic after
        the initial installation settles — the distributed headline."""
        universe = Rect(0, 0, 10_000, 10_000)
        import random

        rng = random.Random(2)
        movers = [
            StationaryMover(universe, rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            for _ in range(50)
        ]
        fleet = Fleet(movers)
        queries = [QuerySpec(qid=0, focal_oid=0, k=5)]
        sim = build_dknn_system(fleet, queries)
        sim.run(2)  # registration + installation
        mark = sim.channel.stats.snapshot()
        sim.run(10)
        assert sim.channel.stats.delta_since(mark).total_messages == 0

    def test_slow_world_sends_less_than_centralized_stream(self):
        sim, fleet, _ = _system(n=200, q=1)
        sim.run(2)
        mark = sim.channel.stats.snapshot()
        sim.run(20)
        msgs = sim.channel.stats.delta_since(mark).total_messages
        assert msgs < 200 * 20  # strictly below one-report-per-object-tick


class TestProbeDeduplication:
    def test_same_object_probed_once_per_round(self):
        """Two co-located queries probing overlapping candidates must
        share probes (the in-flight set)."""
        universe = Rect(0, 0, 10_000, 10_000)
        import random

        rng = random.Random(5)
        movers = [
            StationaryMover(universe, 5000 + rng.uniform(-200, 200),
                            5000 + rng.uniform(-200, 200))
            for _ in range(20)
        ]
        fleet = Fleet(movers)
        # Two queries with the same focal: identical candidate sets.
        queries = [
            QuerySpec(qid=0, focal_oid=0, k=5),
            QuerySpec(qid=1, focal_oid=0, k=5),
        ]
        sim = build_dknn_system(fleet, queries)
        sim.run(2)
        stats = sim.channel.stats
        probes = stats.messages_of(MessageKind.PROBE)
        replies = stats.messages_of(MessageKind.PROBE_REPLY)
        assert probes == replies
        assert probes <= 20  # never more than one probe per object


class TestRepairAccounting:
    def test_repair_count_grows_with_query_motion(self):
        slow, _, q_slow = _system(seed=19, query_speed=0.0)
        slow.run(10)
        fast, _, q_fast = _system(seed=19, query_speed=150.0)
        fast.run(10)
        assert sum(fast.server.repair_count.values()) > sum(
            slow.server.repair_count.values()
        )

    def test_answers_published_for_all_queries(self):
        sim, _, queries = _system()
        sim.run(3)
        for q in queries:
            assert len(sim.server.answers[q.qid]) == q.k


class TestValidation:
    def test_focal_outside_fleet_raises(self):
        sim, fleet, _ = _system()
        with pytest.raises(ProtocolError):
            build_dknn_system(fleet, [QuerySpec(qid=7, focal_oid=10**6, k=3)])

    def test_unknown_violation_query_raises(self):
        sim, fleet, _ = _system(n=10, q=1)
        from repro.core.protocol import ViolationReport
        from repro.net.message import Message, SERVER_ID

        sim.run(1)
        with pytest.raises(ProtocolError):
            sim.server.on_message(
                Message(
                    MessageKind.VIOLATION, 0, SERVER_ID,
                    ViolationReport(999, 1, 1),
                )
            )

    def test_invalid_params_raise(self):
        with pytest.raises(ProtocolError):
            DknnParams(theta=-1)
        with pytest.raises(ProtocolError):
            DknnParams(s_cap=-1)
        with pytest.raises(ProtocolError):
            DknnParams(grid_cells=0)
        with pytest.raises(ProtocolError):
            DknnParams(latency_slack=-1)

    def test_uncertainty_combines_theta_and_slack(self):
        p = DknnParams(theta=80, latency_slack=20)
        assert p.uncertainty == 100


class TestLatencyModeSetup:
    def test_latency_slack_defaults_to_fleet_speed(self):
        from repro.net.simulator import ONE_TICK_LATENCY

        spec = WorkloadSpec(
            n_objects=50, n_queries=1, k=3, seed=23, ticks=10, warmup_ticks=1
        )
        fleet, queries = build_workload(spec)
        sim = build_dknn_system(fleet, queries, latency=ONE_TICK_LATENCY)
        assert sim.server.params.latency_slack == fleet.max_speed

    def test_explicit_slack_preserved(self):
        from repro.net.simulator import ONE_TICK_LATENCY

        spec = WorkloadSpec(
            n_objects=50, n_queries=1, k=3, seed=23, ticks=10, warmup_ticks=1
        )
        fleet, queries = build_workload(spec)
        sim = build_dknn_system(
            fleet, queries, DknnParams(latency_slack=77.0),
            latency=ONE_TICK_LATENCY,
        )
        assert sim.server.params.latency_slack == 77.0


class TestRepairRoundStaysInArrays:
    """Count-based (no timers): the build's repair round reads
    freshness and positions per repair, not per candidate."""

    @staticmethod
    def _run(n, build=built_system, monkeypatch=None, ticks=40):
        from repro.experiments.config import RunConfig
        from repro.index.grid import UniformGrid
        from repro.server.object_table import ObjectTable

        calls = {"is_fresh": 0, "position_of": 0}
        if monkeypatch is not None:
            for cls, name in (
                (ObjectTable, "is_fresh"), (UniformGrid, "position_of")
            ):
                def counted(self, *args, _orig=getattr(cls, name), _n=name):
                    calls[_n] += 1
                    return _orig(self, *args)

                monkeypatch.setattr(cls, name, counted)
        spec = WorkloadSpec(
            n_objects=n, n_queries=8, k=8, seed=42, ticks=ticks,
            warmup_ticks=0,
        )
        sim, _ = build(RunConfig("DKNN-P"), spec)
        per_tick = []
        sim.run(
            ticks,
            on_tick=lambda s: per_tick.append((
                {q: tuple(a) for q, a in s.server.answers.items()},
                dict(s.channel.stats.sent_by_kind),
                dict(s.channel.stats.bytes_by_kind),
                dict(s.server.meter.units),
            )),
        )
        repairs = sum(sim.server.repair_count.values())
        return per_tick, repairs, calls

    @pytest.mark.parametrize("n", [2000, 6000])
    def test_calls_per_repair_do_not_grow_with_candidates(
        self, n, monkeypatch
    ):
        _, repairs, calls = self._run(n, monkeypatch=monkeypatch)
        assert repairs >= 250
        # The list-walking round made ~90 / ~27 calls per repair at
        # N=2000 and ~160 / ~37 at N=6000 (three freshness passes over
        # every candidate, one position read per kNN cell member); the
        # array round makes ~1.2 / ~6 at any density.
        assert calls["is_fresh"] <= 4 * repairs
        assert calls["position_of"] <= 12 * repairs

    def test_fast_build_equals_scalar_tick_for_tick(self):
        fast, fast_repairs, _ = self._run(2000)
        scalar, scalar_repairs, _ = self._run(2000, reference_system)
        assert fast_repairs == scalar_repairs
        assert fast == scalar


class TestBatchedRepairSearches:
    """``DknnServer.on_subround``'s row kernels — each step of a
    subround once over all its rows, the searches as one call of an
    index entry per kind — against the per-query walk of the reference
    (``reference_system``), whose every search is a per-query call."""

    QUERIES = 12  # >= BREAK_EVEN, so every kind of search can take one pass

    @classmethod
    def _spec(cls, ticks, **fields):
        fields.setdefault("n_objects", 900)
        fields.setdefault("universe_size", 3000.0)
        return WorkloadSpec(
            n_queries=cls.QUERIES, k=6, seed=23, ticks=ticks,
            warmup_ticks=0, **fields,
        )

    @staticmethod
    def _count_kernels(monkeypatch):
        """Rows handed to each search function, by name: the build's
        entries, the per-row searches (``_knn_arrays``, which
        ``knn_search`` runs, and ``range_search_arrays``) and
        ``knn_search``; ``_plan_full`` calls and the rows they planned
        (``plan:calls`` / ``plan:rows``); and subrounds run."""
        import repro.core.server as server_module
        import repro.index.knn as knn

        rows = {}
        server_cls = server_module.DknnServer
        plan_full = server_cls._plan_full
        on_subround = server_cls.on_subround

        def bump(key, n=1):
            rows[key] = rows.get(key, 0) + n

        def counted_plan(self, plan_rows, seg, ids):
            bump("plan:calls")
            bump("plan:rows", plan_rows.shape[0])
            return plan_full(self, plan_rows, seg, ids)

        def counted_subround(self, tick):
            bump("subrounds")
            on_subround(self, tick)

        monkeypatch.setattr(server_cls, "_plan_full", counted_plan)
        for owner, name in (
            (knn, "knn_search"), (knn, "_knn_arrays"),
            (knn, "range_search_arrays"),
            (server_module, "knn_search_many"),
            (server_module, "range_search_many"),
            (server_module, "range_search_written"),
        ):
            def counted(grid, a, *args, _f=getattr(owner, name), _n=name,
                        **kw):
                bump(_n, a.shape[0] if isinstance(a, np.ndarray) else 1)
                return _f(grid, a, *args, **kw)

            monkeypatch.setattr(owner, name, counted)
        # the walk overrides on_subround: only the build's are counted
        monkeypatch.setattr(server_cls, "on_subround", counted_subround)
        return rows

    @pytest.mark.parametrize(
        "build_fields",
        [
            {},
            {"engine": "event"},
            {"params": {"fault_tolerant": True}},
            {"params": {"fault_tolerant": True}, "faults": "crash"},
        ],
        ids=["plain", "event-engine", "fault-tolerant", "ft-with-suspects"],
    )
    def test_built_run_matches_the_per_query_reference_message_for_message(
        self, build_fields, monkeypatch
    ):
        from repro.experiments.config import EngineConfig, RunConfig
        from repro.net.faults import FaultPlan
        from tests.helpers import recorded_run

        ticks = 30
        fields = dict(build_fields)
        spec_fields = {}
        if fields.get("engine"):
            fields["engine"] = EngineConfig(mode="event")
            # commuters only: most ticks are skipped
            spec_fields = dict(
                mobility="mostly_stationary",
                mobility_options={
                    "moving_fraction": 0.1, "period": 12, "active_ticks": 4,
                },
                query_speed=0.0,
            )
        if fields.get("faults"):
            # object 5 dies at tick 8: suspected once its lease lapses,
            # after which every search skips it
            fields["faults"] = FaultPlan(seed=7, crashes=((5, 8),))
            fields["params"] = dict(fields["params"], lease_ticks=4)
        cfg = RunConfig("DKNN-P", **fields)
        spec = self._spec(ticks, **spec_fields)
        rows = self._count_kernels(monkeypatch)
        built = recorded_run(cfg, spec, built_system, ticks)
        batched = dict(rows)
        rows.clear()
        skip = None
        if cfg.engine is not None:
            # the reference runs the ticks the build ran
            skip = built["skipped"]
            assert skip
        reference = recorded_run(cfg, spec, reference_system, ticks, skip)
        assert "knn_search" not in batched
        assert {
            "knn_search_many", "range_search_many", "range_search_written",
        }.isdisjoint(rows)
        # the one-pass kernels really ran, and took most of the searches
        assert batched["knn_search_many"] - batched.get("_knn_arrays", 0) >= (
            self.QUERIES
        )
        assert batched["range_search_many"] + batched.get(
            "range_search_written", 0
        ) - batched.get("range_search_arrays", 0) >= 2 * self.QUERIES
        assert batched["knn_search_many"] == rows["knn_search"]
        # a zone scan re-checked from the write log stands for a search
        assert batched["range_search_many"] + batched.get(
            "range_search_written", 0
        ) == rows["range_search_arrays"]
        # the same full repairs, planned one at a time by the walk and
        # in at most one pass per subround by the build
        assert batched["plan:rows"] == rows["plan:rows"] >= self.QUERIES
        assert rows["plan:calls"] == rows["plan:rows"]
        assert batched["plan:calls"] <= batched["subrounds"]
        assert batched["plan:calls"] < batched["plan:rows"]
        for key in reference:
            assert built[key] == reference[key], key
        assert len(built["wire"]) > 1000

    def test_a_planner_hit_searches_in_full_in_the_same_subround(self):
        """A planner scan that finds an encroacher marks its query
        dirty, and with light repairs off and the focal position exact
        the query goes on to its full search in the same subround: the
        scan step hands its row to the select step. Staged identically
        in both builds, in a subround where enough planners are due to
        batch: an idle query's focal re-reports where it is, and a
        stranger reports itself at the query's anchor."""
        from repro.experiments.config import RunConfig
        from tests.helpers import recorded_run

        ticks = 12
        cfg = RunConfig("DKNN-P", params={"incremental": False})
        spec = self._spec(ticks, query_speed=0.0)
        steps = []  # (subround, step, rows) of the build
        stagings = []

        def staged(build):
            def wrapped(cfg, spec, telemetry=None):
                sim, queries = build(cfg, spec, telemetry=telemetry)
                server = sim.server
                table = server.table
                on_subround = server.on_subround
                staged_at = []
                stagings.append(staged_at)
                subrounds = []

                def stage_then_run(tick):
                    subrounds.append(tick)
                    quiet = [
                        st for st in server._states.values()
                        if st.phase == "idle" and not st.dirty
                        and st.planner_tick != tick and st.install is not None
                    ]
                    if tick >= 5 and len(quiet) >= BREAK_EVEN and not staged_at:
                        st = quiet[0]
                        staged_at.append((len(subrounds), st.row))
                        focal = st.spec.focal_oid
                        table.report(focal, *table.last_position(focal), tick)
                        stranger = next(
                            oid for oid in range(spec.n_objects)
                            if oid not in st.informed
                        )
                        table.report(stranger, *st.install.anchor, tick)
                    on_subround(tick)

                def watching(name, step):
                    def call(rows, *args):
                        steps.append((len(subrounds), name, rows.tolist()))
                        return step(rows, *args)

                    return call

                server.on_subround = stage_then_run
                if not isinstance(server, WalkServer):
                    server._scan = watching("scan", server._scan)
                    server._select = watching("select", server._select)
                return sim, queries

            return wrapped

        built = recorded_run(cfg, spec, staged(built_system), ticks)
        reference = recorded_run(cfg, spec, staged(reference_system), ticks)
        assert len(stagings[0]) == 1 and stagings[0] == stagings[1]
        (subround, row), = stagings[0]
        # the staged row: scanned among enough rows to batch, then
        # searched in full in that same subround
        ((scanned),) = [
            rows for at, name, rows in steps
            if at == subround and name == "scan"
        ]
        assert row in scanned and len(scanned) >= BREAK_EVEN
        assert any(
            at == subround and name == "select" and row in rows
            for at, name, rows in steps
        )
        for key in reference:
            assert built[key] == reference[key], key

    def test_the_first_claim_in_walk_order_sends_each_probe(self):
        """Steps run in step order, effects leave in walk order: claims
        on one stale object from a later row's earlier step and an
        earlier row's later step probe it once, in the earlier row's
        run; an object already in flight is probed by nobody; and
        within one query step its probe run leaves after its other
        effects."""
        import numpy as np

        from repro.core.server import _FIN, _FULL, _SCAN, _key

        server = DknnServer(Rect(0.0, 0.0, 100.0, 100.0))
        for qid in range(3):
            server.register_query(QuerySpec(qid=qid, focal_oid=50 + qid, k=2))
        log = []
        server._send_probes = lambda oids: log.append(("probe", oids))
        server._probes_in_flight.add(9)
        server._ops, server._claims = [], []
        server._claim(_key(2, _SCAN), np.array([5, 7, 9]))
        server._emit(_key(2, _FIN), log.append, "fin 2")
        server._claim(_key(0, _FULL), np.array([7, 3]))
        server._emit(_key(0, _FULL), log.append, "scope 0")
        server._claim(_key(1, _SCAN), np.array([3]))
        server._release()
        assert log == [
            "scope 0", ("probe", [7, 3]), ("probe", [5]), "fin 2",
        ]
        assert list(server._probes_in_flight) == [3, 5, 7, 9]
        # outside a subround, everything happens at once
        server._emit(0, log.append, "now")
        assert log[-1] == "now"


class TestRevokeRetransmission:
    def test_revoke_clears_a_pending_retransmission(self):
        """Fault-tolerant build: an install still waiting for its ack
        leaves the retransmit set when a repair revokes that band, so
        the next sweep does not resend a band the object no longer
        holds."""
        import numpy as np
        from repro.core.protocol import BAND_OUTSIDER, InstallBand

        sim, _, _ = _system(n=200, q=2, k=5, fault_tolerant=True)
        sim.run(4)
        server = sim.server
        assert not server._unacked  # zero latency: every ack arrived
        st = next(
            s for s in server._states.values()
            if set(s.informed) - set(s.install.answer_ids)
        )
        qid = st.spec.qid
        oid = min(set(st.informed) - set(st.install.answer_ids))
        # its ack was lost, and the band is overdue for a retransmission
        lost = InstallBand(qid, BAND_OUTSIDER, 0.0, 0.0, 1.0, epoch=0, lease=8)
        server._unacked[(oid, qid)] = (lost, sim.tick - 10)
        # a repair whose candidates leave the object out revokes its
        # band (outside a subround the install's sends leave at once)
        cands = np.array(sorted(st.informed - {oid}), dtype=np.int64)
        ((inst, banded),) = server._plan_full(
            np.array([st.row]), np.array([0, cands.shape[0]]), cands
        )
        server._install(st.row, inst, banded, 0)
        assert oid not in st.informed
        assert (oid, qid) not in server._unacked
        resent = sim.channel.stats.retransmits_by_kind[
            MessageKind.INSTALL_REGION
        ]
        sim.step()
        assert sim.channel.stats.retransmits_by_kind[
            MessageKind.INSTALL_REGION
        ] == resent
