"""Behavioral tests for the broadcast protocol (DKNN-B)."""

import math

import pytest

from repro.core import BroadcastParams
from repro.core.broadcast_variant import (
    BroadcastMobileNode,
    build_broadcast_system,
)
from repro.errors import ProtocolError
from repro.net.message import MessageKind
from repro.server import QuerySpec
from repro.experiments.config import RunConfig
from repro.workloads import WorkloadSpec, build_workload
from tests.helpers import reference_system


def _system(n=100, q=2, k=5, seed=13, **params):
    spec = WorkloadSpec(
        n_objects=n, n_queries=q, k=k, seed=seed, ticks=10, warmup_ticks=1
    )
    fleet, queries = build_workload(spec)
    sim = build_broadcast_system(
        fleet, queries, BroadcastParams(**params) if params else None
    )
    return sim, fleet, queries


class TestParams:
    def test_invalid_params_raise(self):
        with pytest.raises(ProtocolError):
            BroadcastParams(s_cap=-1)
        with pytest.raises(ProtocolError):
            BroadcastParams(initial_collect_radius=0)
        with pytest.raises(ProtocolError):
            BroadcastParams(collect_slack=1.0)

    def test_focal_outside_fleet_raises(self):
        sim, fleet, _ = _system()
        with pytest.raises(ProtocolError):
            build_broadcast_system(fleet, [QuerySpec(qid=9, focal_oid=10_000, k=2)])


class TestTraffic:
    def test_no_dead_reckoning_stream(self):
        sim, fleet, _ = _system()
        sim.run(10)
        stats = sim.channel.stats
        assert stats.messages_of(MessageKind.LOCATION_UPDATE) == 0
        assert stats.messages_of(MessageKind.TICK_REPORT) == 0

    def test_collect_replies_bounded_by_population(self):
        sim, fleet, _ = _system()
        sim.run(10)
        stats = sim.channel.stats
        collects = stats.messages_of(MessageKind.COLLECT)
        replies = stats.messages_of(MessageKind.COLLECT_REPLY)
        assert collects > 0
        assert replies <= collects * fleet.n

    def test_repairs_track_collect_rounds(self):
        sim, _, queries = _system()
        sim.run(10)
        for q in queries:
            assert (
                sim.server.collect_rounds[q.qid]
                >= sim.server.repair_count[q.qid]
            )

    def test_uplink_is_density_dependent_not_population_dependent(self):
        """Doubling N with the same density region should not double
        DKNN-B's per-tick traffic (the headline scaling claim)."""
        msgs = {}
        for n in (100, 400):
            spec = WorkloadSpec(
                n_objects=n, n_queries=2, k=5, seed=13, ticks=30, warmup_ticks=5
            )
            fleet, queries = build_workload(spec)
            sim = build_broadcast_system(fleet, queries)
            sim.run(5)
            mark = sim.channel.stats.snapshot()
            sim.run(25)
            msgs[n] = sim.channel.stats.delta_since(mark).total_messages
        assert msgs[400] < msgs[100] * 2.5


class TestMobileNode:
    def test_focal_does_not_answer_own_collect(self):
        sim, fleet, queries = _system(n=30, q=1)
        sim.run(5)
        # The focal node never appears in its own answer.
        q = queries[0]
        assert q.focal_oid not in sim.server.answers[q.qid]

    def test_monitors_installed_on_all_nodes(self):
        # On the per-object reference: in a built system the monitors
        # live in the client phase's cells, and no node holds one.
        spec = WorkloadSpec(
            n_objects=30, n_queries=1, k=5, seed=13, ticks=10, warmup_ticks=1
        )
        sim, queries = reference_system(RunConfig("DKNN-B"), spec)
        sim.run(3)
        qid = queries[0].qid
        with_monitor = sum(
            1 for node in sim.mobiles if qid in node.monitors
        )
        assert with_monitor == sim.fleet.n

    def test_infinite_threshold_silences_monitoring(self):
        # Population below k: trivial install, nobody ever violates.
        sim, fleet, queries = _system(n=3, q=1, k=8)
        sim.run(3)
        mark = sim.channel.stats.snapshot()
        sim.run(7)
        delta = sim.channel.stats.delta_since(mark)
        assert delta.total_messages == 0

    def test_unknown_kind_raises(self):
        sim, fleet, _ = _system(n=10, q=1)
        from repro.net.message import Message, SERVER_ID

        msg = Message(MessageKind.INSTALL_REGION, SERVER_ID, 0, None)
        with pytest.raises(ProtocolError):
            BroadcastMobileNode(0, fleet).on_message(msg)
        with pytest.raises(ProtocolError):  # nor does the phase
            sim._deliver([msg])


class TestServerStateMachine:
    def test_violation_for_unknown_query_raises(self):
        sim, fleet, _ = _system(n=10, q=1)
        from repro.core.protocol import ViolationReport
        from repro.net.message import Message, SERVER_ID

        with pytest.raises(ProtocolError):
            sim.server.on_message(
                Message(
                    MessageKind.VIOLATION, 0, SERVER_ID,
                    ViolationReport(1234, 0, 0),
                )
            )

    def test_threshold_state_becomes_finite(self):
        sim, fleet, queries = _system(n=100, q=1)
        sim.run(3)
        st = sim.server._states[queries[0].qid]
        assert math.isfinite(st.threshold)
        assert st.s_eff >= 0
        assert len(st.answer_ids) == queries[0].k
