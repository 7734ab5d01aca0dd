"""Unit and regression tests for the fault-injection layer.

Covers :class:`FaultPlan` validation and queries, the perturbations of
:class:`FaultyChannel` (forced with probability-1 knobs so no sampling
is involved), node-down handling in the simulator, and the layer's
headline guarantee: a zero-fault run is bit-identical to one that never
mentioned faults at all.
"""

import pytest

from repro.errors import FaultError
from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.mobility import Fleet, StationaryMover
from repro.net.channel import Channel
from repro.net.faults import FaultPlan, FaultyChannel
from repro.net.message import BROADCAST_ID, SERVER_ID, MessageKind
from repro.net.simulator import RoundSimulator
from repro.net.node import MobileNode, ServerNodeBase
from repro.workloads import WorkloadSpec, build_workload
from tests.helpers import ExactnessChecker


class TestFaultPlanValidation:
    @pytest.mark.parametrize(
        "field", ["drop_uplink", "drop_downlink", "dup_prob", "delay_prob"]
    )
    def test_probability_out_of_range_raises(self, field):
        with pytest.raises(FaultError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(FaultError):
            FaultPlan(**{field: -0.1})

    def test_delay_ticks_must_be_positive(self):
        with pytest.raises(FaultError):
            FaultPlan(delay_prob=0.1, delay_ticks=0)

    def test_empty_blackout_window_raises(self):
        with pytest.raises(FaultError):
            FaultPlan(blackouts=[(3, 10, 10)])

    def test_negative_crash_tick_raises(self):
        with pytest.raises(FaultError):
            FaultPlan(crashes=[(3, -1)])

    def test_negative_until_tick_raises(self):
        with pytest.raises(FaultError):
            FaultPlan(drop_uplink=0.1, until_tick=-5)


class TestFaultPlanQueries:
    def test_default_plan_is_disabled(self):
        assert not FaultPlan().enabled
        assert not FaultPlan(seed=123).enabled  # seed alone is inert

    def test_any_knob_enables(self):
        assert FaultPlan(drop_uplink=0.1).enabled
        assert FaultPlan(dup_prob=0.1).enabled
        assert FaultPlan(blackouts=[(0, 1, 2)]).enabled
        assert FaultPlan(crashes=[(0, 5)]).enabled

    def test_lossy_at_respects_until_tick(self):
        plan = FaultPlan(drop_uplink=0.5, until_tick=10)
        assert plan.lossy_at(9)
        assert not plan.lossy_at(10)
        assert not plan.lossy_at(11)

    def test_is_down_blackout_window_half_open(self):
        plan = FaultPlan(blackouts=[(7, 5, 8)])
        assert not plan.is_down(7, 4)
        assert plan.is_down(7, 5)
        assert plan.is_down(7, 7)
        assert not plan.is_down(7, 8)
        assert not plan.is_down(8, 6)  # other nodes unaffected

    def test_is_down_crash_is_permanent(self):
        plan = FaultPlan(crashes=[(3, 20)])
        assert not plan.is_down(3, 19)
        assert plan.is_down(3, 20)
        assert plan.is_down(3, 10_000)

    def test_drop_prob_by_direction(self):
        plan = FaultPlan(drop_uplink=0.1, drop_downlink=0.4)
        ch = FaultyChannel(plan)
        ch.register(SERVER_ID)
        ch.register(0)
        up = ch.send(MessageKind.LOCATION_UPDATE, 0, SERVER_ID)
        down = ch.send(MessageKind.PROBE, SERVER_ID, 0)
        assert plan.drop_prob(up) == 0.1
        assert plan.drop_prob(down) == 0.4


@pytest.fixture
def _faulty():
    def make(**kwargs):
        ch = FaultyChannel(FaultPlan(**kwargs))
        ch.register(SERVER_ID)
        ch.register(0)
        ch.register(1)
        return ch

    return make


class TestFaultyChannel:
    def test_certain_drop_eats_message_but_counts_send(self, _faulty):
        ch = _faulty(drop_uplink=1.0)
        ch.send(MessageKind.LOCATION_UPDATE, 0, SERVER_ID)
        assert ch.pending() == 0
        assert ch.stats.total_messages == 1  # transmitted, then lost
        assert ch.stats.dropped == 1

    def test_drop_direction_is_respected(self, _faulty):
        ch = _faulty(drop_uplink=1.0)
        ch.send(MessageKind.PROBE, SERVER_ID, 0)  # downlink: untouched
        assert ch.pending() == 1
        assert ch.stats.dropped == 0

    def test_certain_duplicate_queues_twice(self, _faulty):
        ch = _faulty(dup_prob=1.0)
        ch.send(MessageKind.PROBE, SERVER_ID, 0)
        assert ch.pending() == 2
        assert ch.stats.duplicated == 1
        assert ch.stats.total_messages == 1  # one transmission

    def test_certain_delay_holds_then_releases(self, _faulty):
        ch = _faulty(delay_prob=1.0, delay_ticks=2)
        ch.begin_tick(1)
        ch.send(MessageKind.PROBE, SERVER_ID, 0)
        assert ch.pending() == 0
        assert len(ch._held) == 1
        assert ch.stats.delayed == 1
        ch.begin_tick(2)
        assert ch.pending() == 0  # still held
        ch.begin_tick(3)
        assert ch.pending() == 1  # released at sent_tick + delay_ticks
        assert len(ch.collect()) == 1

    def test_send_from_downed_node_is_suppressed(self, _faulty):
        ch = _faulty(blackouts=[(0, 0, 10)])
        ch.begin_tick(5)
        ch.send(MessageKind.LOCATION_UPDATE, 0, SERVER_ID)
        assert ch.pending() == 0
        assert ch.stats.total_messages == 0  # radio dead: never transmitted
        assert ch.stats.dropped == 1

    def test_unicast_to_downed_receiver_drops_on_delivery(self, _faulty):
        ch = _faulty(blackouts=[(1, 0, 10)])
        ch.begin_tick(5)
        ch.send(MessageKind.PROBE, SERVER_ID, 1)
        ch.collect()
        assert ch.stats.dropped == 1
        assert ch.stats.delivered == 0

    def test_until_tick_turns_faults_off(self, _faulty):
        ch = _faulty(drop_uplink=1.0, until_tick=5)
        ch.begin_tick(4)
        ch.send(MessageKind.LOCATION_UPDATE, 0, SERVER_ID)
        assert ch.pending() == 0  # still lossy
        ch.begin_tick(5)
        ch.send(MessageKind.LOCATION_UPDATE, 0, SERVER_ID)
        assert ch.pending() == 1  # faults ceased

    @pytest.mark.parametrize("one_call", [False, True], ids=["each", "range"])
    def test_broadcast_receivers_leave_out_down_nodes(self, one_call):
        ch = FaultyChannel(FaultPlan(crashes=[(1, 0), (7, 0)]))
        ch.register(SERVER_ID)
        if one_call:
            ch.register_mobiles(3)
        else:
            for oid in range(3):
                ch.register(oid)
        ch.send(MessageKind.COLLECT, SERVER_ID, BROADCAST_ID)
        ch.collect()
        # 0 and 2 hear it; not the sender, crashed 1 or unregistered 7
        assert ch.stats.broadcast_receptions == 2

    def test_fault_decisions_are_deterministic(self):
        def trace(seed):
            ch = FaultyChannel(FaultPlan(seed=seed, drop_uplink=0.5))
            ch.register(SERVER_ID)
            ch.register(0)
            out = []
            for t in range(1, 30):
                ch.begin_tick(t)
                ch.send(MessageKind.LOCATION_UPDATE, 0, SERVER_ID)
                out.append(ch.pending())
            return out

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)  # seed actually matters


class _SilentServer(ServerNodeBase):
    def __init__(self):
        super().__init__()
        self.received = []

    def on_message(self, msg):
        self.received.append(msg)


class _TickSender(MobileNode):
    def on_tick_start(self, tick):
        self.send_server(MessageKind.LOCATION_UPDATE, None)


class TestSimulatorNodeFaults:
    def _sim(self, universe, plan, n=2):
        movers = [
            StationaryMover(universe, 10.0 * (i + 1), 10.0) for i in range(n)
        ]
        fleet = Fleet(movers)
        server = _SilentServer()
        mobiles = [_TickSender(i, fleet) for i in range(n)]
        return RoundSimulator(fleet, server, mobiles, faults=plan), server

    def test_crashed_node_stops_sending(self, universe):
        sim, server = self._sim(universe, FaultPlan(crashes=[(0, 3)]))
        sim.run(5)
        senders = [m.src for m in server.received]
        assert senders.count(0) == 2  # ticks 1 and 2 only
        assert senders.count(1) == 5

    def test_blackout_is_temporary(self, universe):
        sim, server = self._sim(universe, FaultPlan(blackouts=[(0, 2, 4)]))
        sim.run(5)
        senders = [m.src for m in server.received]
        assert senders.count(0) == 3  # ticks 1, 4, 5
        assert senders.count(1) == 5


def _stats_fingerprint(stats):
    return (
        dict(stats.sent_by_kind),
        dict(stats.bytes_by_kind),
        dict(stats.sent_by_direction),
        stats.broadcast_receptions,
        stats.delivered,
        stats.dropped,
        stats.duplicated,
        stats.delayed,
        stats.retransmits,
    )


def _run_fingerprint(faults, **params):
    spec = WorkloadSpec(
        n_objects=80, n_queries=2, k=4, ticks=20, warmup_ticks=1, seed=31
    )
    fleet, queries = build_workload(spec)
    cfg = RunConfig("DKNN-P", faults=faults, params=params)
    sim = build_system(cfg, fleet, queries)
    sim.run(20)
    answers = {q.qid: list(sim.server.answers[q.qid]) for q in queries}
    return sim, answers, _stats_fingerprint(sim.channel.stats)


class TestZeroFaultBitIdentity:
    """A disabled plan must be indistinguishable from no plan at all."""

    def test_disabled_plan_normalized_away(self):
        sim, _, _ = _run_fingerprint(FaultPlan(seed=4242))
        assert sim.faults is None
        assert type(sim.channel) is Channel  # not even a FaultyChannel

    def test_disabled_plan_matches_seed_run_exactly(self):
        _, ans_none, stats_none = _run_fingerprint(None)
        _, ans_zero, stats_zero = _run_fingerprint(FaultPlan())
        _, ans_seeded, stats_seeded = _run_fingerprint(FaultPlan(seed=99))
        assert ans_none == ans_zero == ans_seeded
        assert stats_none == stats_zero == stats_seeded
        assert stats_none[-4:] == (0, 0, 0, 0)  # no drops/dups/delays/rexmits

    def test_hardening_alone_stays_exact_on_perfect_network(self):
        spec = WorkloadSpec(
            n_objects=80, n_queries=2, k=4, ticks=20, warmup_ticks=1, seed=31
        )
        fleet, queries = build_workload(spec)
        cfg = RunConfig(
            "DKNN-P",
            params=dict(
                fault_tolerant=True,
                ack_timeout=2,
                lease_ticks=8,
                violation_retry=2,
            ),
        )
        sim = build_system(cfg, fleet, queries)
        checker = ExactnessChecker(fleet, queries)
        sim.run(20, on_tick=checker)
        checker.assert_clean()
        # Acks flow but no repair traffic: nothing was ever lost.
        assert sim.channel.stats.retransmits == 0
        assert sim.channel.stats.messages_of(MessageKind.INSTALL_ACK) > 0
