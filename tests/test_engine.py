"""The event-scheduled engine: config surface and the equivalence pin.

DESIGN §8's contract is that ``EngineConfig(mode="event")`` changes
*when work happens*, never *what the protocol computes*: at every tick
boundary the published answers, the message counters and the mobility
RNG stream are identical to the synchronous tick loop. The tests here
run both modes tick by tick over the same workload and compare answers
after every single tick — across algorithms, under a FaultPlan, under
the sharded tier, and with one-tick latency.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import DknnMobileNode
from repro.core.fastpath import DknnSilentPhase
from repro.core.protocol import (
    BAND_ANSWER,
    BAND_OUTSIDER,
    BAND_QUERY_CIRCLE,
    InstallBand,
)
from repro.core.wakeups import DknnWakeupPlanner
from repro.errors import ConfigError
from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.net.engine import (
    ENGINE_MODES,
    EngineConfig,
    EventDriver,
    engine_attach,
)
from repro.net.faults import FaultPlan
from repro.net.message import SERVER_ID, Message, MessageKind
from repro.net.node import MobileNode, Population
from repro.net.simulator import RoundSimulator
from repro.server.config import ShardConfig
from repro.workloads import WorkloadSpec, build_workload
from tests.helpers import SinkServer, built_system, scalar_workload

#: Mostly-silent workload: small enough for test time, still skippable.
SPEC = WorkloadSpec(
    n_objects=250,
    n_queries=4,
    k=4,
    universe_size=2000.0,
    mobility="mostly_stationary",
    mobility_options={"moving_fraction": 0.08, "period": 20, "active_ticks": 5},
    query_speed=0,
    ticks=40,
    warmup_ticks=3,
    seed=11,
)
TICKS = 40

#: Road-network movers, slow and sparse: no kernel, so the planner
#: claims only their speed bound, and ticks still go by on which no
#: object is within a step of a boundary.
ROAD_SPEC = dataclasses.replace(
    SPEC, n_objects=40, n_queries=1, k=2, speed_min=1.0, speed_max=3.0,
    mobility="road_network", mobility_options={},
)


def _run(
    cfg: RunConfig,
    spec: WorkloadSpec = SPEC,
    ticks: int = TICKS,
    build=built_system,
):
    """Run one config tick by tick; return per-tick answers + stats."""
    sim, queries = build(cfg, spec)
    per_tick = []
    skipped = []
    driver = sim.driver

    def observe(s) -> None:
        per_tick.append(
            {q.qid: frozenset(s.server.answers[q.qid]) for q in queries}
        )
        if driver.skipped_ticks > len(skipped):
            skipped.append(s.tick)

    sim.run(ticks, on_tick=observe)
    # CommStats is counters all the way down and has no __eq__; its
    # __dict__ (Counters + ints) compares by value.
    return {
        "answers": per_tick,
        "msgs": dict(sim.channel.stats.snapshot().__dict__),
        "driver": driver,
        "skipped": skipped,
    }


def _assert_equivalent(tick_run, event_run) -> None:
    assert len(tick_run["answers"]) == len(event_run["answers"])
    for t, (a, b) in enumerate(
        zip(tick_run["answers"], event_run["answers"])
    ):
        assert a == b, f"answers diverged at tick {t + 1}"
    assert tick_run["msgs"] == event_run["msgs"]


class TestEngineConfigValidation:
    def test_modes_tuple(self):
        assert ENGINE_MODES == ("tick", "event")

    def test_default_mode_is_event(self):
        assert EngineConfig().mode == "event"

    def test_unknown_mode_raises(self):
        with pytest.raises(ConfigError, match="unknown engine mode"):
            EngineConfig(mode="turbo")

    def test_frozen(self):
        cfg = EngineConfig()
        with pytest.raises(Exception):
            cfg.mode = "tick"

    def test_describe_round_trips_fields(self):
        assert EngineConfig(mode="tick").describe() == {"mode": "tick"}
        assert EngineConfig().describe() == {"mode": "event"}

    def test_run_config_rejects_non_engine(self):
        with pytest.raises(ConfigError, match="EngineConfig"):
            RunConfig("DKNN-P", engine="event")


class TestEquivalence:
    """Event mode == tick mode, answer for answer, tick for tick."""

    @pytest.mark.parametrize(
        "algorithm", ["DKNN-P", "DKNN-B", "DKNN-G", "PER", "SEA", "CPM"]
    )
    def test_per_tick_answers_match(self, algorithm):
        tick_run = _run(RunConfig(algorithm))
        event_run = _run(
            RunConfig(algorithm, engine=EngineConfig(mode="event"))
        )
        _assert_equivalent(tick_run, event_run)

    def test_tick_mode_is_the_null_engine(self):
        bare = _run(RunConfig("DKNN-P"))
        tick = _run(RunConfig("DKNN-P", engine=EngineConfig(mode="tick")))
        _assert_equivalent(bare, tick)
        assert tick["driver"].skipped_ticks == 0

    def test_fast_path_event_mode(self):
        tick_run = _run(RunConfig("DKNN-P"))
        event_run = _run(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event"))
        )
        _assert_equivalent(tick_run, event_run)
        assert event_run["driver"].skipped_ticks > 0

    def test_fast_path_event_mode_with_batched_installs_and_revokes(self):
        """Dense enough that repairs install and revoke in runs the
        server batches: the client phase applies them in place on the
        full ticks, and the driver still wakes the receivers on time —
        same answers and messages as the tick loop, and the skipped
        ticks and wakeup counters of the per-node re-plan the batched
        one replaced (pinned)."""
        spec = dataclasses.replace(SPEC, n_objects=1500, k=8)
        tick_run = _run(RunConfig("DKNN-P"), spec)
        event_run = _run(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event")), spec
        )
        _assert_equivalent(tick_run, event_run)
        assert event_run["skipped"] == [2, 7, *range(9, 21), *range(28, 41)]
        doc = event_run["driver"].stats()
        assert {
            c: doc[c] for c in ("scheduled", "fired", "cancelled", "skipped_ticks")
        } == dict(scheduled=2730, fired=2578, cancelled=21, skipped_ticks=27)
        stats = event_run["msgs"]
        assert stats["columnar_by_kind"][MessageKind.INSTALL_REGION] > 0
        assert stats["columnar_by_kind"][MessageKind.REVOKE_REGION] > 0
        assert not stats["materialized_by_kind"]

    def test_under_fault_plan(self):
        plan = FaultPlan(
            seed=5, drop_uplink=0.05, drop_downlink=0.05, delay_prob=0.05
        )
        tick_run = _run(RunConfig("DKNN-P", faults=plan))
        event_run = _run(
            RunConfig("DKNN-P", faults=plan, engine=EngineConfig(mode="event"))
        )
        _assert_equivalent(tick_run, event_run)

    def test_under_sharded_tier(self):
        shard = ShardConfig(shards=2)
        tick_run = _run(RunConfig("DKNN-P", shard=shard))
        event_run = _run(
            RunConfig("DKNN-P", shard=shard, engine=EngineConfig(mode="event"))
        )
        _assert_equivalent(tick_run, event_run)
        assert event_run["driver"].skipped_ticks > 0

    def test_with_one_tick_latency(self):
        tick_run = _run(RunConfig("DKNN-P", latency="one_tick"))
        event_run = _run(
            RunConfig("DKNN-P", latency="one_tick", engine=EngineConfig(mode="event"))
        )
        _assert_equivalent(tick_run, event_run)

    def test_road_network(self):
        """Movers without a kernel: speed-bound claims, still skipping."""
        tick_run = _run(RunConfig("DKNN-P"), ROAD_SPEC)
        event_run = _run(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event")), ROAD_SPEC
        )
        _assert_equivalent(tick_run, event_run)
        assert event_run["driver"].skipped_ticks > 0

    def test_scalar_fleet_runs_every_tick(self):
        """A scalar Fleet has no motion claims to plan from: event mode
        runs every tick in full, as the tick loop does."""

        def build(cfg, spec):
            fleet, queries = scalar_workload(spec)
            return build_system(cfg, fleet, queries), queries

        tick_run = _run(RunConfig("DKNN-P"), build=build)
        event_run = _run(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event")), build=build
        )
        _assert_equivalent(tick_run, event_run)
        assert event_run["driver"].stats()["skipping"] is False


class TestSkipping:
    def test_event_mode_actually_skips(self):
        run = _run(RunConfig("DKNN-P", engine=EngineConfig(mode="event")))
        d = run["driver"]
        assert d.skipped_ticks > 0
        assert d.skipped_ticks + d.full_ticks == TICKS
        assert d.fired > 0 and d.scheduled >= d.fired

    def test_record_history_forces_full_ticks(self):
        run = _run(
            RunConfig(
                "DKNN-P",
                record_history=True,
                engine=EngineConfig(mode="event"),
            )
        )
        assert run["driver"].skipped_ticks == 0

    def test_stats_document(self):
        run = _run(RunConfig("DKNN-P", engine=EngineConfig(mode="event")))
        doc = run["driver"].stats()
        for key in (
            "mode",
            "skipping",
            "scheduled",
            "fired",
            "cancelled",
            "skipped_ticks",
            "full_ticks",
            "pending",
        ):
            assert key in doc, f"stats() missing {key}"
        assert doc["mode"] == "event"


class TestAttach:
    def _sim(self):
        fleet, queries = build_workload(SPEC)
        return build_system(RunConfig("DKNN-P"), fleet, queries)

    def test_attach_returns_sim_and_installs_driver(self):
        sim = self._sim()
        assert sim.driver.stats()["mode"] == "tick" and sim._driver is None
        out = engine_attach(sim, EngineConfig(mode="event"))
        assert out is sim
        assert isinstance(sim._driver, EventDriver)
        assert sim.driver is sim._driver

    def test_double_attach_raises(self):
        sim = self._sim()
        engine_attach(sim, EngineConfig(mode="event"))
        with pytest.raises(ConfigError, match="already has an engine"):
            engine_attach(sim, EngineConfig(mode="event"))

    def test_attach_after_tick_zero_raises(self):
        sim = self._sim()
        sim.run(1)
        with pytest.raises(ConfigError, match="before the first tick"):
            engine_attach(sim, EngineConfig(mode="event"))

    def test_attach_rejects_non_config(self):
        with pytest.raises(ConfigError, match="EngineConfig"):
            engine_attach(self._sim(), "event")


# -- the planner, directly -----------------------------------------------------

WAYPOINT_SPEC = dataclasses.replace(
    SPEC, mobility="random_waypoint", mobility_options={}, query_speed=20.0
)


class TestPlannerNeverLate:
    """``DknnWakeupPlanner.wakeups`` (crossing claims + ``_merge_timers``)
    against the node's own ``on_tick_start``, scanned tick by tick.

    Hardened nodes hold regions with a lease and a retry timer and talk
    to a server that never answers, so every heartbeat, violation and
    retry there is comes from the node's own clockwork. Each node keeps
    one claim, renewed the way the driver renews it (when it falls due,
    and after the node acted or was messaged, in one batch per tick); a
    node must never act inside a window its claim called free.
    """

    @pytest.mark.parametrize("spec", [SPEC, WAYPOINT_SPEC], ids=["commute", "waypoint"])
    def test_no_action_inside_a_claimed_window(self, spec):
        # parked focal objects: holders that only their timers can wake
        fleet, _ = build_workload(
            dataclasses.replace(spec, n_objects=60, query_speed=0)
        )
        mobiles = [
            DknnMobileNode(
                oid, fleet, theta=60.0, ack_installs=True, violation_retry=3
            )
            for oid in range(fleet.n)
        ]
        sim = RoundSimulator(
            fleet, SinkServer(), mobiles, client_phase=DknnSilentPhase()
        )
        planner = DknnWakeupPlanner(sim)
        acted = set()
        claims = {}

        def replan(oids, tick):
            acts, resolves = planner.wakeups(np.array(oids, dtype=np.int64), tick)
            for oid, a, r in zip(oids, acts.tolist(), resolves.tolist()):
                assert a < 0 or r < 0
                claims[oid] = (a, r)
            return int((acts != tick + 1).sum())

        def watch(node):
            def on_tick_start(tick):
                before = self._state(node)
                DknnMobileNode.on_tick_start(node, tick)
                if self._state(node) != before:
                    acted.add(node.oid)
            return on_tick_start

        for node in mobiles:
            node.on_tick_start = watch(node)
        sim.step()
        skipped_ahead = timer_acts = 0
        for round_ in range(90):
            if round_ % 30 == 0:
                self._install_everywhere(sim, epoch=1 + round_)
                replan([node.oid for node in mobiles], sim.tick)
            acted.clear()
            sim.step()
            tick = sim.tick
            due = []
            for node in mobiles:
                act, resolve = claims[node.oid]
                if node.oid in acted:
                    assert 0 <= act <= tick, (
                        f"node {node.oid} acted at {tick} inside its "
                        f"claim (act={act}, resolve={resolve})"
                    )
                    timer_acts += fleet.max_speed_of(node.oid) == 0.0
                elif tick not in (act, resolve):
                    continue  # claim still running
                due.append(node.oid)
            skipped_ahead += replan(due, tick)
        assert skipped_ahead > 100  # the claims are not vacuous
        assert timer_acts > 0  # stationary holders act on timers alone
        assert sim.channel.stats.retransmits > 0  # the retry sweep ran

    @staticmethod
    def _state(node):
        return (
            node._last_sent,
            node._last_uplink_tick,
            frozenset(node._reported),
            tuple(sorted(node._violation_sent.items())),
        )

    @staticmethod
    def _install_everywhere(sim, epoch):
        """Three leased regions per node, some satisfied with room to
        spare, some about to be crossed, some violated from the start."""
        for node in sim.mobiles:
            x, y = sim.fleet.positions[node.oid]
            for qid, band in enumerate(
                (BAND_ANSWER, BAND_OUTSIDER, BAND_QUERY_CIRCLE)
            ):
                ax, ay = x + 60.0 + 5.0 * qid, y
                d = math.hypot(x - ax, y - ay)
                margin = (-10.0, 15.0, 120.0)[(node.oid + qid) % 3]
                if band == BAND_OUTSIDER:
                    margin = -margin
                payload = InstallBand(
                    qid, band, ax, ay, max(d + margin, 0.0),
                    epoch=epoch, lease=6,
                )
                sim._dispatch(
                    node,
                    Message(
                        MessageKind.INSTALL_REGION, SERVER_ID, node.oid, payload
                    ),
                )


class TestBatchedCounts:
    """What a full tick of the event engine no longer does."""

    @pytest.mark.parametrize("spec", [SPEC, WAYPOINT_SPEC], ids=["commute", "waypoint"])
    def test_every_scalar_tick_start_sends(self, spec, monkeypatch):
        """Without protocol timers the candidate mask is exact: a
        candidate runs its tick-start — on the phase's columns, as no
        node is built — only on a tick it transmits, and no node runs
        its own ``on_tick_start``. Held regions are read off the
        phase's table: iterating ``sim.mobiles`` would build nodes."""
        fleet, queries = build_workload(spec)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        stats = sim.channel.stats
        real = DknnSilentPhase._tick_start_unbuilt
        calls, node_calls = [], []

        def counted(phase, *args):
            sent = stats.total_messages
            real(phase, *args)
            calls.append(stats.total_messages > sent)

        monkeypatch.setattr(DknnSilentPhase, "_tick_start_unbuilt", counted)
        monkeypatch.setattr(
            DknnMobileNode, "on_tick_start",
            lambda node, tick: node_calls.append(node.oid),
        )
        sim.run(TICKS)
        assert sim.client_phase.regions.live.any()
        assert calls and all(calls)
        assert node_calls == []

    @pytest.mark.parametrize(
        "spec, pinned",
        [
            (SPEC, dict(scheduled=455, fired=433, cancelled=0, pending=22,
                        skipped_ticks=28, full_ticks=12)),
            (WAYPOINT_SPEC, dict(scheduled=7988, fired=4473, cancelled=3261,
                                 pending=254, skipped_ticks=0, full_ticks=40)),
        ],
        ids=["commute", "waypoint"],
    )
    def test_replan_is_batched_and_the_heap_is_unchanged(self, spec, pinned):
        """The wakeup counters of the batched column write are those of
        the per-node heap re-plan it replaced (pinned)."""
        run = _run(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event")), spec
        )
        doc = run["driver"].stats()
        assert {k: doc[k] for k in pinned} == pinned


# -- the wheel against the heap it replaced -----------------------------------

N_MODEL = 6


class _HeapModel:
    """The per-oid rule the tick wheel replaced, in plain Python: one
    heap of ``(tick, oid, act)`` rows, an entry map that makes every
    older row of an oid stale, and all rows due up to a tick popped."""

    def __init__(self, n: int) -> None:
        self.heap, self.entry = [], {}
        self.scheduled = self.fired = self.cancelled = 0
        for oid in range(n):  # the opening tick: every node acts
            self._schedule(oid, 1, True)

    def _schedule(self, oid, tick, act) -> None:
        cur = self.entry.get(oid)
        if cur == (tick, act):
            return
        self.cancelled += cur is not None
        self.entry[oid] = (tick, act)
        heapq.heappush(self.heap, (tick, oid, act))
        self.scheduled += 1

    def can_skip(self, next_tick: int) -> bool:
        due = self.entry.values()
        return not any(act and t <= next_tick for t, act in due)

    def pop(self, tick: int) -> list:
        fired = []
        while self.heap and self.heap[0][0] <= tick:
            t, oid, act = heapq.heappop(self.heap)
            if self.entry.get(oid) == (t, act):
                del self.entry[oid]
                self.fired += 1
                fired.append(oid)
        return fired

    def replan(self, due, answers) -> None:
        for oid in sorted(set(due)):
            act, resolve = answers[oid]
            if act >= 0:
                self._schedule(oid, act, True)
            elif resolve >= 0:
                self._schedule(oid, resolve, False)
            elif self.entry.pop(oid, None) is not None:
                self.cancelled += 1

    def counters(self) -> dict:
        return dict(scheduled=self.scheduled, fired=self.fired,
                    cancelled=self.cancelled, pending=len(self.entry))


class _DrawnPlanner:
    """Answers each re-plan with drawn ``(act, resolve)`` columns: ticks
    before, at and after the current one, -1s, and an oid's previous
    answer again."""

    def __init__(self, data) -> None:
        self.data = data
        self.last = {}
        self.calls = []

    def wakeups(self, oids, tick):
        self.calls.append(oids.tolist())
        near = st.integers(tick - 2, tick + 4)
        pairs = []
        for oid in oids.tolist():
            pair = self.data.draw(st.one_of(
                st.tuples(near, st.just(-1)),
                st.tuples(st.just(-1), near),
                st.tuples(near, near),
                st.just((-1, -1)),
                st.just(self.last.get(oid, (-1, -1))),
            ))
            self.last[oid] = pair
            pairs.append(pair)
        acts, resolves = zip(*pairs)
        return (np.array(acts, dtype=np.int64),
                np.array(resolves, dtype=np.int64))


class _Ground:
    """What the driver reads of a simulator: a fleet that counts ticks,
    a channel whose idleness the test sets, a server always idle."""

    def __init__(self) -> None:
        self.tick = 0
        self.quiet = True
        self.fleet = self.channel = self.server = self
        self.mobiles = Population(N_MODEL, MobileNode, lambda oid: None)

    def advance(self) -> None:
        self.tick += 1

    def begin_tick(self, tick: int) -> None:
        pass

    def idle(self) -> bool:
        return self.quiet

    def event_idle(self, tick: int) -> bool:
        return True


_STEP = st.one_of(
    st.tuples(st.just("tick"), st.booleans()),
    st.tuples(st.just("ids"), st.lists(st.integers(0, N_MODEL - 1),
                                       max_size=4)),
    st.tuples(st.just("node"), st.integers(0, N_MODEL - 1)),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), steps=st.lists(_STEP, max_size=40))
def test_the_wheel_fires_and_counts_as_the_heap_did(data, steps):
    """Touches and ticks in any order, the planner's answers drawn:
    after every step the driver and the heap model agree on whether
    the tick skips, which oids fire, which are re-planned, and on
    ``scheduled/fired/cancelled/pending``."""
    ground, planner = _Ground(), _DrawnPlanner(data)
    model = _HeapModel(N_MODEL)
    with mock.patch("repro.core.wakeups.planner_for", return_value=planner):
        driver = EventDriver(ground, EngineConfig(mode="event"))
    take, taken = driver._take, []

    def recorded_take(tick):
        taken.append(take(tick))
        return taken[-1]

    driver._take = recorded_take
    touched = []
    for kind, arg in steps:
        if kind == "ids":
            driver.note_ids(np.array(arg, dtype=np.int64))
            touched += arg
            continue
        if kind == "node":
            driver.note_node(arg)
            touched.append(arg)
            continue
        ground.quiet = arg
        skip = driver.can_skip(ground.tick + 1)
        assert skip == (arg and model.can_skip(ground.tick + 1))
        taken.clear()
        planner.calls.clear()
        if skip:
            driver.skip_tick()
        else:
            ground.advance()
            driver.after_full_step()
        due = model.pop(ground.tick)
        assert sorted(np.concatenate(taken).tolist()) == sorted(due)
        if not skip:
            due, touched = due + touched, []
        assert planner.calls == ([sorted(set(due))] if due else [])
        model.replan(due, planner.last)
        stats = driver.stats()
        assert {k: stats[k] for k in model.counters()} == model.counters()
