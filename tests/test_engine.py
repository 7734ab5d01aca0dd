"""The event-scheduled engine: config surface and the equivalence pin.

DESIGN §15's contract is that ``EngineConfig(mode="event")`` changes
*when work happens*, never *what the protocol computes*: at every tick
boundary the published answers, the message counters and the mobility
RNG stream are identical to the synchronous tick loop. The tests here
run both modes tick by tick over the same workload and compare answers
after every single tick — across algorithms, under a FaultPlan, under
the sharded tier, and with one-tick latency.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

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
    driver = getattr(sim, "_driver", None)

    def observe(s) -> None:
        per_tick.append(
            {q.qid: frozenset(s.server.answers[q.qid]) for q in queries}
        )
        if driver is not None and driver.skipped_ticks > len(skipped):
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
        ticks and heap counters of the per-node re-plan the batched one
        replaced (pinned)."""
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
        out = engine_attach(sim, EngineConfig(mode="event"))
        assert out is sim
        assert isinstance(sim._driver, EventDriver)

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
        """Without protocol timers the candidate mask is exact: a node
        runs its scalar ``on_tick_start`` only on a tick it transmits."""
        fleet, queries = build_workload(spec)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        stats = sim.channel.stats
        real = DknnMobileNode.on_tick_start
        calls = []

        def counted(node, tick):
            sent = stats.total_messages
            real(node, tick)
            calls.append(stats.total_messages > sent)

        monkeypatch.setattr(DknnMobileNode, "on_tick_start", counted)
        sim.run(TICKS)
        assert any(r for n in sim.mobiles for r in n.regions)
        assert calls and all(calls)

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
        """The heap counters are those of the per-node re-plan the
        batched one replaced (pinned)."""
        run = _run(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event")), spec
        )
        doc = run["driver"].stats()
        assert {k: doc[k] for k in pinned} == pinned
