"""The event-scheduled engine: config surface and the equivalence pin.

DESIGN §8's contract is that ``EngineConfig(mode="event")`` changes
*when work happens*, never *what the protocol computes*: at every tick
boundary the published answers, the message counters and the mobility
RNG stream are identical to the synchronous tick loop. The tests here
run both modes tick by tick over the same workload and compare answers
after every single tick — across algorithms, under a FaultPlan, under
the sharded tier, and with one-tick latency — and check the skip rule
itself in tick mode: a tick it would skip sends nothing.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.client import DknnMobileNode
from repro.core.fastpath import DknnSilentPhase
from repro.errors import ConfigError
from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.net.engine import ENGINE_MODES, EngineConfig, EventDriver
from repro.net.faults import FaultPlan
from repro.net.message import SERVER_ID, MessageKind
from repro.server.config import ShardConfig
from repro.workloads import WorkloadSpec, build_workload
from tests.helpers import (
    built_system, logged_sends, messages_of, scalar_workload,
)

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

#: Road-network movers, slow and sparse: no kernel, so the fleet
#: cannot say they stood still and event mode runs every tick.
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
        "meter": dict(sim.server.meter.units),
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
        full ticks, and re-checks the receivers at its next evaluation —
        same answers and messages as the tick loop, and the still ticks
        skipped (pinned): the parked stretches of the commute period,
        each one after the tick its last reports were answered on."""
        spec = dataclasses.replace(SPEC, n_objects=1500, k=8)
        tick_run = _run(RunConfig("DKNN-P"), spec)
        event_run = _run(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event")), spec
        )
        _assert_equivalent(tick_run, event_run)
        assert event_run["skipped"] == [*range(7, 21), *range(27, 41)]
        assert event_run["driver"].skipped_ticks == 28
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
        # the faulty channel decides per message: no client phase, so
        # nothing observes stillness and every tick runs
        assert event_run["driver"].skipped_ticks == 0

    @pytest.mark.parametrize(
        "faults", [None, FaultPlan(seed=5, drop_uplink=0.05)],
        ids=["clean", "faulty"],
    )
    def test_hardened_build_has_no_planner_and_runs_every_tick(self, faults):
        """A hardened node's clocks may fire on any tick: the build has
        no client phase to observe stillness, so event mode skips
        nothing and its answers, per-kind CommStats and meter are the
        tick loop's."""
        cfg = RunConfig(
            "DKNN-P", params={"fault_tolerant": True}, faults=faults
        )
        tick_run = _run(cfg)
        event_run = _run(cfg.but(engine=EngineConfig(mode="event")))
        _assert_equivalent(tick_run, event_run)
        assert event_run["meter"] == tick_run["meter"]
        driver = event_run["driver"]
        assert driver.skipping is False
        assert driver.skipped_ticks == 0 and driver.full_ticks == TICKS

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
        """Movers without a kernel count as moved every tick: event mode
        runs every tick, as the tick loop does."""
        tick_run = _run(RunConfig("DKNN-P"), ROAD_SPEC)
        event_run = _run(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event")), ROAD_SPEC
        )
        _assert_equivalent(tick_run, event_run)
        assert event_run["driver"].skipped_ticks == 0

    def test_scalar_fleet_runs_every_tick(self):
        """A scalar Fleet cannot say whether it moved: event mode runs
        every tick in full, as the tick loop does."""

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
        assert set(doc) == {"mode", "skipping", "skipped_ticks", "full_ticks"}
        assert doc["mode"] == "event"

    def test_a_settled_server_answer_does_not_outlive_a_full_tick(self):
        """``DknnServer.event_idle`` keeps a settled answer while the
        object table's mark stands; a full tick's hooks, which begin
        with ``on_tick_start``, may change the rows without a write, so
        the answer is looked at again after one."""
        sim, _ = built_system(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event")), SPEC
        )
        server = sim.server
        while not server.event_idle(sim.tick + 1):
            sim.step()
        tick = sim.tick + 1
        assert server.event_idle(tick)  # the kept answer
        server.on_tick_start(tick)
        server._q.dirty[0] = True  # as a hook may leave it
        assert not server.event_idle(tick)

    def test_build_system_installs_the_driver(self):
        fleet, queries = build_workload(SPEC)
        bare = build_system(RunConfig("DKNN-P"), fleet, queries)
        assert bare.driver.stats()["mode"] == "tick" and bare._driver is None
        fleet, queries = build_workload(SPEC)
        sim = build_system(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event")),
            fleet, queries,
        )
        assert isinstance(sim._driver, EventDriver)
        assert sim.driver is sim._driver


WAYPOINT_SPEC = dataclasses.replace(
    SPEC, mobility="random_waypoint", mobility_options={}, query_speed=20.0
)


class TestBatchedCounts:
    """What a full tick of the client phase does not do."""

    @pytest.mark.parametrize("spec", [SPEC, WAYPOINT_SPEC], ids=["commute", "waypoint"])
    def test_every_scalar_tick_start_sends(self, spec, monkeypatch):
        """Without protocol timers the candidate mask is exact: a
        candidate runs its tick-start — on the phase's columns, as no
        node is built — only on a tick it transmits, so every such
        candidate of a tick is among that tick's uplink senders, and no
        node runs its own ``on_tick_start``. Held regions are read off
        the phase's table: under the phase there are no nodes to read."""
        fleet, queries = build_workload(spec)
        sim = build_system(RunConfig("DKNN-P"), fleet, queries)
        real = DknnSilentPhase._reports
        candidates, node_calls = [], []

        def counted(phase, oids, *args):
            candidates.append((phase.sim.tick, oids.tolist()))
            return real(phase, oids, *args)

        monkeypatch.setattr(DknnSilentPhase, "_reports", counted)
        monkeypatch.setattr(
            DknnMobileNode, "on_tick_start",
            lambda node, tick: node_calls.append(node.oid),
        )
        log = logged_sends(monkeypatch)
        sim.run(TICKS)
        senders = {}
        for _, item in log:
            for msg in messages_of(item):
                if msg.dst == SERVER_ID:
                    senders.setdefault(msg.sent_tick, set()).add(msg.src)
        assert sim.client_phase.regions.live.any()
        assert sum(len(oids) for _, oids in candidates) > 0
        for tick, oids in candidates:
            assert set(oids) <= senders.get(tick, set()), tick
        assert node_calls == []


#: ``event_sparse``'s shape at 20k objects, on a seed where a zone scan
#: falls due on a tick with nothing else to do (tick 51).
STILL_SPEC = WorkloadSpec(
    n_objects=20_000, n_queries=64, k=8, ticks=60, warmup_ticks=0, seed=11,
    mobility="mostly_stationary", query_speed=0.0,
    mobility_options={
        "moving_fraction": 0.01, "period": 40, "active_ticks": 10,
    },
)


def test_a_tick_the_rule_would_skip_sends_nothing_in_tick_mode():
    """The skip rule against the tick loop itself: on every tick where
    no position changed, the client phase found no candidate, the
    channel was idle and ``server.event_idle`` held as the round began,
    the round sends nothing. A banded query owes its zone a scan when
    reports landed after the last one; ``event_idle`` must say so, or
    event mode would skip the probes that scan sends."""
    fleet, queries = build_workload(STILL_SPEC)
    sim = build_system(RunConfig("DKNN-P"), fleet, queries)
    phase, server, channel = sim.client_phase, sim.server, sim.channel
    seen = {}
    tick_start, candidates = phase.tick_start, phase._candidates

    def observed_candidates(xs, ys):
        found = candidates(xs, ys)
        seen["none"] = found[0].shape[0] == 0
        return found

    def observed_tick_start(tick):
        seen["idle"] = channel.idle() and server.event_idle(tick)
        return tick_start(tick)

    phase._candidates = observed_candidates
    phase.tick_start = observed_tick_start
    xs, ys = fleet.positions.xs.copy(), fleet.positions.ys.copy()
    still = []
    for _ in range(STILL_SPEC.ticks):
        sent = channel.stats.total_messages
        sim.step()
        now = fleet.positions
        moved = not (np.array_equal(now.xs, xs) and np.array_equal(now.ys, ys))
        xs, ys = now.xs.copy(), now.ys.copy()
        if not moved and seen["none"] and seen["idle"]:
            still.append(sim.tick)
            assert channel.stats.total_messages == sent, sim.tick
    assert len(still) > STILL_SPEC.ticks // 2
