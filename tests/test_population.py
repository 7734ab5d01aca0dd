"""Mobile nodes on demand: a builder's population builds a node object
only when scalar code needs it, and what that costs before tick 1.

The node classes stay the specification: everything here checks *who*
gets built and *how much* a build leaves behind; that a node built late
holds what an eagerly built twin holds are the Hypothesis properties in
``tests/test_region_table.py`` (DKNN-P) and ``tests/test_fastpath.py``
(DKNN-B/G).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.baselines.common import ReporterNode
from repro.core.broadcast_variant import BroadcastMobileNode
from repro.core.client import DknnMobileNode
from repro.core.fastpath import BroadcastSilentPhase
from repro.errors import NetworkError, ProtocolError
from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.mobility import Fleet, StationaryMover
from repro.net.engine import EngineConfig
from repro.net.faults import FaultPlan
from repro.net.node import MobileNode, Population, ServerNodeBase
from repro.net.simulator import RoundSimulator
from repro.server.config import AdmissionPolicy, ShardConfig
from repro.workloads import WorkloadSpec, build_workload

SPEC = WorkloadSpec(
    n_objects=20_000, n_queries=2, k=4, ticks=30, warmup_ticks=1, seed=5
)


@pytest.mark.parametrize(
    "algorithm", ["DKNN-P", "DKNN-B", "DKNN-G", "PER", "SEA", "CPM"]
)
def test_only_what_a_scalar_path_reaches_is_built(algorithm, monkeypatch):
    fleet, queries = build_workload(SPEC)
    sim = build_system(RunConfig(algorithm), fleet, queries)
    assert len(sim.mobiles) == fleet.n
    assert sim.mobiles.built() == []
    reached = set()
    dispatch = sim._dispatch

    def recorded_dispatch(node, msg):
        if isinstance(node, MobileNode):
            reached.add(node.oid)
        dispatch(node, msg)

    sim._dispatch = recorded_dispatch
    for cls in (DknnMobileNode, BroadcastMobileNode, ReporterNode):
        tick_start = cls.on_tick_start

        def recorded_tick_start(node, tick, tick_start=tick_start):
            reached.add(node.oid)
            tick_start(node, tick)

        monkeypatch.setattr(cls, "on_tick_start", recorded_tick_start)
    sim.run(SPEC.ticks)
    built = {node.oid for node in sim.mobiles.built()}
    assert built == reached
    if algorithm == "DKNN-P":
        # every downlink is a flight the phase takes whole, answer
        # pushes included: no node is reached, none is built
        assert built == set()
    else:
        # the focal objects get answers pushed; the crowd stays columns
        assert 0 < len(built) < fleet.n // 10


ALGORITHMS = ["DKNN-P", "DKNN-B", "DKNN-G", "PER", "SEA", "CPM"]
#: the transports: a radio fault plan decides per message; a sharded
#: tier with an admission policy does too, a plain one does not.
FAULTS = {"clean": None, "faulty": FaultPlan(seed=3, drop_uplink=0.05)}
TIERS = {
    "single": None,
    "S2": ShardConfig(shards=2),
    "S2-admission": ShardConfig(
        shards=2, admission=AdmissionPolicy(max_uplinks_per_tick=40)
    ),
}


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("algorithm", ALGORITHMS + ["DKNN-P-hardened"])
def test_a_build_has_a_client_phase_exactly_where_it_is_the_whole_node(
    algorithm, faults, tier
):
    """No client phase — the per-object loop, plane closed — exactly
    where the transport decides per message (a radio ``FaultPlan``, a
    tier with admission) or the nodes keep clocks (hardened DKNN-P);
    every other build has its phase. A DKNN-P phase builds no node."""
    fleet, queries = build_workload(
        WorkloadSpec(
            n_objects=300, n_queries=2, k=4, ticks=5, warmup_ticks=1, seed=5
        )
    )
    hardened = algorithm == "DKNN-P-hardened"
    cfg = RunConfig(
        "DKNN-P" if hardened else algorithm, faults=FAULTS[faults],
        shard=TIERS[tier], params={"fault_tolerant": True} if hardened else {},
    )
    sim = build_system(cfg, fleet, queries)
    per_object = hardened or faults == "faulty" or tier == "S2-admission"
    assert (sim.client_phase is None) == per_object
    assert sim.plane_open() == (not per_object)
    sim.run(5)
    if algorithm == "DKNN-P":
        assert (sim.mobiles.built() == []) == (not per_object)


def test_a_broadcast_phase_refuses_other_nodes_without_building_them():
    """``BroadcastSilentPhase`` checks the population's node classes,
    not its nodes: binding it to DKNN-P nodes fails before any is
    built."""
    fleet = TestPopulation._fleet()
    pop = Population(
        fleet.n, DknnMobileNode, lambda oid: DknnMobileNode(oid, fleet, 1.0)
    )
    with pytest.raises(ProtocolError, match="DknnMobileNode"):
        RoundSimulator(
            fleet, ServerNodeBase(), pop, client_phase=BroadcastSilentPhase({})
        )
    assert pop.built() == []


def test_an_event_mode_system_costs_little_before_tick_one():
    """What ``build_system`` retains per object, nodes and the event
    engine's opening schedule included (1,093 B with every node built
    and one heap row per node)."""
    fleet, queries = build_workload(
        WorkloadSpec(
            n_objects=200_000, n_queries=16, k=8, ticks=2, warmup_ticks=1,
            seed=3, mobility="mostly_stationary", query_speed=0.0,
        )
    )
    gc.collect()
    tracemalloc.start()
    try:
        sim = build_system(
            RunConfig("DKNN-P", engine=EngineConfig(mode="event")),
            fleet, queries,
        )
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sim.mobiles.built() == []
    assert retained / fleet.n <= 300


class TestPopulation:
    @staticmethod
    def _fleet(n=4):
        from repro.geometry import Rect

        universe = Rect(0.0, 0.0, 100.0, 100.0)
        return Fleet(
            [StationaryMover(universe, 10.0 * i, 5.0) for i in range(n)]
        )

    def test_indexing_and_iteration_build_on_a_miss(self):
        fleet = self._fleet()
        made = []

        def make(oid):
            made.append(oid)
            return MobileNode(oid, fleet)

        pop = Population(fleet.n, MobileNode, make)
        assert len(pop) == 4 and pop.built() == [] and made == []
        node = pop[2]
        assert pop[2] is node and made == [2]
        assert pop.get(7) is None and pop.get(-1) is None
        with pytest.raises(IndexError):
            pop[4]
        assert [n.oid for n in pop] == [0, 1, 2, 3]
        assert made == [2, 0, 1, 3]
        assert [n.oid for n in pop.built()] == [0, 1, 2, 3]

    def test_a_hand_built_table_is_filled_up_front(self):
        fleet = self._fleet()
        nodes = [MobileNode(oid, fleet) for oid in (1, 3)]
        pop = Population.of(nodes, fleet.n)
        assert len(pop) == 2 and pop.oids().tolist() == [1, 3]
        assert list(pop) == nodes and pop[3] is nodes[1]
        assert pop.get(0) is None
        with pytest.raises(NetworkError):
            Population.of([MobileNode(1, fleet), MobileNode(1, fleet)])

    def test_a_hand_built_list_out_of_oid_order_is_refused(self):
        """The table runs its members in ascending oid; a list in any
        other order would silently change who sends first."""
        fleet = self._fleet()
        with pytest.raises(NetworkError, match="ascending oid"):
            Population.of([MobileNode(oid, fleet) for oid in (3, 1)])
        with pytest.raises(NetworkError, match="ascending oid"):
            RoundSimulator(
                fleet, ServerNodeBase(),
                [MobileNode(oid, fleet) for oid in (0, 2, 1)],
            )
