"""Mobile nodes under a client phase and without one: a phase holds
every object as columns and no node is ever built under it; a build
without one builds every node at once, the first time the per-object
loop needs them.

The node classes stay the specification: everything here checks *who*
gets built and *how much* a build leaves behind; that the columns hold
what the nodes would hold are the Hypothesis properties in
``tests/test_region_table.py`` (DKNN-P) and ``tests/test_fastpath.py``
(DKNN-B/G).
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.client import DknnMobileNode
from repro.core.fastpath import BroadcastSilentPhase
from repro.core.protocol import RevokeBand
from repro.errors import NetworkError, ProtocolError
from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.mobility import Fleet, StationaryMover
from repro.net.engine import EngineConfig
from repro.net.faults import FaultPlan
from repro.net.message import SERVER_ID, Message, MessageKind
from repro.net.node import MobileNode, Population, ServerNodeBase
from repro.net.simulator import RoundSimulator
from repro.server.config import AdmissionPolicy, ShardConfig
from repro.workloads import WorkloadSpec, build_workload

SPEC = WorkloadSpec(
    n_objects=2_000, n_queries=3, k=4, ticks=40, warmup_ticks=1, seed=5
)


@pytest.mark.parametrize("shards", [None, 2], ids=["single", "S2"])
@pytest.mark.parametrize(
    "algorithm", ["DKNN-P", "DKNN-B", "DKNN-G", "PER", "SEA", "CPM"]
)
def test_no_node_is_built_under_a_phase(algorithm, shards, monkeypatch):
    """Every fault-free build, single server or ``S = 2``, runs without
    a node object: the phase takes every message for the mobiles —
    probes, short collect rounds and answer pushes included — looking
    a node up raises instead of building a ghost, and a message the
    phase cannot take raises with nothing built either."""
    made = []
    init = MobileNode.__init__

    def counted_init(node, *args, **kwargs):
        made.append(node)
        init(node, *args, **kwargs)

    monkeypatch.setattr(MobileNode, "__init__", counted_init)
    fleet, queries = build_workload(SPEC)
    shard = ShardConfig(shards=shards) if shards else None
    sim = build_system(RunConfig(algorithm, shard=shard), fleet, queries)
    assert sim.client_phase is not None and len(sim.mobiles) == fleet.n
    sim.run(SPEC.ticks)
    assert made == [] and sim.mobiles.nodes is None
    focal = queries[0].focal_oid
    with pytest.raises(NetworkError, match="client phase"):
        sim.mobiles[focal]
    with pytest.raises(NetworkError, match="client phase"):
        list(sim.mobiles)
    if algorithm in ("PER", "SEA", "CPM"):
        # the answer pushes landed in the phase, as known_answers
        assert focal in sim.client_phase._answers
    stray = Message(MessageKind.REVOKE_REGION, SERVER_ID, focal, RevokeBand(0))
    with pytest.raises(ProtocolError):
        sim._deliver([stray])
    assert made == [] and sim.mobiles.nodes is None


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
    every other build has its phase. A build with a phase builds no
    node; the per-object loop builds them all."""
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
    assert (sim.mobiles.nodes is None) == (not per_object)


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
    assert pop.nodes is None


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
    assert sim.mobiles.nodes is None
    assert retained / fleet.n <= 300


class TestPopulation:
    @staticmethod
    def _fleet(n=4):
        from repro.geometry import Rect

        universe = Rect(0.0, 0.0, 100.0, 100.0)
        return Fleet(
            [StationaryMover(universe, 10.0 * i, 5.0) for i in range(n)]
        )

    def test_the_first_use_builds_every_node(self):
        fleet = self._fleet()
        made = []

        def make(oid):
            made.append(oid)
            return MobileNode(oid, fleet)

        pop = Population(fleet.n, MobileNode, make)
        assert len(pop) == 4 and pop.nodes is None and made == []
        node = pop[2]
        assert pop[2] is node and made == [0, 1, 2, 3]
        assert pop.get(7) is None and pop.get(-1) is None
        with pytest.raises(IndexError):
            pop[4]
        assert [n.oid for n in pop] == [0, 1, 2, 3] and len(made) == 4

    def test_a_held_population_has_no_nodes(self):
        fleet = self._fleet()
        pop = Population(fleet.n, MobileNode, lambda oid: MobileNode(oid, fleet))
        pop.hold("SomePhase", fleet.n)
        for look in (lambda: pop[0], lambda: pop.get(0), lambda: list(pop)):
            with pytest.raises(NetworkError, match="SomePhase's columns"):
                look()
        assert pop.nodes is None and len(pop) == 4
        # released (a per-message tier took the phase away): built whole
        pop.held_by = None
        assert [n.oid for n in pop] == [0, 1, 2, 3]

    def test_a_hand_built_table_is_filled_up_front(self):
        fleet = self._fleet()
        nodes = [MobileNode(oid, fleet) for oid in (1, 3)]
        pop = Population.of(nodes, fleet.n)
        assert len(pop) == 2 and [n.oid for n in pop] == [1, 3]
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
