"""Distributed processing of moving k-nearest-neighbor queries on
moving objects — an ICDE 2007 reproduction.

A population of mobile objects and a set of continuous kNN queries
anchored at moving focal objects are simulated over a synchronous-round
network. The core contribution (``repro.core``) monitors each query
with distributed safe regions — objects stay silent while their own
band predicate holds — in two variants: point-to-point with a
dead-reckoning position table (DKNN-P) and broadcast/collect-based
(DKNN-B). Three centralized streaming baselines (PER, SEA, CPM) share
one communication pattern and differ in server evaluation cost.

The supported surface is :mod:`repro.api`; importing this package
loads nothing else. Quickstart::

    from repro.api import (
        Fleet, QuerySpec, RandomWaypointModel, Rect, build_broadcast_system,
    )

    universe = Rect(0, 0, 10_000, 10_000)
    fleet = Fleet.from_model(RandomWaypointModel(universe), 500, seed=7)
    queries = [QuerySpec(qid=0, focal_oid=0, k=8)]
    sim = build_broadcast_system(fleet, queries)
    sim.run(100)
    print(sim.server.answers[0])        # current 8 nearest object ids
    print(sim.channel.stats)            # message/byte accounting

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced evaluation.
"""

__version__ = "1.0.0"
