"""Wire a complete DKNN system (server + a node per object, or the
client phase that holds them all as columns) together."""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.core.client import DknnMobileNode
from repro.core.fastpath import DknnSilentPhase
from repro.core.hardened import HardenedDknnNode, HardenedDknnServer
from repro.core.params import DknnParams
from repro.core.server import DknnServer
from repro.errors import ProtocolError
from repro.net.faults import FaultPlan
from repro.net.node import Population
from repro.net.simulator import ONE_TICK_LATENCY, ZERO_LATENCY, RoundSimulator
from repro.server.query_table import QuerySpec

__all__ = ["build_dknn_system"]


def build_dknn_system(
    fleet,
    specs: Sequence[QuerySpec],
    params: Optional[DknnParams] = None,
    latency: str = ZERO_LATENCY,
    record_history: bool = False,
    faults: Optional[FaultPlan] = None,
    telemetry=None,
) -> RoundSimulator:
    """Build a ready-to-run simulator for the point-to-point protocol.

    Every fleet object is a :class:`DknnMobileNode`, built when the
    per-object loop first needs them (:class:`~repro.net.node.Population`)
    — under the phase, never; focal objects are ordinary nodes that
    additionally receive query circles.
    In one-tick-latency mode the planner margin is widened by the
    fleet's max speed automatically (positions are one tick staler).
    When ``params.fault_tolerant`` is set, the server and nodes are the
    self-healing build's (:mod:`repro.core.hardened`); pass ``faults``
    to actually perturb the network (a hardened system on a perfect
    network stays exact). The client side is the vectorized
    silent-object phase (:class:`~repro.core.fastpath.DknnSilentPhase`),
    which holds every node as columns and builds none — except over
    hardened nodes, whose clocks may fire on any tick, and over a
    ``faults`` channel, which decides per message: those builds run
    the per-object loop. Any fleet works; a
    :class:`~repro.mobility.FastFleet` hands the phase its coordinate
    arrays without a copy.
    """
    if params is None:
        params = DknnParams()
    for spec in specs:
        if not 0 <= spec.focal_oid < fleet.n:
            raise ProtocolError(
                f"query {spec.qid}: focal object {spec.focal_oid} "
                f"not in fleet of {fleet.n}"
            )
    if latency == ONE_TICK_LATENCY and params.latency_slack == 0.0:
        params = dataclasses.replace(params, latency_slack=fleet.max_speed)
    theta, retry = params.theta, params.violation_retry
    if params.fault_tolerant:
        server_cls, node_cls = HardenedDknnServer, HardenedDknnNode
        make = lambda oid: HardenedDknnNode(oid, fleet, theta, retry)
        phase = None
    else:
        server_cls, node_cls = DknnServer, DknnMobileNode
        make = lambda oid: DknnMobileNode(oid, fleet, theta)
        phase = DknnSilentPhase(theta)
    server = server_cls(fleet.universe, params, record_history=record_history)
    for spec in specs:
        server.register_query(spec)
    server.table.reserve(fleet.n)
    return RoundSimulator(
        fleet,
        server,
        Population(fleet.n, node_cls, make),
        latency=latency,
        faults=faults,
        client_phase=phase,
        telemetry=telemetry,
    )
