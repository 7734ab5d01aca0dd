"""Turn a :class:`WorkloadSpec` into a fleet and query specs."""

from __future__ import annotations

import functools
import random
from typing import List, Tuple

from repro.errors import ConfigError, WorkloadError
from repro.geometry import Rect
from repro.mobility import (
    FastFleet,
    GaussianClusterModel,
    HotspotDriftModel,
    MobilityModel,
    MostlyStationaryModel,
    Mover,
    RandomDirectionModel,
    RandomWaypointModel,
    RoadNetworkModel,
    StationaryMover,
)
from repro.server.query_table import QuerySpec
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "accepts_retired_fast",
    "build_workload",
    "make_focal_movers",
    "make_mobility_model",
]


def accepts_retired_fast(func):
    """Keep ``func`` accepting the retired ``fast=`` keyword.

    There is one build — the vectorized client phase over a
    :class:`~repro.mobility.FastFleet` — so ``fast=True`` selects
    nothing and is dropped; any other value asks for a build that no
    longer exists and raises :class:`~repro.errors.ConfigError`.
    ``functools.wraps`` keeps the wrapped signature for introspection.
    """

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if "fast" in kwargs and kwargs.pop("fast") is not True:
            raise ConfigError(
                "fast= is retired: there is one build, the vectorized "
                "client phase over a FastFleet — drop the keyword"
            )
        return func(*args, **kwargs)

    return wrapper


def make_mobility_model(spec: WorkloadSpec, universe: Rect) -> MobilityModel:
    """Instantiate the population's mobility model from the spec."""
    opts = dict(spec.mobility_options)
    common = dict(speed_min=spec.speed_min, speed_max=spec.speed_max)
    if spec.mobility == "random_waypoint":
        return RandomWaypointModel(universe, **common, **opts)
    if spec.mobility == "random_direction":
        return RandomDirectionModel(universe, **common, **opts)
    if spec.mobility == "gaussian_cluster":
        return GaussianClusterModel(universe, **common, **opts)
    if spec.mobility == "hotspot":
        # Gaussian clusters with concentrated defaults: a couple of
        # dense, heavily skewed hotspots. The population piles into a
        # small fraction of the area, so a spatial shard grid sees the
        # worst-case load imbalance (the E15 stressor).
        hotspot = dict(n_hotspots=3, sigma=0.03 * universe.width, zipf_s=2.0)
        hotspot.update(opts)
        return GaussianClusterModel(universe, **common, **hotspot)
    if spec.mobility == "hotspot_drift":
        # Orbiting hotspots: the dense clusters of "hotspot", but each
        # center circles its base point, dragging the crowd across
        # shard boundaries — the load skew *moves*, which is what
        # elastic rebalancing (E18) is for.
        drift = dict(
            n_hotspots=3,
            sigma=0.03 * universe.width,
            zipf_s=1.0,
            drift_radius=0.25 * universe.width,
            drift_period=240,
        )
        drift.update(opts)
        return HotspotDriftModel(universe, **common, **drift)
    if spec.mobility == "road_network":
        return RoadNetworkModel(universe, **common, **opts)
    if spec.mobility == "mostly_stationary":
        # A sparse set of waypoint movers in a still crowd — the
        # event-engine stressor (E19): most ticks are provable no-ops,
        # so the tick-vs-event wall-clock gap is at its widest.
        return MostlyStationaryModel(universe, **common, **opts)
    raise WorkloadError(f"unknown mobility {spec.mobility!r}")


def make_focal_movers(spec: WorkloadSpec, universe: Rect) -> List[Mover]:
    """Movers for the dedicated focal objects.

    ``query_speed == 0`` yields stationary focal points scattered
    uniformly (seeded independently of the population).
    """
    rng = random.Random(spec.seed + 10_007)
    movers: List[Mover] = []
    if spec.query_speed == 0:
        for _ in range(spec.n_queries):
            movers.append(
                StationaryMover(
                    universe,
                    rng.uniform(universe.xmin, universe.xmax),
                    rng.uniform(universe.ymin, universe.ymax),
                )
            )
        return movers
    model = RandomWaypointModel(
        universe,
        speed_min=spec.query_speed * 0.5,
        speed_max=spec.query_speed,
        pause_max=0,
    )
    for _ in range(spec.n_queries):
        movers.append(model.make_mover(rng))
    return movers


@accepts_retired_fast
def build_workload(spec: WorkloadSpec) -> Tuple[FastFleet, List[QuerySpec]]:
    """Build the fleet and the query list for one run.

    Focal objects occupy ids ``n_objects .. population-1``; query ``i``
    is anchored at focal object ``n_objects + i``. The fleet is a
    :class:`~repro.mobility.FastFleet` — numpy-backed positions and a
    batched ``advance()``, its motion bit-identical to a scalar
    :class:`~repro.mobility.Fleet` over the same movers.
    """
    size = spec.universe_size
    universe = Rect(0.0, 0.0, size, size)
    model = make_mobility_model(spec, universe)
    focal_movers = make_focal_movers(spec, universe)
    fleet = FastFleet.from_model(
        model, spec.n_objects, seed=spec.seed, extra_movers=focal_movers
    )
    queries = [
        QuerySpec(qid=i, focal_oid=spec.n_objects + i, k=spec.k)
        for i in range(spec.n_queries)
    ]
    return fleet, queries
