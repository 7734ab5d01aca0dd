"""Mobility substrate: movement models and the fleet."""

from repro.mobility.base import MobilityModel, Mover
from repro.mobility.fleet import Fleet
from repro.mobility.soa import FastFleet, SoAPositions
from repro.mobility.gaussian_cluster import GaussianClusterModel, GaussianClusterMover
from repro.mobility.hotspot_drift import HotspotDriftModel, HotspotDriftMover
from repro.mobility.mostly_stationary import CommuteMover, MostlyStationaryModel
from repro.mobility.random_direction import RandomDirectionModel, RandomDirectionMover
from repro.mobility.random_waypoint import RandomWaypointModel, RandomWaypointMover
from repro.mobility.road_network import (
    RoadNetworkModel,
    RoadNetworkMover,
    build_grid_network,
)
from repro.mobility.stationary import LinearMover, StationaryMover

__all__ = [
    "Mover",
    "MobilityModel",
    "Fleet",
    "FastFleet",
    "SoAPositions",
    "RandomWaypointModel",
    "RandomWaypointMover",
    "RandomDirectionModel",
    "RandomDirectionMover",
    "GaussianClusterModel",
    "GaussianClusterMover",
    "HotspotDriftModel",
    "HotspotDriftMover",
    "CommuteMover",
    "MostlyStationaryModel",
    "RoadNetworkModel",
    "RoadNetworkMover",
    "build_grid_network",
    "StationaryMover",
    "LinearMover",
]
