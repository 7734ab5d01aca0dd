"""Property-based tests of mobility invariants (DESIGN.md §3 key
invariant 4 depends on these: bounded speed and containment)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, dist
from repro.mobility import (
    Fleet,
    GaussianClusterModel,
    RandomDirectionModel,
    RandomWaypointModel,
    RoadNetworkModel,
)

UNIVERSE = Rect(0, 0, 5_000, 5_000)

model_choice = st.sampled_from(["waypoint", "direction", "cluster", "road"])


def _model(name, vmax):
    if name == "waypoint":
        return RandomWaypointModel(UNIVERSE, vmax * 0.2, vmax, pause_max=2)
    if name == "direction":
        return RandomDirectionModel(UNIVERSE, vmax * 0.2, vmax)
    if name == "cluster":
        return GaussianClusterModel(
            UNIVERSE, n_hotspots=3, sigma=300, speed_min=vmax * 0.2,
            speed_max=vmax,
        )
    return RoadNetworkModel(
        UNIVERSE, rows=5, cols=5, speed_min=vmax * 0.2, speed_max=vmax
    )


@given(
    model_choice,
    st.floats(min_value=1.0, max_value=500.0),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=9999),
)
@settings(max_examples=40, deadline=None)
def test_fleet_containment_and_speed_bound(name, vmax, n, seed):
    model = _model(name, vmax)
    fleet = Fleet.from_model(model, n, seed=seed)
    for _ in range(25):
        before = list(fleet.positions)
        fleet.advance()  # Fleet.advance re-checks both invariants itself
        for (x1, y1), (x2, y2) in zip(before, fleet.positions):
            assert UNIVERSE.contains_point(x2, y2)
            assert dist(x1, y1, x2, y2) <= vmax + 1e-6


@given(st.integers(min_value=0, max_value=9999))
@settings(max_examples=20, deadline=None)
def test_same_seed_same_world(seed):
    a = Fleet.from_model(RandomWaypointModel(UNIVERSE, 10, 40), 8, seed=seed)
    b = Fleet.from_model(RandomWaypointModel(UNIVERSE, 10, 40), 8, seed=seed)
    for _ in range(10):
        a.advance()
        b.advance()
    assert a.positions == b.positions
