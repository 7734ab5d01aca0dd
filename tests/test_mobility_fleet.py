"""Unit tests for the Fleet."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MobilityError
from repro.geometry import Rect, dist
from repro.mobility import (
    FastFleet,
    Fleet,
    RandomWaypointModel,
    StationaryMover,
)
from repro.mobility.base import Mover
from repro.mobility.soa import _CommuteKernel
from tests.test_fastpath import _MOVER_KINDS, _WAYPOINT_FAMILIES, _fleet_kinds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

class TestConstruction:
    def test_empty_fleet_raises(self):
        with pytest.raises(MobilityError):
            Fleet([])

    def test_from_model_size(self, universe):
        fleet = Fleet.from_model(RandomWaypointModel(universe), 25, seed=1)
        assert fleet.n == 25
        assert len(fleet.positions) == 25

    def test_from_model_zero_objects_raises(self, universe):
        with pytest.raises(MobilityError):
            Fleet.from_model(RandomWaypointModel(universe), 0)

    def test_mixed_universes_raise(self, universe, small_universe):
        movers = [
            StationaryMover(universe, 1, 1),
            StationaryMover(small_universe, 1, 1),
        ]
        with pytest.raises(MobilityError):
            Fleet(movers)

    def test_extra_movers_get_trailing_ids(self, universe):
        extra = [StationaryMover(universe, 5, 5)]
        fleet = Fleet.from_model(
            RandomWaypointModel(universe), 10, seed=1, extra_movers=extra
        )
        assert fleet.n == 11
        assert fleet.position_of(10) == (5.0, 5.0)
        assert fleet.max_speed_of(10) == 0.0


class TestAdvance:
    def test_tick_counter(self, small_fleet):
        assert small_fleet.tick == 0
        small_fleet.advance()
        small_fleet.advance()
        assert small_fleet.tick == 2

    def test_positions_stay_inside_universe(self, small_fleet):
        for _ in range(50):
            small_fleet.advance()
            for x, y in small_fleet.positions:
                assert small_fleet.universe.contains_point(x, y)

    def test_max_speed_respected(self, small_fleet):
        for _ in range(50):
            before = list(small_fleet.positions)
            small_fleet.advance()
            for (x1, y1), (x2, y2) in zip(before, small_fleet.positions):
                assert dist(x1, y1, x2, y2) <= small_fleet.max_speed + 1e-6

    def test_determinism(self, universe):
        def run():
            fleet = Fleet.from_model(
                RandomWaypointModel(universe), 20, seed=77
            )
            for _ in range(30):
                fleet.advance()
            return list(fleet.positions)

        assert run() == run()

    def test_different_seeds_differ(self, universe):
        a = Fleet.from_model(RandomWaypointModel(universe), 20, seed=1)
        b = Fleet.from_model(RandomWaypointModel(universe), 20, seed=2)
        assert a.positions != b.positions


class _WholeCopyFleet(FastFleet):
    """The reference advance: the back buffers copied whole every
    tick."""

    def advance(self) -> None:
        np.copyto(self._bx, self._xs)
        np.copyto(self._by, self._ys)
        super().advance()


@given(
    kinds=st.sampled_from(_WAYPOINT_FAMILIES).flatmap(_fleet_kinds),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_the_partial_back_buffer_copy_equals_the_whole_copy(kinds, seed):
    """The interleaved-kernel fleets of ``tests/test_fastpath.py``
    (every mover class at shuffled oids, so moving kernels gather and
    scatter among still ones, and a commute kernel that parks and
    resumes): before every advance, the first included, the back
    buffers already hold every position of the kernels that did not
    move on the last one, and over 40 ticks every position equals a
    twin that copies the buffers whole every tick."""

    def fleet(cls):
        rng = random.Random(seed)
        return cls([_MOVER_KINDS[k](rng) for k in kinds], seed=seed)

    fast, whole = fleet(FastFleet), fleet(_WholeCopyFleet)
    (commute,) = [k for k in fast._kernels if isinstance(k, _CommuteKernel)]
    windows = []
    for _ in range(40):
        for kern in fast._kernels:
            if not kern.moved:
                at = kern.at
                assert fast._bx[at].tobytes() == fast._xs[at].tobytes()
                assert fast._by[at].tobytes() == fast._ys[at].tobytes()
        fast.advance()
        whole.advance()
        windows.append(commute.moved)
        assert fast._xs.tobytes() == whole._xs.tobytes()
        assert fast._ys.tobytes() == whole._ys.tobytes()
    assert fast._rng.getstate() == whole._rng.getstate()
    # the commuters parked after moving and moved again after parking
    steps = list(zip(windows, windows[1:]))
    assert (True, False) in steps and (False, True) in steps


class Liar(Mover):
    def __init__(self, universe):
        super().__init__(universe, max_speed=1.0)

    def start(self, rng):
        return (0.0, 0.0)

    def step(self, x, y, rng):
        return (x + 100.0, y)  # far beyond declared max_speed


class Escaper(Mover):
    def __init__(self, universe):
        super().__init__(universe, max_speed=1e9)

    def start(self, rng):
        return (0.0, 0.0)

    def step(self, x, y, rng):
        return (-5.0, 0.0)


class Idler(StationaryMover):
    """Not an exact kernel class: steps scalar every tick."""


FLEETS = pytest.mark.parametrize(
    "fleet_cls", [Fleet, FastFleet], ids=["Fleet", "FastFleet"]
)


def _raised(fleet) -> str:
    with pytest.raises(MobilityError) as err:
        fleet.advance()
    return str(err.value)


class TestSafetyEnforcement:
    @FLEETS
    def test_lying_mover_is_caught(self, universe, fleet_cls):
        fleet = fleet_cls([Liar(universe)])
        assert _raised(fleet) == (
            "object 0 moved 100.000000 > declared max_speed 1.000000"
        )

    @FLEETS
    def test_escaping_mover_is_caught(self, universe, fleet_cls):
        fleet = fleet_cls([Escaper(universe)])
        assert _raised(fleet) == "object 0 left universe: (-5.0, 0.0)"

    @pytest.mark.parametrize("first", [Liar, Escaper])
    def test_both_fleets_name_the_lowest_offender(self, universe, first):
        """A liar and an escaper at interleaved oids among waypoint and
        stationary movers (so they share a gathered, non-contiguous
        kernel): whichever sits lower is named, by both fleets alike."""
        second = Escaper if first is Liar else Liar

        def movers():
            rng = random.Random(4)
            model = RandomWaypointModel(universe, 20.0, 40.0)
            out = []
            for oid in range(12):
                if oid == 5:
                    out.append(first(universe))
                elif oid == 9:
                    out.append(second(universe))
                elif oid % 2:
                    out.append(StationaryMover(universe, 10.0 * oid, 7.0))
                else:
                    out.append(model.make_mover(rng))
            return out

        scalar = _raised(Fleet(movers(), seed=2))
        assert scalar.startswith("object 5 ")
        assert _raised(FastFleet(movers(), seed=2)) == scalar

    @pytest.mark.parametrize("scalar_first", [False, True])
    def test_an_overstepping_glide_is_caught(self, universe, scalar_first):
        """The vectorized glide itself, not a scalar event step, moves
        one object past its bound. A liar stepped scalar sits at the top
        oid; whichever kernel checks first, the glider is named."""
        rng = random.Random(3)
        model = RandomWaypointModel(universe, 20.0, 40.0)
        head = Idler(universe, 1.0, 1.0) if scalar_first else None
        movers = [head or model.make_mover(rng)]
        movers += [model.make_mover(rng) for _ in range(48)]
        fleet = FastFleet(movers + [Liar(universe)], seed=3)
        kern = fleet._kernels[1 if scalar_first else 0]
        x, y = fleet.positions.xs[kern.oids], fleet.positions.ys[kern.oids]
        far = np.hypot(x - kern.tx, y - kern.ty) > 1_000.0
        row = int(np.flatnonzero(far)[1])  # a glider, not an arrival
        kern.speed[row] = 100.0  # declared max_speed is 40
        assert _raised(fleet).startswith(
            f"object {int(kern.oids[row])} moved 100.0"
        )

    def test_start_outside_universe_is_caught(self, universe):
        class BadStart(Mover):
            def __init__(self):
                super().__init__(universe, max_speed=1.0)

            def start(self, rng):
                return (-1.0, 0.0)

            def step(self, x, y, rng):
                return (x, y)

        with pytest.raises(MobilityError):
            Fleet([BadStart()])

    def test_fleet_max_speed_is_max_over_movers(self, universe):
        movers = [
            StationaryMover(universe, 1, 1),
            RandomWaypointModel(universe, 10, 35).make_mover(random.Random(0)),
        ]
        assert Fleet(movers).max_speed == 35.0


ADVANCE_FAULTS = """
import resource
from repro.geometry import Rect
from repro.mobility import FastFleet, RandomWaypointModel

universe = Rect(0.0, 0.0, 10_000.0, 10_000.0)
fleet = FastFleet.from_model(RandomWaypointModel(universe), 100_000, seed=1)
for _ in range(10):
    fleet.advance()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    fleet.advance()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="glibc malloc and ru_minflt"
)
@pytest.mark.parametrize(
    "tunables",
    [None, "glibc.malloc.mmap_threshold=33554432"],
    ids=["default-malloc", "raised-mmap-threshold"],
)
def test_a_steady_advance_takes_no_page_faults(tunables):
    """A 100k fleet's steady ``advance`` allocates nothing that grows
    with N. N-sized temporaries per call cost ~3,000 minor faults per
    call on this fleet under either malloc setting; the preallocated
    workspaces and position buffers cost none."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("GLIBC_TUNABLES", None)
    if tunables is not None:
        env["GLIBC_TUNABLES"] = tunables
    out = subprocess.run(
        [sys.executable, "-c", ADVANCE_FAULTS],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert float(out.stdout) <= 5.0
