"""Closed-form band-crossing claims vs. brute-force tick scanning.

The event engine's soundness rests on one property of
:func:`repro.mobility.crossing.solve_claims` over the kernels' motion
claims (``FastFleet.motion_claims``): a claim is **never late**. An
``act = a`` promises ticks ``+1 .. +a-1`` are violation-free; a
``resolve = r`` promises ticks ``+1 .. +r`` are. The property tests
here walk every kernel's real motion — a one-object ``FastFleet``
stepped by ``advance`` — through randomized check sets and fail the
moment a violation lands inside a claimed window, the exact failure
mode that would make event mode drop a protocol message. A second
assertion per kernel checks the claims are not vacuous (the solver
actually skips ahead, rather than acting every tick).
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.geometry import Rect
from repro.mobility import (
    FastFleet,
    GaussianClusterModel,
    HotspotDriftModel,
    MostlyStationaryModel,
    RandomDirectionModel,
    RandomWaypointModel,
    RoadNetworkModel,
)
from repro.mobility.crossing import GENERIC, CheckRows, solve_claims
from repro.mobility.stationary import LinearMover, StationaryMover

U = Rect(0.0, 0.0, 1000.0, 1000.0)
HORIZON = 120  # ticks walked per trial
TRIALS = 25

#: A check is ``(cx, cy, radius, enter)``: violated at a distance above
#: ``radius`` from ``(cx, cy)``, or below it if ``enter``.
EXIT, ENTER = False, True


def _violated(x: float, y: float, checks) -> bool:
    """The exact protocol predicate at one position (strict boundaries)."""
    for cx, cy, r, enter in checks:
        d2 = (x - cx) ** 2 + (y - cy) ** 2
        if (d2 < r * r) if enter else (d2 > r * r):
            return True
    return False


def _claim(fleet: FastFleet, checks):
    """``(act, resolve)`` of the fleet's object 0, -1 for unset."""
    rows = CheckRows(
        np.zeros(len(checks), dtype=np.int64),
        *(np.array(column) for column in zip(*checks)),
    )
    act, resolve = solve_claims(
        fleet.motion_claims(np.zeros(1, dtype=np.int64)),
        fleet.positions.xs[:1], fleet.positions.ys[:1], rows,
        fleet.max_speeds[:1],
    )
    return int(act[0]), int(resolve[0])


def _step(fleet: FastFleet):
    fleet.advance()
    return fleet.positions[0]


def _random_checks(rng: random.Random, x: float, y: float):
    """1-3 checks, none violated at the start position."""
    checks = []
    for _ in range(rng.randint(1, 3)):
        cx = rng.uniform(U.xmin, U.xmax)
        cy = rng.uniform(U.ymin, U.ymax)
        d = math.hypot(x - cx, y - cy)
        if rng.random() < 0.5:
            checks.append((cx, cy, d + rng.uniform(5.0, 150.0), EXIT))
        else:
            r = d - rng.uniform(5.0, 150.0)
            if r > 1.0:
                checks.append((cx, cy, r, ENTER))
    if not checks:
        checks.append((x, y, rng.uniform(20.0, 150.0), EXIT))
    return checks


def _walk(fleet: FastFleet, rng: random.Random):
    """Follow the act/resolve chain for HORIZON ticks.

    Returns (ticks_claimed_free, ticks_walked): the never-late check
    is the assertions inside; the ratio is the non-vacuousness signal.
    """
    x, y = fleet.positions[0]
    checks = _random_checks(rng, x, y)
    assert not _violated(x, y, checks)
    t = 0
    claimed = 0
    while t < HORIZON:
        act, resolve = _claim(fleet, checks)
        assert act < 0 or resolve < 0, "both set"
        if act < 0 and resolve < 0:
            # The claim is forever: the whole remaining walk must be
            # violation-free.
            claimed += HORIZON - t
            for _ in range(t, HORIZON):
                x, y = _step(fleet)
                t += 1
                assert not _violated(x, y, checks), (
                    f"violation at +{t} inside a never-wake claim"
                )
            break
        if act >= 0:
            assert act >= 1
            free = act - 1
        else:
            assert resolve >= 1
            free = resolve
        for k in range(free):
            if t >= HORIZON:
                break
            x, y = _step(fleet)
            t += 1
            claimed += 1
            assert not _violated(x, y, checks), (
                f"violation at +{t}, tick {k + 1} of a "
                f"{f'act {act}' if act >= 0 else f'resolve {resolve}'}"
                f" claim — the solver was late"
            )
        if act >= 0 and t < HORIZON:
            # Step onto the act tick itself; a violation here is
            # exactly what the wakeup predicted. Either way, re-solve.
            x, y = _step(fleet)
            t += 1
            if _violated(x, y, checks):
                # The engine would run a full tick; the protocol
                # handles the report and re-anchors the checks. Here
                # the checks are static, so re-anchor by dropping the
                # violated ones (otherwise the walk acts every tick
                # and tests nothing further).
                checks = [
                    c
                    for c in checks
                    if not _violated(x, y, [c])
                ] or _random_checks(rng, x, y)
                while _violated(x, y, checks):
                    checks = _random_checks(rng, x, y)
    return claimed, t


def _trial_fleet(make, seed):
    """A one-object fleet of ``make``'s mover, and the checks' RNG."""
    rng = random.Random(seed)
    return FastFleet([make(rng)], seed=seed), rng


MODEL_CASES = [
    pytest.param(
        lambda rng: RandomWaypointModel(U, pause_max=6).make_mover(rng),
        id="waypoint",
    ),
    pytest.param(
        lambda rng: RandomDirectionModel(U).make_mover(rng),
        id="direction",
    ),
    pytest.param(
        lambda rng: GaussianClusterModel(U, sigma=120.0).make_mover(rng),
        id="gaussian",
    ),
    pytest.param(
        lambda rng: HotspotDriftModel(
            U, sigma=120.0, drift_radius=200.0
        ).make_mover(rng),
        id="hotspot-drift",
    ),
    pytest.param(
        lambda rng: MostlyStationaryModel(
            U, moving_fraction=1.0, period=17, active_ticks=6
        ).make_mover(rng),
        id="commute",
    ),
    pytest.param(
        lambda rng: StationaryMover(
            U, rng.uniform(0, 1000), rng.uniform(0, 1000)
        ),
        id="stationary",
    ),
    pytest.param(
        lambda rng: LinearMover(
            U,
            rng.uniform(200, 800),
            rng.uniform(200, 800),
            rng.uniform(-30, 30),
            rng.uniform(-30, 30),
        ),
        id="linear",
    ),
]


class TestNeverLate:
    @pytest.mark.parametrize("make", MODEL_CASES)
    def test_claims_never_contain_a_violation(self, make):
        for seed in range(TRIALS):
            _walk(*_trial_fleet(make, seed))

    @pytest.mark.parametrize("make", MODEL_CASES)
    def test_claims_are_not_vacuous(self, make):
        # Across all trials the solver must claim a healthy share of
        # the walked ticks ahead of time — a solver that always says
        # "act next tick" passes never-late but skips nothing.
        claimed = walked = 0
        for seed in range(TRIALS):
            c, t = _walk(*_trial_fleet(make, seed))
            claimed += c
            walked += t
        assert walked > 0
        assert claimed / walked > 0.5, (
            f"only {claimed}/{walked} ticks claimed ahead of time"
        )


class TestBruteForceAgreement:
    """Predicted act tick vs. exhaustive scan, kernel by kernel."""

    @pytest.mark.parametrize("make", MODEL_CASES)
    def test_act_at_most_first_violation(self, make):
        for seed in range(TRIALS):
            fleet, _ = _trial_fleet(make, seed)
            x, y = fleet.positions[0]
            checks = _random_checks(random.Random(seed + 999), x, y)
            if _violated(x, y, checks):
                continue
            act, resolve = _claim(fleet, checks)
            # Brute-force the true first violation on an identical
            # twin (same kernel state, same RNG stream).
            clone, _ = _trial_fleet(make, seed)
            first = None
            for k in range(1, HORIZON + 1):
                if _violated(*_step(clone), checks):
                    first = k
                    break
            if first is None:
                continue  # nothing to compare within the horizon
            if act >= 0:
                assert act <= first, (
                    f"seed {seed}: act {act} after true first "
                    f"violation {first}"
                )
            elif resolve >= 0:
                assert resolve < first, (
                    f"seed {seed}: resolve {resolve} claims the "
                    f"violation tick {first} as free"
                )
            else:
                pytest.fail(
                    f"seed {seed}: never-wake claimed but violation at {first}"
                )


class TestSolverRegistry:
    def test_every_kernel_has_a_solver(self):
        """Every kernel claims more than the speed bound for some of
        its objects: it answers with a closed form of its own."""
        for make in (
            lambda r: RandomWaypointModel(U).make_mover(r),
            lambda r: RandomDirectionModel(U).make_mover(r),
            lambda r: GaussianClusterModel(U).make_mover(r),
            lambda r: HotspotDriftModel(U).make_mover(r),
            lambda r: MostlyStationaryModel(
                U, moving_fraction=1.0
            ).make_mover(r),
            lambda r: StationaryMover(U, 1.0, 1.0),
            lambda r: LinearMover(U, 1.0, 1.0, 2.0, 0.0),
        ):
            rng = random.Random(0)
            fleet = FastFleet([make(rng) for _ in range(8)], seed=0)
            modes = fleet.motion_claims(np.arange(8)).mode
            assert (modes != GENERIC).any()

    def test_subclass_falls_back_to_generic(self):
        class Weird(StationaryMover):
            def step(self, x, y, rng):
                return (x, y)

        rng = random.Random(1)
        fleet = FastFleet(
            [Weird(U, 10.0, 10.0), RoadNetworkModel(U).make_mover(rng)],
            seed=1,
        )
        claims = fleet.motion_claims(np.arange(2))
        assert claims.mode.tolist() == [GENERIC, GENERIC]
        # The speed bound is the *declared* one: StationaryMover
        # declares speed 0, so the subclass never wakes (the fleet's
        # validator would reject a subclass that moved anyway).
        assert _claim(fleet, [(10.0, 10.0, 5.0, EXIT)]) == (-1, -1)

    def test_violated_now_acts_immediately(self):
        fleet = FastFleet([StationaryMover(U, 50.0, 50.0)])
        assert _claim(fleet, [(0.0, 0.0, 5.0, EXIT)]) == (1, -1)
