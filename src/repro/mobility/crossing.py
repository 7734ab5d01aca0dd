"""Closed-form band-crossing solvers for the mobility kernels.

The event engine (:mod:`repro.net.engine`) skips ticks on which no
mobile node can possibly act. To do that it needs, per node, the
earliest future tick at which one of the node's distance predicates —
the dead-reckoning drift circle and the installed safe regions — could
first be violated. This module answers that question in closed form
from the motion kernel's own state, per mover type.

A *check* is ``(cx, cy, r, kind)``: the predicate is violated when the
object's distance ``d`` to ``(cx, cy)`` satisfies ``d > r`` (kind
``EXIT`` — drift circles, answer bands, query safe circles) or
``d < r`` (kind ``ENTER`` — outsider bands). Callers fold the
region-slack factors of :mod:`repro.geometry.region` into ``r`` so the
boundary here is exactly the protocol's.

:func:`plan_wakeup` returns a :class:`Wakeup` of two optional relative
delays, of which at most one is set:

* ``act = a`` — ticks ``+1 .. +a-1`` are provably violation-free; a
  violation is possible at ``+a``, so the engine must run that tick in
  full. The solvers are **never late** (an act is always <= the first
  true violation tick) but may be one tick early: float-safety floors
  round crossings *down*, and an early wakeup is a harmless no-op
  followed by a re-solve, exactly the superset contract the fastpath
  candidate masks already rely on.
* ``resolve = r`` — ticks ``+1 .. +r`` are provably violation-free,
  but beyond ``+r`` the motion is no longer predictable from the
  current kernel state (waypoint arrival, pause expiry, leg renewal,
  wall reflection). The engine re-solves from the position at ``+r``;
  no full tick is needed. This act/re-solve split is what keeps
  frequent waypoint arrivals from forcing full ticks.
* both ``None`` — the predicates can never be violated (stationary
  object with all checks currently satisfied).

Unknown mover types fall back to :func:`solve_generic`, which only uses
the ``max_speed`` bound: sound for *any* mover, including across RNG
renewals and reflections, just with shorter claim windows.

**Array form.** The event engine re-plans every due node of a tick in
one call, so each scalar solver has an array twin that answers for many
objects at once and returns, object for object, the very numbers the
scalar solver returns. The scalar solvers pick their branch from the
motion state alone and only then look at the checks, and the twins are
cut along that line: :func:`glide_claims` / :func:`velocity_claims`
turn kernel columns into :class:`Claims` (which branch, with which
parameters), and :func:`solve_claims` evaluates flat :class:`CheckRows`
against them — ``_violated``, ``solve_generic``, ``_line_crossings``
and the landing check, reduced per object with ``ufunc.at``. The float
expressions are the scalar ones operation for operation (``np.sqrt``
and ``math.sqrt`` are both correctly rounded, ``np.trunc`` is
``int()``), so the scalar functions stay the specification and
``tests/test_region_table.py`` compares the two element for element.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Type

import numpy as np

from repro.mobility.base import Mover
from repro.mobility.gaussian_cluster import GaussianClusterMover
from repro.mobility.hotspot_drift import HotspotDriftMover
from repro.mobility.random_direction import RandomDirectionMover
from repro.mobility.random_waypoint import RandomWaypointMover
from repro.mobility.stationary import LinearMover, StationaryMover

__all__ = [
    "ENTER",
    "EXIT",
    "Check",
    "Wakeup",
    "NEVER",
    "plan_wakeup",
    "solve_generic",
    "solver_for",
    "CheckRows",
    "Claims",
    "glide_claims",
    "velocity_claims",
    "solve_claims",
]

EXIT = "exit"
ENTER = "enter"

#: Matches the fleet's speed-validation tolerance: a mover may exceed
#: its declared max_speed by at most this much in float arithmetic.
_SPEED_TOL = 1e-6

#: Claim horizons are capped so integer arithmetic stays sane even for
#: near-zero velocities against far-away checks.
_MAX_HORIZON = 10**9


class Check(NamedTuple):
    cx: float
    cy: float
    radius: float
    kind: str


class Wakeup(NamedTuple):
    act: Optional[int]
    resolve: Optional[int]


NEVER = Wakeup(None, None)
_ACT_NOW = Wakeup(1, None)
_RESOLVE_NEXT = Wakeup(None, 1)


def _violated(x: float, y: float, checks: Sequence[Check]) -> bool:
    """The exact protocol predicate at one position (strict boundaries)."""
    for cx, cy, r, kind in checks:
        dx = x - cx
        dy = y - cy
        d2 = dx * dx + dy * dy
        if kind == EXIT:
            if d2 > r * r:
                return True
        elif d2 < r * r:
            return True
    return False


def solve_generic(
    x: float, y: float, checks: Sequence[Check], max_speed: float
) -> Wakeup:
    """Speed-bound-only claim, sound for any mover state.

    After ``k`` ticks the object has moved at most
    ``k * (max_speed + tol)``; no check can be violated while that is
    below its current slack. Valid across RNG renewals, reflections and
    arrivals — the bound holds for every future tick — so the claim is
    returned as a *resolve* (the motion may never approach the
    boundary at all; re-solving extends the window indefinitely).
    """
    if max_speed <= 0.0:
        return NEVER
    slack = math.inf
    for cx, cy, r, kind in checks:
        dx = x - cx
        dy = y - cy
        d = math.sqrt(dx * dx + dy * dy)
        gap = (r - d) if kind == EXIT else (d - r)
        if gap < slack:
            slack = gap
    if not math.isfinite(slack):
        return NEVER
    free = int(slack / (max_speed + _SPEED_TOL))
    if free < 1:
        return _ACT_NOW
    return Wakeup(None, min(free, _MAX_HORIZON))


def _line_crossings(
    x: float,
    y: float,
    ux: float,
    uy: float,
    speed: float,
    horizon: int,
    checks: Sequence[Check],
) -> Optional[int]:
    """Earliest act tick for straight-line motion, or None.

    The object is at arc length ``k * speed`` along the ray
    ``(x, y) + u * (ux, uy)`` at tick ``+k``, for every ``k`` up to
    ``horizon`` (full steps only — callers cap the horizon before any
    partial step, arrival, renewal or reflection). Roots of the
    distance quadratic give the crossing arc lengths; the returned tick
    floors the crossing (one tick early at worst, never late).
    """
    best: Optional[int] = None
    for cx, cy, r, kind in checks:
        px = x - cx
        py = y - cy
        b = 2.0 * (px * ux + py * uy)
        c = px * px + py * py - r * r
        if kind == EXIT:
            if c >= 0.0:
                # On (or past) the boundary already: any motion may
                # violate next tick. The strictly-violated case was
                # handled by the caller's now-check.
                return 1
            # c < 0 => disc > 0: the ray always leaves the circle.
            u_star = (-b + math.sqrt(b * b - 4.0 * c)) / 2.0
        else:
            if c <= 0.0:
                return 1
            disc = b * b - 4.0 * c
            if disc <= 0.0:
                continue  # the ray never reaches the circle
            u_star = (-b - math.sqrt(disc)) / 2.0
            if u_star <= 0.0:
                continue  # circle is behind the motion
        k = int(u_star / speed)
        if k < 1:
            k = 1
        if k <= horizon and (best is None or k < best):
            best = k
    return best


def _solve_line(
    x: float,
    y: float,
    dirx: float,
    diry: float,
    norm: float,
    speed: float,
    horizon: int,
    checks: Sequence[Check],
) -> Wakeup:
    ux = dirx / norm
    uy = diry / norm
    act = _line_crossings(x, y, ux, uy, speed, horizon, checks)
    if act is not None:
        return Wakeup(act, None)
    return Wakeup(None, horizon)


def _solve_glide(
    x: float,
    y: float,
    tx: float,
    ty: float,
    speed: float,
    checks: Sequence[Check],
) -> Wakeup:
    """Straight-line travel toward a fixed target (waypoint trips)."""
    dx = tx - x
    dy = ty - y
    dist = math.sqrt(dx * dx + dy * dy)
    if dist == 0.0:
        # Sitting on the target: the next step lands and draws a new
        # trip; nothing moves this tick.
        return _RESOLVE_NEXT
    if speed <= 0.0:
        return NEVER  # glides nowhere, target never reached
    if dist <= speed * (1.0 + 1e-9):
        # The next step lands exactly on the target
        # (``translate_toward`` snaps when the remainder fits in one
        # step). The landing position is known; check it with a small
        # safety margin so an ulp of disagreement with the fleet's
        # arithmetic can only cause a spurious (harmless) wakeup.
        margin = 1e-9 * (dist + speed + 1.0)
        for cx, cy, r, kind in checks:
            ex = tx - cx
            ey = ty - cy
            d = math.sqrt(ex * ex + ey * ey)
            if kind == EXIT:
                if d > r - margin:
                    return _ACT_NOW
            elif d < r + margin:
                return _ACT_NOW
        return _RESOLVE_NEXT
    # Full-speed steps strictly before the (approximate) arrival; the
    # -1 guards the floor against accumulated per-tick float error.
    horizon = int(dist / speed) - 1
    if horizon < 1:
        horizon = 1
    return _solve_line(x, y, dx, dy, dist, speed, horizon, checks)


def _wall_horizon(
    x: float, y: float, vx: float, vy: float, universe
) -> int:
    """Ticks of constant-velocity motion provably free of reflections."""
    h = _MAX_HORIZON
    if vx > 0.0:
        h = min(h, int((universe.xmax - x) / vx))
    elif vx < 0.0:
        h = min(h, int((x - universe.xmin) / -vx))
    if vy > 0.0:
        h = min(h, int((universe.ymax - y) / vy))
    elif vy < 0.0:
        h = min(h, int((y - universe.ymin) / -vy))
    return h


def _solve_velocity(
    mover: Mover,
    x: float,
    y: float,
    vx: float,
    vy: float,
    leg_horizon: int,
    checks: Sequence[Check],
) -> Wakeup:
    speed = math.sqrt(vx * vx + vy * vy)
    if speed == 0.0:
        if leg_horizon >= _MAX_HORIZON:
            return NEVER
        return Wakeup(None, max(1, leg_horizon))
    horizon = min(leg_horizon, _wall_horizon(x, y, vx, vy, mover.universe))
    if horizon < 1:
        # A reflection (or renewal) may land within one tick; fall back
        # to the speed bound, which holds across both.
        return solve_generic(x, y, checks, mover.max_speed)
    return _solve_line(x, y, vx, vy, speed, speed, horizon, checks)


# -- per-kernel solvers ----------------------------------------------------


def _solve_stationary(
    mover: StationaryMover, x: float, y: float, checks: Sequence[Check]
) -> Wakeup:
    return NEVER


def _solve_linear(
    mover: LinearMover, x: float, y: float, checks: Sequence[Check]
) -> Wakeup:
    return _solve_velocity(
        mover, x, y, mover._vx, mover._vy, _MAX_HORIZON, checks
    )


def _solve_waypoint(
    mover: RandomWaypointMover, x: float, y: float, checks: Sequence[Check]
) -> Wakeup:
    if mover._pause_left > 0:
        # Static through the pause; the target/speed of the next trip
        # are already drawn, but re-solving at pause expiry is cheaper
        # than composing the claims.
        return Wakeup(None, mover._pause_left)
    return _solve_glide(
        x, y, mover._target[0], mover._target[1], mover._speed, checks
    )


def _solve_gaussian(
    mover: GaussianClusterMover, x: float, y: float, checks: Sequence[Check]
) -> Wakeup:
    return _solve_glide(
        x, y, mover._target[0], mover._target[1], mover._speed, checks
    )


def _solve_direction(
    mover: RandomDirectionMover, x: float, y: float, checks: Sequence[Check]
) -> Wakeup:
    leg = mover._leg_left
    if leg <= 0:
        # The very next step draws a fresh heading: only the speed
        # bound survives the renewal.
        return solve_generic(x, y, checks, mover.max_speed)
    return _solve_velocity(mover, x, y, mover._dx, mover._dy, leg, checks)


Solver = Callable[[Mover, float, float, Sequence[Check]], Wakeup]

#: Keyed by *exact* type, like the fast-fleet kernel registry: a
#: subclass may move differently, so it falls back to the generic
#: speed-bound solver unless registered here.
_SOLVERS: Dict[Type[Mover], Solver] = {
    StationaryMover: _solve_stationary,
    LinearMover: _solve_linear,
    RandomWaypointMover: _solve_waypoint,
    GaussianClusterMover: _solve_gaussian,
    HotspotDriftMover: _solve_gaussian,
    RandomDirectionMover: _solve_direction,
}


def solver_for(mover: Mover) -> Optional[Solver]:
    """The closed-form solver for this mover type, or None."""
    return _SOLVERS.get(type(mover))


def plan_wakeup(
    mover: Mover,
    x: float,
    y: float,
    checks: Sequence[Check],
) -> Wakeup:
    """Earliest possible violation of ``checks`` under ``mover``.

    ``(x, y)`` is the object's current position (the one ``mover`` will
    be stepped from). See the module docstring for the act/resolve
    contract. Solvers never consume RNG state.
    """
    if not checks:
        return NEVER
    if _violated(x, y, checks):
        # A currently-violated check the caller has not muted (e.g. a
        # region installed already outside its band) must act on the
        # very next tick regardless of motion.
        return _ACT_NOW
    solver = _SOLVERS.get(type(mover))
    if solver is None:
        return solve_generic(x, y, checks, mover.max_speed)
    return solver(mover, x, y, checks)


# -- array twins -----------------------------------------------------------


class CheckRows(NamedTuple):
    """Checks of many objects as flat columns, one row per check.

    ``node[j]`` is the position, in the per-object arrays handed to
    :func:`solve_claims`, of the object row ``j`` belongs to; rows may
    come in any order. ``enter`` marks ``ENTER`` rows, the rest are
    ``EXIT``.
    """

    node: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    radius: np.ndarray
    enter: np.ndarray


#: Branches a scalar solver can end in (:attr:`Claims.mode`). ``SCALAR``
#: is "no array form for this object": ask :func:`plan_wakeup`.
SCALAR, STILL, HOLD, GENERIC, LINE, LAND = -1, 0, 1, 2, 3, 4

#: Whole ticks are carried as floats (exact below this), so a horizon
#: at or past it cannot be told from its neighbours.
_EXACT_TICKS = 2.0**53


class Claims:
    """Per-object motion claims: the branch and its parameters.

    ``mode`` selects what the other columns mean:

    * ``STILL`` — never moves (``NEVER`` unless violated now);
    * ``HOLD`` — provably static for ``h`` ticks, then unknown;
    * ``GENERIC`` — only the speed bound holds (:func:`solve_generic`);
    * ``LINE`` — ``h`` full steps of length ``s`` along the unit
      direction ``(p, q)`` (:func:`_line_crossings`);
    * ``LAND`` — the next step lands on ``(p, q)``; ``s`` is the
      safety margin of :func:`_solve_glide`'s landing check.
    """

    __slots__ = ("mode", "h", "p", "q", "s")

    def __init__(self, m: int, mode: int = STILL) -> None:
        self.mode = np.full(m, mode, dtype=np.int8)
        self.h = np.zeros(m)
        self.p = np.zeros(m)
        self.q = np.zeros(m)
        self.s = np.zeros(m)

    def hold(self, where: np.ndarray, ticks: np.ndarray) -> None:
        """Override with ``HOLD(ticks)`` on the objects in ``where``."""
        self.mode[where] = HOLD
        self.h[where] = ticks[where]

    def put(self, at: np.ndarray, part: "Claims") -> None:
        """Write ``part`` (one entry per index in ``at``) into place."""
        for name in self.__slots__:
            getattr(self, name)[at] = getattr(part, name)


def glide_claims(
    x: np.ndarray, y: np.ndarray, tx: np.ndarray, ty: np.ndarray,
    speed: np.ndarray,
) -> Claims:
    """Array twin of :func:`_solve_glide`'s branch selection."""
    dx = tx - x
    dy = ty - y
    dist = np.sqrt(dx * dx + dy * dy)
    claims = Claims(x.shape[0])
    # np.select takes the first true condition: the scalar branch order.
    mode = np.select(
        [dist == 0.0, speed <= 0.0, dist <= speed * (1.0 + 1e-9)],
        [HOLD, STILL, LAND],
        LINE,
    )
    line = mode == LINE
    with np.errstate(divide="ignore", invalid="ignore"):
        horizon = np.maximum(np.trunc(dist / speed) - 1.0, 1.0)
        claims.p[:] = np.where(line, dx / dist, tx)
        claims.q[:] = np.where(line, dy / dist, ty)
    claims.h[:] = np.where(line, horizon, 1.0)  # HOLD here: resolve next
    claims.s[:] = np.where(line, speed, 1e-9 * (dist + speed + 1.0))
    mode[line & ~(horizon < _EXACT_TICKS)] = SCALAR
    claims.mode[:] = mode
    return claims


def velocity_claims(
    x: np.ndarray, y: np.ndarray, vx: np.ndarray, vy: np.ndarray,
    leg_horizon: np.ndarray, universe,
) -> Claims:
    """Array twin of :func:`_solve_velocity` (and ``_wall_horizon``)."""
    speed = np.sqrt(vx * vx + vy * vy)
    zero = speed == 0.0
    claims = Claims(x.shape[0])
    def wall(v, ahead, behind):  # _wall_horizon, one axis
        return np.where(
            v > 0.0,
            np.trunc(ahead / v),
            np.where(v < 0.0, np.trunc(behind / -v), _MAX_HORIZON),
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        walls = np.minimum(
            wall(vx, universe.xmax - x, x - universe.xmin),
            wall(vy, universe.ymax - y, y - universe.ymin),
        )
        claims.p[:] = vx / speed
        claims.q[:] = vy / speed
    horizon = np.minimum(leg_horizon, np.minimum(_MAX_HORIZON, walls))
    claims.mode[:] = np.select(
        [zero & (leg_horizon >= _MAX_HORIZON), zero, horizon < 1],
        [STILL, HOLD, GENERIC],
        LINE,
    )
    claims.h[:] = np.where(zero, np.maximum(leg_horizon, 1), horizon)
    claims.s[:] = speed
    return claims


def solve_claims(
    claims: Claims,
    x: np.ndarray,
    y: np.ndarray,
    rows: CheckRows,
    max_speed: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Array twin of :func:`plan_wakeup`: ``(act, resolve)`` relative
    delays per object as int64 arrays, ``-1`` for None.

    Every object must own at least one row. Objects in ``SCALAR`` mode
    get ``(-1, -1)`` — the caller solves those with the scalar solver.
    Each branch computes on the rows of its own objects only, so a
    mostly-still fleet costs one distance pass.
    """
    m = x.shape[0]
    node, r, enter = rows.node, rows.radius, rows.enter
    mode = claims.mode
    px = x[node] - rows.cx
    py = y[node] - rows.cy
    d2 = px * px + py * py
    r2 = r * r
    act_now = np.zeros(m, dtype=bool)  # _violated: _ACT_NOW
    act_now[node[np.where(enter, d2 < r2, d2 > r2)]] = True
    act = np.full(m, -1.0)
    resolve = np.where(mode == HOLD, claims.h, -1.0)
    row_mode = mode[node]

    # solve_generic: the smallest slack over the speed bound.
    at = np.nonzero(row_mode == GENERIC)[0]
    mine = node[at]
    d = np.sqrt(d2[at])
    slack = np.full(m, np.inf)
    np.minimum.at(slack, mine, np.where(enter[at], d - r[at], r[at] - d))
    generic = np.nonzero(
        (mode == GENERIC) & (max_speed > 0.0) & np.isfinite(slack)
    )[0]
    free = np.trunc(slack[generic] / (max_speed[generic] + _SPEED_TOL))
    act_now[generic[free < 1]] = True
    resolve[generic] = np.minimum(free, _MAX_HORIZON)

    # _line_crossings: the earliest floored crossing of any row.
    at = np.nonzero(row_mode == LINE)[0]
    mine = node[at]
    inward = enter[at]
    b = 2.0 * (px[at] * claims.p[mine] + py[at] * claims.q[mine])
    c = d2[at] - r2[at]
    disc = b * b - 4.0 * c
    with np.errstate(invalid="ignore"):  # masked below: disc < 0, c >= 0
        root = np.sqrt(disc)
        u_star = np.where(inward, -b - root, -b + root) / 2.0
        k = np.maximum(np.trunc(u_star / claims.s[mine]), 1.0)
    k[inward & ((disc <= 0.0) | (u_star <= 0.0))] = np.inf  # never reached
    k[np.where(inward, c <= 0.0, c >= 0.0)] = 1.0  # on the boundary
    first = np.full(m, np.inf)
    np.minimum.at(first, mine, k)
    line = mode == LINE
    crossing = line & (first <= claims.h)
    act[crossing] = first[crossing]
    resolve[line] = claims.h[line]

    # _solve_glide's landing check, at the known landing point.
    at = np.nonzero(row_mode == LAND)[0]
    mine = node[at]
    ex = claims.p[mine] - rows.cx[at]
    ey = claims.q[mine] - rows.cy[at]
    d = np.sqrt(ex * ex + ey * ey)
    margin = claims.s[mine]
    act_now[
        mine[np.where(enter[at], d < r[at] + margin, d > r[at] - margin)]
    ] = True
    resolve[mode == LAND] = 1.0

    act[act_now] = 1.0
    act[mode == SCALAR] = -1.0
    resolve[act >= 0.0] = -1.0
    return act.astype(np.int64), resolve.astype(np.int64)
