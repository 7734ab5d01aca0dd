"""Closed-form band-crossing claims for the mobility kernels.

The event engine (:mod:`repro.net.engine`) skips ticks on which no
mobile node can possibly act. To do that it needs, per node, the
earliest future tick at which one of the node's distance predicates —
the dead-reckoning drift circle and the installed safe regions — could
first be violated. This module answers that question in closed form
for many objects at once, from the motion kernels' own columns.

A *check row* is ``(cx, cy, r, enter)``: the predicate is violated when
the object's distance ``d`` to ``(cx, cy)`` satisfies ``d > r`` (an
exit row — drift circles, answer bands, query safe circles) or
``d < r`` (``enter`` — outsider bands). Callers fold the region-slack
factors of :mod:`repro.geometry.region` into ``r`` so the boundary here
is exactly the protocol's.

The work is cut in two. Each kernel turns its columns into
:class:`Claims` — which motion branch an object is in, with which
parameters (:func:`glide_claims`, :func:`velocity_claims`, or the
speed bound alone) — and :func:`solve_claims` evaluates flat
:class:`CheckRows` against them, reducing per object with
``ufunc.at``. It returns two relative delays per object, of which at
most one is set (``-1`` is unset):

* ``act = a`` — ticks ``+1 .. +a-1`` are provably violation-free; a
  violation is possible at ``+a``, so the engine must run that tick in
  full. A claim is **never late** (an act is always <= the first true
  violation tick) but may be one tick early: crossings are floored,
  and an early wakeup is a harmless no-op followed by a re-solve,
  exactly the superset contract the fastpath candidate masks already
  rely on.
* ``resolve = r`` — ticks ``+1 .. +r`` are provably violation-free,
  but beyond ``+r`` the motion is no longer predictable from the
  current kernel state (waypoint arrival, pause expiry, leg renewal,
  wall reflection). The engine re-solves from the position at ``+r``;
  no full tick is needed. This act/re-solve split is what keeps
  frequent waypoint arrivals from forcing full ticks.
* both unset — the predicates can never be violated (stationary object
  with all checks currently satisfied).

``tests/test_crossing.py`` walks every kernel's real motion through
these claims and fails the moment a violation lands inside a claimed
window.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

__all__ = [
    "CheckRows",
    "Claims",
    "glide_claims",
    "velocity_claims",
    "solve_claims",
]

#: Matches the fleet's speed-validation tolerance: a mover may exceed
#: its declared max_speed by at most this much in float arithmetic.
_SPEED_TOL = 1e-6

#: Claim horizons are capped so integer arithmetic stays sane even for
#: near-zero velocities against far-away checks.
_MAX_HORIZON = 10**9


class CheckRows(NamedTuple):
    """Checks of many objects as flat columns, one row per check.

    ``node[j]`` is the position, in the per-object arrays handed to
    :func:`solve_claims`, of the object row ``j`` belongs to; rows may
    come in any order. ``enter`` marks outsider-style rows (violated
    inside ``radius``), the rest are violated outside it.
    """

    node: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    radius: np.ndarray
    enter: np.ndarray


#: Motion branches (:attr:`Claims.mode`).
STILL, HOLD, GENERIC, LINE, LAND = 0, 1, 2, 3, 4


class Claims:
    """Per-object motion claims: the branch and its parameters.

    ``mode`` selects what the other columns mean:

    * ``STILL`` — never moves: no wakeup unless violated now;
    * ``HOLD`` — provably static for ``h`` ticks, then unknown;
    * ``GENERIC`` — only the ``max_speed`` bound holds. It is sound for
      any mover, across RNG renewals, reflections and arrivals, so it is
      the claim of every mover class without a closed form;
    * ``LINE`` — ``h`` full steps of length ``s`` along the unit
      direction ``(p, q)``;
    * ``LAND`` — the next step lands on ``(p, q)``; ``s`` is the safety
      margin of the landing check.
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
    """Straight-line travel toward a fixed target (waypoint trips).

    Sitting on the target, the next step lands and draws a new trip
    and nothing moves this tick: re-solve next tick. Zero speed glides
    nowhere. When the next step lands exactly on the target
    (``translate_toward`` snaps when the remainder fits in one step) the
    landing position is known and is checked with a small margin, so an
    ulp of disagreement with the fleet's arithmetic can only cause a
    spurious (harmless) wakeup. Otherwise the claim covers the
    full-speed steps strictly before the approximate arrival; the -1
    guards the floor against accumulated per-tick float error.
    """
    dx = tx - x
    dy = ty - y
    dist = np.sqrt(dx * dx + dy * dy)
    claims = Claims(x.shape[0])
    # np.select takes the first true condition: the branch order above.
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
    claims.h[:] = np.where(line, np.minimum(horizon, _MAX_HORIZON), 1.0)
    claims.s[:] = np.where(line, speed, 1e-9 * (dist + speed + 1.0))
    claims.mode[:] = mode
    return claims


def velocity_claims(
    x: np.ndarray, y: np.ndarray, vx: np.ndarray, vy: np.ndarray,
    leg_horizon: np.ndarray, universe,
) -> Claims:
    """Constant-velocity motion between reflecting walls.

    The line claim runs for the ``leg_horizon`` ticks the current
    heading is known and the ticks provably free of a wall reflection,
    whichever ends first. When a reflection (or renewal) may land within
    one tick, only the speed bound survives it. A zero velocity is
    still for good, or held until the leg ends.
    """
    speed = np.sqrt(vx * vx + vy * vy)
    zero = speed == 0.0
    claims = Claims(x.shape[0])
    def wall(v, ahead, behind):  # ticks to the wall, one axis
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
    """Earliest possible violation of ``rows`` under ``claims``:
    ``(act, resolve)`` relative delays per object as int64 arrays,
    ``-1`` for unset.

    ``(x, y)`` are the objects' current positions (the ones the next
    advance steps from). Every object must own at least one row. A row
    violated already acts next tick whatever the motion. Each branch
    computes on the rows of its own objects only, so a mostly-still
    fleet costs one distance pass.
    """
    m = x.shape[0]
    node, r, enter = rows.node, rows.radius, rows.enter
    mode = claims.mode
    px = x[node] - rows.cx
    py = y[node] - rows.cy
    d2 = px * px + py * py
    r2 = r * r
    act_now = np.zeros(m, dtype=bool)  # violated now (strict boundaries)
    act_now[node[np.where(enter, d2 < r2, d2 > r2)]] = True
    act = np.full(m, -1.0)
    resolve = np.where(mode == HOLD, claims.h, -1.0)
    row_mode = mode[node]

    # GENERIC: after k ticks the object has moved at most
    # k * (max_speed + tol), so no row can be violated while that stays
    # below the smallest slack. The bound holds for every future tick,
    # so the claim is a re-solve, extended indefinitely by re-solving.
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

    # LINE: the object is at arc length k * s along the ray at tick +k
    # for every k up to h. Roots of the distance quadratic give the
    # crossing arc lengths; the earliest floored crossing of any row
    # acts (one tick early at worst, never late).
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
    # An enter row the ray misses, or one behind the motion, is never
    # reached; an exit row always is (c < 0 => disc > 0).
    k[inward & ((disc <= 0.0) | (u_star <= 0.0))] = np.inf
    # On the boundary already: not violated, but any motion may violate.
    k[np.where(inward, c <= 0.0, c >= 0.0)] = 1.0
    first = np.full(m, np.inf)
    np.minimum.at(first, mine, k)
    line = mode == LINE
    crossing = line & (first <= claims.h)
    act[crossing] = first[crossing]
    resolve[line] = claims.h[line]

    # LAND: check the known landing point, with the claim's margin.
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
    resolve[act >= 0.0] = -1.0
    return act.astype(np.int64), resolve.astype(np.int64)
