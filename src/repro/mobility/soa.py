"""Structure-of-arrays storage and batched stepping for the fleet.

:class:`FastFleet` is a drop-in :class:`~repro.mobility.fleet.Fleet`
whose positions live in numpy arrays and whose :meth:`advance` steps
the whole population in a handful of vectorized passes instead of one
Python call per object. It is **bit-identical** to the scalar fleet:
same positions every tick, same ``random.Random`` stream.

The trick is that every supported mobility model consumes randomness
only at sparse *events* (waypoint arrival, leg expiry), while the
silent majority of a tick is pure float arithmetic:

* per mover class, a **kernel** mirrors the movers' per-object state in
  arrays and advances all event-free objects with numpy expressions
  that replicate the scalar float ops exactly (multiply/add/sqrt are
  IEEE correctly rounded, so numpy and CPython agree to the bit);
* the tick's event objects go back to their kernels in ascending
  object id — exactly the order the scalar fleet draws randomness in,
  so the RNG stream never diverges — cut into maximal runs that share
  a kernel (:meth:`_Kernel.arrive`). Pause-free waypoint and commute
  arrivals, and Gaussian and hotspot-drift redraws, are batched: the
  run lands on its targets and draws its next trips from ``3·m``
  ``rng.random()`` calls in oid order, as ``random.uniform``'s own
  ``lo + (hi - lo) * r`` and — for a Gaussian target — as
  ``random.gauss``'s pair from two draws (its ``log`` / ``cos`` /
  ``sin`` are ``math``'s, mapped over lists: numpy's may differ by an
  ulp). Every other event (pausing waypoint arrivals, leg renewals, a
  Gaussian run while ``rng.gauss_next`` holds a cached value) falls
  back to its own scalar :class:`~repro.mobility.base.Mover` — state
  is synced array→mover, ``mover.step`` runs (consuming the shared
  RNG), state syncs back.

Mover classes without a kernel (road network, custom subclasses) are
stepped scalar every tick — correctness never depends on a kernel
existing. Positions are exposed through :class:`SoAPositions`, a
sequence view that yields plain float tuples (so protocol messages
carry the same Python floats as the scalar path) while handing the
backing arrays (``.xs`` / ``.ys``) to vectorized consumers for free.

A steady :meth:`FastFleet.advance` allocates no array that grows with
the fleet: kernels write into preallocated workspaces with ``out=``,
and positions into back buffers swapped in at the end. The back
buffers hold the tick before, which differs from this one only on the
rows of moving kernels (:attr:`FastFleet.moving_rows`): only those
rows are copied forward before the kernels step.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.errors import MobilityError
from repro.geometry import Rect, dist
from repro.mobility.base import Mover
from repro.mobility.fleet import Fleet, _SPEED_TOLERANCE
from repro.mobility.gaussian_cluster import GaussianClusterMover
from repro.mobility.hotspot_drift import HotspotDriftMover
from repro.mobility.mostly_stationary import CommuteMover
from repro.mobility.random_direction import RandomDirectionMover
from repro.mobility.random_waypoint import RandomWaypointMover
from repro.mobility.stationary import LinearMover, StationaryMover

__all__ = ["FastFleet", "SoAPositions"]


class SoAPositions:
    """Sequence view over the fleet's coordinate arrays.

    Indexing and iteration yield plain ``(float, float)`` tuples, so
    everything downstream of a position read (messages, dict keys,
    reprs) is indistinguishable from the scalar fleet. Vectorized
    consumers read the arrays directly via :attr:`xs` / :attr:`ys`.
    """

    __slots__ = ("_fleet",)

    def __init__(self, fleet: "FastFleet") -> None:
        self._fleet = fleet

    @property
    def xs(self) -> np.ndarray:
        """X coordinates, indexed by object id: the live buffer. It
        holds this tick until the next ``advance`` (and the previous tick
        after it); the one after overwrites it. Callers that keep
        positions must copy them; nobody may write to it."""
        return self._fleet._xs

    @property
    def ys(self) -> np.ndarray:
        """Y coordinates, indexed by object id; same lifetime as
        :attr:`xs`."""
        return self._fleet._ys

    def __len__(self) -> int:
        return self._fleet._xs.shape[0]

    def __getitem__(self, oid: int) -> Tuple[float, float]:
        return (float(self._fleet._xs[oid]), float(self._fleet._ys[oid]))

    # reach: the sequence protocol for scripts (``list(fleet.positions)``);
    # the product reads ``.xs`` / ``.ys`` or indexes one object
    def __iter__(self):
        xs = self._fleet._xs
        ys = self._fleet._ys
        for i in range(xs.shape[0]):
            yield (float(xs[i]), float(ys[i]))

    # reach: compares a FastFleet with its scalar Fleet twin; the product
    # never holds both
    def __eq__(self, other) -> bool:
        """Element-wise, against any sequence of coordinate pairs — a
        list of tuples (``Fleet.positions``) or another view."""
        try:
            return len(self) == len(other) and all(
                p == tuple(q) for p, q in zip(self, other)
            )
        except TypeError:
            return NotImplemented

    __hash__ = None  # mutable view

    # reach: debugging output
    def __repr__(self) -> str:
        return f"SoAPositions(n={len(self)})"


_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_OIDS = np.empty(0, dtype=np.int64)


class _Workspace:
    """One kernel's per-tick scratch, allocated once at its size.
    ``x`` / ``y`` take gathered positions (a kernel over one contiguous
    oid range reads views instead and has none)."""

    def __init__(self, m: int, gather: bool) -> None:
        self.x, self.y = np.empty((2, m)) if gather else (None, None)
        # zeros: off the glide mask ``f`` is read, never stored, so it
        # must stay finite (later: the passed check's bounded squares)
        self.nx, self.ny, self.d, self.f = np.zeros((4, m))
        self.moving, self.glide, self.t0, self.t1 = np.empty((4, m), bool)


class _Kernel:
    """Vectorized stepper for one mover class.

    ``oids`` are the fleet-global ids this kernel owns, ascending.
    ``step`` writes the new positions of every *silent* object into the
    fleet's back buffers and returns the local rows that are events
    (RNG-consuming) this tick; ``arrive`` steps a run of them.
    ``pull_many``/``push_many`` sync those rows' ``SYNC`` columns with
    their movers around the scalar steps. ``offender`` is the fleet's
    safety check over the kernel. ``moved`` says whether the last
    ``step`` can have moved an object of the kernel.
    """

    #: False for a kernel whose objects never move: no workspace.
    MOVES = True
    #: did the last ``step`` move an object? A kernel that cannot tell
    #: says yes.
    moved = True
    #: ``(column, mover attribute)`` pairs mirrored by the kernel.
    SYNC: Tuple[Tuple[str, str], ...] = ()
    #: the fleet's movers by oid (shared, not copied; set by the fleet):
    #: the scalar steps of :meth:`arrive`.
    movers: List[Mover]

    def __init__(
        self, universe: Rect, oids: np.ndarray, movers: List[Mover]
    ) -> None:
        self.universe = universe
        self.oids = oids
        m = oids.shape[0]
        lo = int(oids[0])
        #: this kernel's rows of a fleet column: a slice (read and
        #: written as views) when the oids are one range, else the oids
        #: (gathered and scattered through the workspace).
        self.at = slice(lo, lo + m) if int(oids[-1]) - lo == m - 1 else oids
        if self.MOVES:
            self.ws = _Workspace(m, gather=type(self.at) is not slice)
            speeds = np.array([mv.max_speed for mv in movers])
            self.limit = speeds + _SPEED_TOLERANCE

    # reach: abstract; every kernel class overrides it
    def step(
        self, xs: np.ndarray, ys: np.ndarray, bx: np.ndarray, by: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def pull_many(self, rows: np.ndarray, movers: List[Mover]) -> None:
        """Array state of ``rows`` -> their movers (before the steps)."""
        for col, attr in self.SYNC:
            for m, value in zip(movers, getattr(self, col)[rows].tolist()):
                setattr(m, attr, value)

    def push_many(self, rows: np.ndarray, movers: List[Mover]) -> None:
        """The movers -> array state of ``rows`` (after the steps)."""
        for col, attr in self.SYNC:
            getattr(self, col)[rows] = [getattr(m, attr) for m in movers]

    def arrive(self, rows, oids, xs, ys, bx, by, rng) -> None:
        """Step the event objects ``rows`` (at ``oids``, ascending) into
        the back buffers. As is, each one's own scalar Mover steps in
        oid order against the shared ``rng``, synced in one batch around
        the loop (a mover's step touches only its own state)."""
        ids = oids.tolist()
        stepped = [self.movers[oid] for oid in ids]
        self.pull_many(rows, stepped)
        for oid, m in zip(ids, stepped):
            bx[oid], by[oid] = m.step(float(xs[oid]), float(ys[oid]), rng)
        self.push_many(rows, stepped)

    def _entries(
        self, xs, ys, gx=None, gy=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """This kernel's entries of two fleet columns: views, or gathered
        into ``gx, gy`` (default: the workspace's ``x, y``)."""
        at = self.at
        if type(at) is slice:
            return xs[at], ys[at]
        ws = self.ws
        # mode="clip" writes ``out`` directly; "raise" buffers it.
        return (
            np.take(xs, at, out=ws.x if gx is None else gx, mode="clip"),
            np.take(ys, at, out=ws.y if gy is None else gy, mode="clip"),
        )

    def _store(self, bx, by, nx, ny, where=True) -> None:
        """Write ``nx, ny`` at ``where`` into the back buffers. Gathered,
        they fill in the gathered positions and the lot scatters (the
        back buffers start as copies of the positions)."""
        at = self.at
        if type(at) is slice:
            np.copyto(bx[at], nx, where=where)
            np.copyto(by[at], ny, where=where)
            return
        ws = self.ws
        np.copyto(ws.x, nx, where=where)
        np.copyto(ws.y, ny, where=where)
        bx[at] = ws.x
        by[at] = ws.y

    def offender(self, xs, ys, bx, by) -> Optional[int]:
        """The lowest oid of this kernel outside the universe or farther
        than ``max_speed`` (plus tolerance) from its last position, or
        None. An object that did not move passes trivially."""
        ws = self.ws
        u = self.universe
        nx, ny = self._entries(bx, by, ws.nx, ws.ny)
        x, y = self._entries(xs, ys)
        ok, t = ws.t0, ws.t1
        np.greater_equal(nx, u.xmin, out=ok)
        np.less_equal(nx, u.xmax, out=t)
        ok &= t
        np.greater_equal(ny, u.ymin, out=t)
        ok &= t
        np.less_equal(ny, u.ymax, out=t)
        ok &= t
        d, f = ws.d, ws.f
        np.subtract(nx, x, out=d)
        d *= d
        np.subtract(ny, y, out=f)
        f *= f
        d += f
        np.sqrt(d, out=d)
        np.less_equal(d, self.limit, out=t)
        ok &= t
        return None if ok.all() else int(self.oids[int(np.argmin(ok))])


class _ScalarKernel(_Kernel):
    """Fallback: every object steps scalar every tick (always events)."""

    def step(self, xs, ys, bx, by) -> np.ndarray:
        return np.arange(self.oids.shape[0])


class _StationaryKernel(_Kernel):
    """Objects that never move and never draw randomness."""

    MOVES = False
    moved = False

    def step(self, xs, ys, bx, by) -> np.ndarray:
        # The back buffers start as copies of the positions.
        return _NO_ROWS

    def offender(self, xs, ys, bx, by) -> Optional[int]:
        return None  # never moved


# reach: random-direction mobility (full-size E10) and hand-built
# LinearMover fleets; no quick run steps either
def _bounce(kern: _Kernel, xs, ys, bx, by, vx, vy, where=True) -> None:
    """``(x + vx, y + vy)`` into the back buffers (at ``where``) with one
    wall reflection + clamp per axis, velocities flipped in place.

    Mirrors ``LinearMover.step`` / ``RandomDirectionMover.step``:
    ``lo + (lo - n)`` below, ``hi - (n - hi)`` above, velocity flipped
    on either, then clamped into ``[lo, hi]``.
    """
    u, ws = kern.universe, kern.ws
    below, above = ws.t0, ws.t1
    x, y = kern._entries(xs, ys)
    for p, v, n, lo, hi in (
        (x, vx, ws.nx, u.xmin, u.xmax), (y, vy, ws.ny, u.ymin, u.ymax)
    ):
        np.add(p, v, out=n)
        np.less(n, lo, out=below)
        np.greater(n, hi, out=above)  # disjoint from below: lo <= hi
        np.subtract(lo, n, out=n, where=below)
        np.add(n, lo, out=n, where=below)
        np.subtract(n, hi, out=n, where=above)
        np.subtract(hi, n, out=n, where=above)
        below |= above
        np.negative(v, out=v, where=below)
        np.maximum(n, lo, out=n)
        np.minimum(n, hi, out=n)
    kern._store(bx, by, ws.nx, ws.ny, where)


class _LinearKernel(_Kernel):
    """Constant velocity with reflecting walls; never draws randomness.

    No mobility model draws a ``LinearMover``: only hand-built fleets
    (``Fleet([...])``, scripted scenarios) reach this kernel.
    """

    # reach: hand-built LinearMover fleets (see the class docstring)
    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        self.vx = np.array([m._vx for m in movers], dtype=np.float64)
        self.vy = np.array([m._vy for m in movers], dtype=np.float64)

    # reach: hand-built LinearMover fleets (see the class docstring)
    def step(self, xs, ys, bx, by) -> np.ndarray:
        _bounce(self, xs, ys, bx, by, self.vx, self.vy)
        return _NO_ROWS


class _GlideKernel(_Kernel):
    """Waypointing at a per-trip speed toward ``(tx, ty)``: silent
    unless arriving. The waypoint, Gaussian, hotspot-drift and commute
    kernels add their own gates and redraws.

    The event mask replicates the scalar arrival test *on the result*:
    ``translate_toward`` lands on the target when ``d <= speed``, but a
    near-1 step fraction can also round onto it — both cases trigger
    the scalar new-trip path, so both are events here.
    """

    SYNC = (("speed", "_speed"),)

    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        self.tx = np.array([m._target[0] for m in movers], dtype=np.float64)
        self.ty = np.array([m._target[1] for m in movers], dtype=np.float64)
        self.speed = np.array([m._speed for m in movers], dtype=np.float64)

    def step(self, xs, ys, bx, by) -> np.ndarray:
        return self._glide(xs, ys, bx, by)

    def _glide(self, xs, ys, bx, by, moving=None) -> np.ndarray:
        """One glide of every object (of those ``moving``) into the back
        buffers; returns the local rows that arrive instead.

        ``translate_toward``'s float ops in its order: ``d =
        sqrt(dx*dx + dy*dy)``, ``f = speed / d`` on gliders,
        ``x + (tx - x) * f``.
        """
        ws = self.ws
        tx, ty, speed = self.tx, self.ty, self.speed
        nx, ny, d, f = ws.nx, ws.ny, ws.d, ws.f
        glide, t0, t1 = ws.glide, ws.t0, ws.t1
        x, y = self._entries(xs, ys)
        np.subtract(x, tx, out=nx)
        nx *= nx
        np.subtract(y, ty, out=ny)
        ny *= ny
        np.add(nx, ny, out=d)
        np.sqrt(d, out=d)
        np.less_equal(d, speed, out=glide)
        np.logical_not(glide, out=glide)
        if moving is not None:
            glide &= moving
        # d > speed >= 0 on the glide set, so the division is safe.
        np.divide(speed, d, out=f, where=glide)
        np.subtract(tx, x, out=nx)
        nx *= f
        nx += x
        np.subtract(ty, y, out=ny)
        ny *= f
        ny += y
        # Float-rounding arrivals: the glide formula landed exactly on
        # the target, which the scalar mover treats as an arrival.
        np.not_equal(nx, tx, out=t0)
        np.not_equal(ny, ty, out=t1)
        t0 |= t1
        glide &= t0
        self._store(bx, by, nx, ny, glide)
        np.logical_not(glide, out=t0)
        if moving is not None:
            t0 &= moving
        return np.flatnonzero(t0)

    def pull_many(self, rows, movers) -> None:
        super().pull_many(rows, movers)
        for m, tx, ty in zip(
            movers, self.tx[rows].tolist(), self.ty[rows].tolist()
        ):
            m._target = (tx, ty)

    def push_many(self, rows, movers) -> None:
        super().push_many(rows, movers)
        self.tx[rows] = [m._target[0] for m in movers]
        self.ty[rows] = [m._target[1] for m in movers]

    def _speed_ranges(self, movers) -> None:
        """Index each object's ``(speed_min, speed_max)`` into a table of
        the distinct pairs (a population and its focal objects: two):
        ``trip`` per object, and per pair ``lo`` and ``hi - lo``,
        ``random.uniform``'s operands."""
        pairs: Dict[Tuple[float, float], int] = {}
        index = [
            pairs.setdefault((m.speed_min, m.speed_max), len(pairs))
            for m in movers
        ]
        self.trip = np.array(
            index, dtype=np.uint8 if len(pairs) <= 256 else np.intp
        )
        self.lo = np.array([lo for lo, _ in pairs], dtype=np.float64)
        self.span = np.array([hi - lo for lo, hi in pairs], dtype=np.float64)

    def _redraw(self, rows, oids, bx, by, rng) -> None:
        """Arrivals of ``rows`` (at ``oids``, ascending), batched; no
        mover is read or written. Each lands on its target (the ``d <=
        speed`` arrival and the rounding one both end exactly there) and
        draws its next trip as the scalar ``_new_trip``: a target from
        two draws (:meth:`_targets`), then a speed, ``random.uniform``'s
        ``lo + (hi - lo) * rng.random()`` — three draws per object in
        oid order."""
        tx, ty = self.tx, self.ty
        bx[oids] = tx[rows]
        by[oids] = ty[rows]
        draw = rng.random
        r = np.array([draw() for _ in range(3 * rows.shape[0])])
        tx[rows], ty[rows] = self._targets(rows, r[0::3], r[1::3])
        trip = self.trip[rows]
        self.speed[rows] = self.lo[trip] + self.span[trip] * r[2::3]

    def _targets(self, rows, r0, r1) -> Tuple[np.ndarray, np.ndarray]:
        """The next targets of ``rows`` from two draws each: a
        waypoint's, ``random.uniform`` over the universe per axis."""
        u = self.universe
        return (
            u.xmin + (u.xmax - u.xmin) * r0, u.ymin + (u.ymax - u.ymin) * r1
        )


class _WaypointKernel(_GlideKernel):
    """Random waypoint: the glide, gated by the arrival pause.

    When none of its movers ever pauses (``pause_max == 0``: every
    workload's population and focal objects), there is no pause column
    and the arrivals are batched (:meth:`_GlideKernel._redraw`); a
    pausing arrival draws ``randint`` first and steps scalar.
    """

    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        if any(m.pause_max > 0 for m in movers):
            self.pause = np.array(
                [m._pause_left for m in movers], dtype=np.int64
            )
            self.SYNC = self.SYNC + (("pause", "_pause_left"),)
        else:
            self.pause = None
            self._speed_ranges(movers)

    def step(self, xs, ys, bx, by) -> np.ndarray:
        if self.pause is None:
            return self._glide(xs, ys, bx, by)
        paused = self.ws.moving
        np.greater(self.pause, 0, out=paused)
        if not paused.any():
            return self._glide(xs, ys, bx, by)
        np.subtract(self.pause, 1, out=self.pause, where=paused)
        return self._glide(xs, ys, bx, by, np.logical_not(paused, out=paused))

    def arrive(self, rows, oids, xs, ys, bx, by, rng) -> None:
        if self.pause is None:
            self._redraw(rows, oids, bx, by, rng)
        else:
            super().arrive(rows, oids, xs, ys, bx, by, rng)


#: ``random.gauss``'s angle factor (``random.TWOPI``).
_TWOPI = 2.0 * math.pi


def _clip(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``min(max(v, lo), hi)`` per entry, the builtins' picks included
    (a tie keeps ``v``)."""
    v = np.where(lo > v, lo, v)
    return np.where(hi < v, hi, v)


class _GaussKernel(_GlideKernel):
    """Gaussian-cluster waypointing: the glide, and arrivals redrawn in
    one batch (:meth:`arrive`) around each object's hotspot.

    ``spot`` indexes each object's ``(centre, sigma)`` in a table of the
    distinct ones; :meth:`_centres` gives the table's centres at the
    kernel's tick (fixed here, orbiting in :class:`_DriftKernel`).
    """

    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        self._speed_ranges(movers)
        spots: Dict[tuple, int] = {}
        index = [spots.setdefault(self._spot(m), len(spots)) for m in movers]
        self.spot = np.array(index, dtype=np.intp)
        self.spots = list(spots)
        self.sigma = np.array([key[-1] for key in self.spots])

    @staticmethod
    def _spot(m) -> tuple:
        """What fixes a mover's target distribution; sigma last."""
        return (m.hotspot[0], m.hotspot[1], m.sigma)

    def _centres(self) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.array([key[0] for key in self.spots]),
            np.array([key[1] for key in self.spots]),
        )

    def arrive(self, rows, oids, xs, ys, bx, by, rng) -> None:
        """Arrivals of ``rows`` (at ``oids``, ascending), batched
        (:meth:`_redraw`) unless the RNG holds a cached Gaussian
        (``gauss_next``): then the first ``gauss`` of the run would not
        draw, and the movers step."""
        if rng.gauss_next is None:
            self._redraw(rows, oids, bx, by, rng)
        else:
            super().arrive(rows, oids, xs, ys, bx, by, rng)

    def _targets(self, rows, r0, r1) -> Tuple[np.ndarray, np.ndarray]:
        """``_draw_target``'s targets: ``gauss`` for ``x`` draws ``r0,
        r1`` and leaves ``sin`` for ``y``, which takes it (``gauss_next``
        is None again after each object). The pair is rebuilt with
        ``gauss``'s own expressions (``x2pi = r0 * TWOPI``, ``g2rad =
        sqrt(-2.0 * log(1.0 - r1))``, ``mu + z * sigma``) and clipped
        into the universe."""
        x2pi = (r0 * _TWOPI).tolist()
        log = np.array(list(map(math.log, (1.0 - r1).tolist())))
        g2rad = np.sqrt(-2.0 * log)
        z = np.array(list(map(math.cos, x2pi))) * g2rad
        w = np.array(list(map(math.sin, x2pi))) * g2rad
        spot = self.spot[rows]
        sigma = self.sigma[spot]
        cx, cy = self._centres()
        u = self.universe
        return (
            _clip(cx[spot] + z * sigma, u.xmin, u.xmax),
            _clip(cy[spot] + w * sigma, u.ymin, u.ymax),
        )


class _DriftKernel(_GaussKernel):
    """Drifting-hotspot waypointing: the Gaussian kernel plus a tick
    counter.

    The orbit only matters when a *new trip* is drawn: the vector step
    is exactly the Gaussian glide, and a batched redraw reads each
    hotspot's centre at the kernel's tick (:meth:`_centres`, once per
    distinct hotspot, with ``HotspotDriftMover._center``'s ``math``
    expressions). The kernel advances one shared tick counter and
    ``pull_many`` rewinds the movers' ``_t`` to ``t - 1`` so a scalar
    ``step`` (which increments ``_t``) lands on the kernel's tick:
    silent ticks never touch the movers, yet every scalar event sees
    the same ``_t`` the scalar fleet would have counted up to.
    """

    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        # All movers of one fleet share the fleet's tick; kernels are
        # built at fleet construction, before any advance.
        self.t = movers[0]._t

    @staticmethod
    def _spot(m) -> tuple:
        return (
            m.base[0], m.base[1], m.drift_radius, m.drift_period, m.phase,
            m.sigma,
        )

    def _centres(self) -> Tuple[np.ndarray, np.ndarray]:
        u = self.universe
        cx, cy = [], []
        for bx, by, radius, period, phase, _ in self.spots:
            ang = phase + (2.0 * math.pi * self.t) / period
            cx.append(min(max(bx + radius * math.cos(ang), u.xmin), u.xmax))
            cy.append(min(max(by + radius * math.sin(ang), u.ymin), u.ymax))
        return np.array(cx), np.array(cy)

    def step(self, xs, ys, bx, by) -> np.ndarray:
        self.t += 1
        return self._glide(xs, ys, bx, by)

    def pull_many(self, rows, movers) -> None:
        super().pull_many(rows, movers)
        for m in movers:
            m._t = self.t - 1


class _DirectionKernel(_Kernel):
    """Random direction: silent except at leg renewals.

    Only full-size E10 runs ``random_direction`` mobility; no quick run
    builds this kernel.
    """

    SYNC = (("dx", "_dx"), ("dy", "_dy"), ("leg", "_leg_left"))

    # reach: full-size E10 (see the class docstring)
    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        self.dx = np.array([m._dx for m in movers], dtype=np.float64)
        self.dy = np.array([m._dy for m in movers], dtype=np.float64)
        self.leg = np.array([m._leg_left for m in movers], dtype=np.int64)

    # reach: full-size E10 (see the class docstring)
    def step(self, xs, ys, bx, by) -> np.ndarray:
        silent = self.ws.moving
        np.greater(self.leg, 0, out=silent)
        np.subtract(self.leg, 1, out=self.leg, where=silent)
        # A renewing object's bounce is never stored, and its scalar
        # step redraws the velocity this may flip.
        _bounce(self, xs, ys, bx, by, self.dx, self.dy, silent)
        return np.flatnonzero(np.logical_not(silent, out=self.ws.t0))


class _CommuteKernel(_GlideKernel):
    """Duty-cycled waypointing: a no-op outside the active window.

    A shared step counter ``t`` (mirroring each mover's ``_t``) sets
    the window; during the parked phase no object moves
    and no randomness is drawn, so the whole kernel is one vectorized
    window test. Inside the window this is the glide, gated by the
    window, with the arrivals (RNG-drawing new trips) batched
    (:meth:`_GlideKernel._redraw`): no mover steps, so the movers'
    ``_t`` is never rewound. Period/active bounds are kept per object
    so fleets mixing differently-parameterized models stay correct
    (the fast path just degrades to per-object masks).
    """

    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        # built at fleet construction, before any advance: one tick
        self.t = movers[0]._t
        self.periods = np.array([m.period for m in movers], dtype=np.int64)
        self.actives = np.array(
            [m.active_ticks for m in movers], dtype=np.int64
        )
        self._phase = np.empty(oids.shape[0], dtype=np.int64)
        self.moved = False
        self._speed_ranges(movers)

    def step(self, xs, ys, bx, by) -> np.ndarray:
        active = self.ws.moving
        np.remainder(self.t, self.periods, out=self._phase)
        np.less(self._phase, self.actives, out=active)
        self.t += 1
        self.moved = bool(active.any())
        if not self.moved:
            return _NO_ROWS
        return self._glide(xs, ys, bx, by, active)

    def offender(self, xs, ys, bx, by) -> Optional[int]:
        if not self.moved:
            return None  # parked: nobody moved
        return super().offender(xs, ys, bx, by)

    def arrive(self, rows, oids, xs, ys, bx, by, rng) -> None:
        self._redraw(rows, oids, bx, by, rng)


def _runs(events: List[Tuple[_Kernel, np.ndarray]]):
    """``(kernel, rows, oids)`` per maximal run of one kernel in the
    tick's events, ascending in oid, from ``(kernel, rows)`` per kernel
    with events."""
    if len(events) <= 1:
        for kern, rows in events:
            yield kern, rows, kern.oids[rows]
        return
    oids = np.concatenate([kern.oids[rows] for kern, rows in events])
    rows = np.concatenate([rows for _, rows in events])
    which = np.repeat(
        np.arange(len(events)), [r.shape[0] for _, r in events]
    )
    order = np.argsort(oids)
    oids, rows, which = oids[order], rows[order], which[order]
    cuts = (np.flatnonzero(which[1:] != which[:-1]) + 1).tolist()
    for a, b in zip([0] + cuts, cuts + [oids.shape[0]]):
        yield events[which[a]][0], rows[a:b], oids[a:b]


#: Exact-type kernel registry. Subclasses fall back to scalar stepping
#: (their overridden ``step`` could do anything).
_KERNELS: Dict[Type[Mover], Type[_Kernel]] = {
    StationaryMover: _StationaryKernel,
    LinearMover: _LinearKernel,
    RandomWaypointMover: _WaypointKernel,
    GaussianClusterMover: _GaussKernel,
    HotspotDriftMover: _DriftKernel,
    RandomDirectionMover: _DirectionKernel,
    CommuteMover: _CommuteKernel,
}


class FastFleet(Fleet):
    """A :class:`Fleet` with numpy position storage and batched advance.

    Construction, the RNG stream, and every per-tick position are
    bit-identical to the scalar fleet (pinned by
    ``tests/test_fastpath.py``); only the amount of Python executed per
    tick changes. Use :meth:`Fleet.from_model` on this class;
    :func:`repro.workloads.build_workload` does.
    """

    def __init__(self, movers: Sequence[Mover], seed: int = 0) -> None:
        super().__init__(movers, seed=seed)
        self._xs = np.array([p[0] for p in self.positions], dtype=np.float64)
        self._ys = np.array([p[1] for p in self.positions], dtype=np.float64)
        #: the other position buffers: ``advance`` writes the next tick
        #: here, then swaps them with ``_xs`` / ``_ys``; they start as
        #: the first tick, like every tick after they hold the one before.
        self._bx = self._xs.copy()
        self._by = self._ys.copy()
        #: per-object displacement bounds: ``max_speed_of``, as an array.
        self.max_speeds = np.array(self._speeds, dtype=np.float64)
        # Group movers by exact class; one kernel instance per class.
        by_cls: Dict[Type[Mover], Tuple[List[int], List[Mover]]] = {}
        for oid, m in enumerate(self._movers):
            cls = type(m) if type(m) in _KERNELS else Mover
            ids, ms = by_cls.setdefault(cls, ([], []))
            ids.append(oid)
            ms.append(m)
        self._kernels: List[_Kernel] = []
        #: index into ``_kernels`` per object, for array-side grouping.
        self._kernel_id = np.empty(len(self._movers), dtype=np.int16)
        for cls, (ids, ms) in by_cls.items():
            kern_cls = _KERNELS.get(cls, _ScalarKernel)
            kern = kern_cls(
                self.universe, np.array(ids, dtype=np.int64), ms
            )
            kern.movers = self._movers
            self._kernel_id[kern.oids] = len(self._kernels)
            self._kernels.append(kern)
        moving = [kern.oids for kern in self._kernels if kern.MOVES]
        #: the oids an advance can move, ascending; None when the moving
        #: kernels hold every object.
        self.moving_rows: Optional[np.ndarray] = (
            None if sum(ids.shape[0] for ids in moving) == self.n
            else np.sort(np.concatenate([_NO_OIDS] + moving))
        )
        self.positions = SoAPositions(self)  # type: ignore[assignment]

    def advance(self) -> None:
        """Move every object one tick; vectorized where silent.

        The back buffers take this tick on the rows of the kernels that
        moved on the last advance (they hold the tick before, which
        differs from this one only there: a kernel that did not move
        left its back rows equal to its front ones); the
        kernels write the next tick into them and name their event rows;
        the events, in ascending oid across kernels (the scalar fleet's
        draw order), go back to their kernels' :meth:`_Kernel.arrive` as
        maximal runs of one kernel; the kernels check the result, and
        the buffers swap.
        """
        xs, ys, bx, by = self._xs, self._ys, self._bx, self._by
        for kern in self._kernels:
            if kern.moved:  # still the last advance's answer
                bx[kern.at] = xs[kern.at]
                by[kern.at] = ys[kern.at]
        events = []
        for kern in self._kernels:
            rows = kern.step(xs, ys, bx, by)
            if rows.shape[0]:
                events.append((kern, rows))
        for kern, rows, oids in _runs(events):
            kern.arrive(rows, oids, xs, ys, bx, by, self._rng)
        self._validate(xs, ys, bx, by)
        self._xs, self._bx = bx, xs
        self._ys, self._by = by, ys
        self.tick += 1

    def moved(self) -> bool:
        """Can the last :meth:`advance` have moved an object? False only
        when every kernel says it moved none: a parked commute window,
        stationary objects. One question per kernel, no row read."""
        for kern in self._kernels:
            if kern.moved:
                return True
        return False

    def _validate(self, xs, ys, bx, by) -> None:
        """The scalar fleet's per-tick safety check, kernel by kernel in
        their workspaces (a kernel that moved nothing this tick skips
        it). Like the scalar fleet, the error names the lowest offending
        oid, its universe check before its speed check."""
        bad = [k.offender(xs, ys, bx, by) for k in self._kernels]
        bad = [oid for oid in bad if oid is not None]
        if not bad:
            return
        oid = min(bad)
        nx, ny = float(bx[oid]), float(by[oid])
        if not self.universe.contains_point(nx, ny):
            raise MobilityError(f"object {oid} left universe: ({nx}, {ny})")
        moved = dist(float(xs[oid]), float(ys[oid]), nx, ny)
        raise MobilityError(
            f"object {oid} moved {moved:.6f} > declared "
            f"max_speed {self._speeds[oid]:.6f}"
        )
