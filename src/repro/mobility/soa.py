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
* objects flagged as events fall back to their own scalar
  :class:`~repro.mobility.base.Mover` — state is synced array→mover,
  ``mover.step`` runs (consuming the shared RNG), state syncs back.
  Events are processed in ascending object id, which is exactly the
  order the scalar fleet draws randomness in, so the RNG stream never
  diverges.

Mover classes without a kernel (road network, custom subclasses) are
stepped scalar every tick — correctness never depends on a kernel
existing. Positions are exposed through :class:`SoAPositions`, a
sequence view that yields plain float tuples (so protocol messages
carry the same Python floats as the scalar path) while handing the
backing arrays (``.xs`` / ``.ys``) to vectorized consumers for free.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Type

import numpy as np

from repro.errors import MobilityError
from repro.geometry import Rect
from repro.mobility.base import Mover
from repro.mobility.crossing import (
    _MAX_HORIZON,
    GENERIC,
    Claims,
    glide_claims,
    velocity_claims,
)
from repro.mobility.fleet import Fleet, _SPEED_TOLERANCE
from repro.mobility.gaussian_cluster import GaussianClusterMover
from repro.mobility.hotspot_drift import HotspotDriftMover
from repro.mobility.mostly_stationary import CommuteMover
from repro.mobility.random_direction import RandomDirectionMover
from repro.mobility.random_waypoint import RandomWaypointMover
from repro.mobility.stationary import LinearMover, StationaryMover
from repro.mobility.trace import ReplayFleet, Trace

__all__ = ["FastFleet", "FastReplayFleet", "SoAPositions"]


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
        """X coordinates, indexed by object id (read-only view)."""
        return self._fleet._xs

    @property
    def ys(self) -> np.ndarray:
        """Y coordinates, indexed by object id (read-only view)."""
        return self._fleet._ys

    def __len__(self) -> int:
        return self._fleet._xs.shape[0]

    def __getitem__(self, oid: int) -> Tuple[float, float]:
        return (float(self._fleet._xs[oid]), float(self._fleet._ys[oid]))

    def __iter__(self):
        xs = self._fleet._xs
        ys = self._fleet._ys
        for i in range(xs.shape[0]):
            yield (float(xs[i]), float(ys[i]))

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

    def __repr__(self) -> str:
        return f"SoAPositions(n={len(self)})"


class _Kernel:
    """Vectorized stepper for one mover class.

    ``oids`` are the fleet-global ids this kernel owns. ``step`` fills
    the new-position arrays for every *silent* object and returns the
    global ids that need a scalar (RNG-consuming) step this tick.
    ``pull``/``push`` sync per-object state between the arrays and one
    mover around that scalar step. ``claims`` reads the objects' motion
    claims (:mod:`repro.mobility.crossing`) off the kernel columns.
    """

    def __init__(
        self, universe: Rect, oids: np.ndarray, movers: List[Mover]
    ) -> None:
        self.universe = universe
        self.oids = oids
        self._local: Dict[int, int] = {
            int(oid): i for i, oid in enumerate(oids)
        }

    def step(
        self, xs: np.ndarray, ys: np.ndarray, nxs: np.ndarray, nys: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def pull(self, oid: int, mover: Mover) -> None:
        """Array state -> mover attributes (before a scalar step)."""

    def push(self, oid: int, mover: Mover) -> None:
        """Mover attributes -> array state (after a scalar step)."""

    def claims(
        self, i: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Claims:
        """Motion claims of the objects at local indices ``i`` (now at
        ``(x, y)``). Without a closed form for the class, only the speed
        bound: it holds for any mover."""
        return Claims(i.shape[0], GENERIC)


class _ScalarKernel(_Kernel):
    """Fallback: every object steps scalar every tick (always events)
    and claims only its speed bound."""

    def step(self, xs, ys, nxs, nys) -> np.ndarray:
        return self.oids


class _StationaryKernel(_Kernel):
    """Objects that never move and never draw randomness."""

    _EMPTY = np.empty(0, dtype=np.int64)

    def step(self, xs, ys, nxs, nys) -> np.ndarray:
        # nxs/nys start as copies of xs/ys: nothing to do.
        return self._EMPTY

    def claims(self, i, x, y) -> Claims:
        return Claims(i.shape[0])  # all STILL


def _reflect_axis(
    n: np.ndarray, v: np.ndarray, lo: float, hi: float
) -> Tuple[np.ndarray, np.ndarray]:
    """One wall reflection + clamp, replicating the scalar branch order.

    Mirrors ``LinearMover.step`` / ``RandomDirectionMover.step``:
    ``lo + (lo - n)`` below, ``hi - (n - hi)`` above, velocity flipped
    on either, then clamped into ``[lo, hi]``.
    """
    below = n < lo
    above = ~below & (n > hi)
    out = np.where(below, lo + (lo - n), np.where(above, hi - (n - hi), n))
    v = np.where(below | above, -v, v)
    out = np.minimum(np.maximum(out, lo), hi)
    return out, v


class _LinearKernel(_Kernel):
    """Constant velocity with reflecting walls; never draws randomness."""

    _EMPTY = np.empty(0, dtype=np.int64)

    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        self.vx = np.array([m._vx for m in movers], dtype=np.float64)
        self.vy = np.array([m._vy for m in movers], dtype=np.float64)

    def step(self, xs, ys, nxs, nys) -> np.ndarray:
        u = self.universe
        o = self.oids
        nx = xs[o] + self.vx
        ny = ys[o] + self.vy
        nx, self.vx = _reflect_axis(nx, self.vx, u.xmin, u.xmax)
        ny, self.vy = _reflect_axis(ny, self.vy, u.ymin, u.ymax)
        nxs[o] = nx
        nys[o] = ny
        return self._EMPTY

    def claims(self, i, x, y) -> Claims:
        return velocity_claims(
            x, y, self.vx[i], self.vy[i], _MAX_HORIZON, self.universe
        )

    def pull(self, oid, mover) -> None:
        i = self._local[oid]
        mover._vx = float(self.vx[i])
        mover._vy = float(self.vy[i])

    def push(self, oid, mover) -> None:
        i = self._local[oid]
        self.vx[i] = mover._vx
        self.vy[i] = mover._vy


class _WaypointKernel(_Kernel):
    """Random waypoint: silent unless paused-out or arriving.

    The event mask replicates the scalar arrival test *on the result*:
    ``translate_toward`` lands on the target when ``d <= speed``, but a
    near-1 step fraction can also round onto it — both cases trigger
    the scalar new-trip path, so both are events here.
    """

    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        self.tx = np.array([m._target[0] for m in movers], dtype=np.float64)
        self.ty = np.array([m._target[1] for m in movers], dtype=np.float64)
        self.speed = np.array([m._speed for m in movers], dtype=np.float64)
        self.pause = np.array(
            [m._pause_left for m in movers], dtype=np.int64
        )

    def step(self, xs, ys, nxs, nys) -> np.ndarray:
        o = self.oids
        x = xs[o]
        y = ys[o]
        paused = self.pause > 0
        if paused.any():
            self.pause[paused] -= 1
        moving = ~paused
        dx = x - self.tx
        dy = y - self.ty
        d = np.sqrt(dx * dx + dy * dy)
        arrive = moving & (d <= self.speed)
        glide = moving & ~arrive
        # d > speed >= 0 on the glide set, so the division is safe.
        f = np.where(glide, self.speed / np.where(glide, d, 1.0), 0.0)
        nx = x + (self.tx - x) * f
        ny = y + (self.ty - y) * f
        # Float-rounding arrivals: the glide formula landed exactly on
        # the target, which the scalar mover treats as an arrival.
        landed = glide & (nx == self.tx) & (ny == self.ty)
        arrive |= landed
        glide &= ~landed
        nxs[o[glide]] = nx[glide]
        nys[o[glide]] = ny[glide]
        return o[arrive]

    def claims(self, i, x, y) -> Claims:
        claims = glide_claims(x, y, self.tx[i], self.ty[i], self.speed[i])
        pause = self.pause[i]
        claims.hold(pause > 0, pause)  # static through the pause
        return claims

    def pull(self, oid, mover) -> None:
        i = self._local[oid]
        mover._target = (float(self.tx[i]), float(self.ty[i]))
        mover._speed = float(self.speed[i])
        mover._pause_left = int(self.pause[i])

    def push(self, oid, mover) -> None:
        i = self._local[oid]
        self.tx[i], self.ty[i] = mover._target
        self.speed[i] = mover._speed
        self.pause[i] = mover._pause_left


class _GaussianKernel(_Kernel):
    """Gaussian-cluster waypointing: like waypoint, without pauses."""

    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        self.tx = np.array([m._target[0] for m in movers], dtype=np.float64)
        self.ty = np.array([m._target[1] for m in movers], dtype=np.float64)
        self.speed = np.array([m._speed for m in movers], dtype=np.float64)

    def step(self, xs, ys, nxs, nys) -> np.ndarray:
        o = self.oids
        x = xs[o]
        y = ys[o]
        dx = x - self.tx
        dy = y - self.ty
        d = np.sqrt(dx * dx + dy * dy)
        arrive = d <= self.speed
        glide = ~arrive
        f = np.where(glide, self.speed / np.where(glide, d, 1.0), 0.0)
        nx = x + (self.tx - x) * f
        ny = y + (self.ty - y) * f
        landed = glide & (nx == self.tx) & (ny == self.ty)
        arrive |= landed
        glide &= ~landed
        nxs[o[glide]] = nx[glide]
        nys[o[glide]] = ny[glide]
        return o[arrive]

    def claims(self, i, x, y) -> Claims:
        return glide_claims(x, y, self.tx[i], self.ty[i], self.speed[i])

    def pull(self, oid, mover) -> None:
        i = self._local[oid]
        mover._target = (float(self.tx[i]), float(self.ty[i]))
        mover._speed = float(self.speed[i])

    def push(self, oid, mover) -> None:
        i = self._local[oid]
        self.tx[i], self.ty[i] = mover._target
        self.speed[i] = mover._speed


class _DriftKernel(_GaussianKernel):
    """Drifting-hotspot waypointing: the Gaussian kernel plus a tick
    counter.

    The orbit only matters when a *new trip* is drawn, which is always
    a scalar (RNG-consuming) event — so the vector step is exactly the
    Gaussian glide. The kernel advances one shared tick counter and
    ``pull`` rewinds the mover's ``_t`` to ``t - 1`` so the scalar
    ``step`` (which increments ``_t``) lands on the kernel's tick:
    silent ticks never touch the movers, yet every event sees the same
    ``_t`` the scalar fleet would have counted up to.
    """

    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        # All movers of one fleet share the fleet's tick; kernels are
        # built at fleet construction, before any advance.
        self.t = movers[0]._t if movers else 0

    def step(self, xs, ys, nxs, nys) -> np.ndarray:
        self.t += 1
        return super().step(xs, ys, nxs, nys)

    def pull(self, oid, mover) -> None:
        super().pull(oid, mover)
        mover._t = self.t - 1


class _DirectionKernel(_Kernel):
    """Random direction: silent except at leg renewals."""

    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        self.dx = np.array([m._dx for m in movers], dtype=np.float64)
        self.dy = np.array([m._dy for m in movers], dtype=np.float64)
        self.leg = np.array([m._leg_left for m in movers], dtype=np.int64)

    def step(self, xs, ys, nxs, nys) -> np.ndarray:
        u = self.universe
        o = self.oids
        renew = self.leg <= 0
        silent = ~renew
        self.leg[silent] -= 1
        s = o[silent]
        nx = xs[s] + self.dx[silent]
        ny = ys[s] + self.dy[silent]
        nx, ndx = _reflect_axis(nx, self.dx[silent], u.xmin, u.xmax)
        ny, ndy = _reflect_axis(ny, self.dy[silent], u.ymin, u.ymax)
        self.dx[silent] = ndx
        self.dy[silent] = ndy
        nxs[s] = nx
        nys[s] = ny
        return o[renew]

    def claims(self, i, x, y) -> Claims:
        leg = self.leg[i]
        claims = velocity_claims(
            x, y, self.dx[i], self.dy[i], leg, self.universe
        )
        # The very next step draws a fresh heading: speed bound only.
        claims.mode[leg <= 0] = GENERIC
        return claims

    def pull(self, oid, mover) -> None:
        i = self._local[oid]
        mover._dx = float(self.dx[i])
        mover._dy = float(self.dy[i])
        mover._leg_left = int(self.leg[i])

    def push(self, oid, mover) -> None:
        i = self._local[oid]
        self.dx[i] = mover._dx
        self.dy[i] = mover._dy
        self.leg[i] = mover._leg_left


class _CommuteKernel(_Kernel):
    """Duty-cycled waypointing: a no-op outside the active window.

    The shared step counter advances every tick (mirroring each
    mover's ``_t``); during the parked phase no object moves and no
    randomness is drawn, so the whole kernel is one vectorized window
    test. Inside the window this is the waypoint glide with arrivals
    (RNG-drawing new trips) as scalar events. Period/active bounds are
    kept per object so fleets mixing differently-parameterized models
    stay correct (the fast path just degrades to per-object masks).
    """

    _EMPTY = np.empty(0, dtype=np.int64)

    def __init__(self, universe, oids, movers) -> None:
        super().__init__(universe, oids, movers)
        self.tx = np.array([m._target[0] for m in movers], dtype=np.float64)
        self.ty = np.array([m._target[1] for m in movers], dtype=np.float64)
        self.speed = np.array([m._speed for m in movers], dtype=np.float64)
        self.periods = np.array([m.period for m in movers], dtype=np.int64)
        self.actives = np.array(
            [m.active_ticks for m in movers], dtype=np.int64
        )
        # Kernels are built at fleet construction, before any advance.
        self.t = movers[0]._t if movers else 0

    def step(self, xs, ys, nxs, nys) -> np.ndarray:
        active = (self.t % self.periods) < self.actives
        self.t += 1
        if not active.any():
            return self._EMPTY
        o = self.oids[active]
        x = xs[o]
        y = ys[o]
        tx = self.tx[active]
        ty = self.ty[active]
        sp = self.speed[active]
        dx = x - tx
        dy = y - ty
        d = np.sqrt(dx * dx + dy * dy)
        arrive = d <= sp
        glide = ~arrive
        f = np.where(glide, sp / np.where(glide, d, 1.0), 0.0)
        nx = x + (tx - x) * f
        ny = y + (ty - y) * f
        landed = glide & (nx == tx) & (ny == ty)
        arrive |= landed
        glide &= ~landed
        nxs[o[glide]] = nx[glide]
        nys[o[glide]] = ny[glide]
        return o[arrive]

    def claims(self, i, x, y) -> Claims:
        tx = self.tx[i]
        ty = self.ty[i]
        speed = self.speed[i]
        # Inside the window: the glide claims. They assume continuous
        # full-speed motion along the trip line; the actual motion is
        # that line with parked gaps inserted, never farther along at
        # any tick, so a predicted crossing can only be early.
        claims = glide_claims(x, y, tx, ty, speed)
        phase = self.t % self.periods[i]
        active = self.actives[i]
        # A zero-speed trip short of its target sits out the window;
        # everyone is parked until the window wraps once it closes.
        claims.hold((speed <= 0.0) & ((x != tx) | (y != ty)), active - phase)
        claims.hold(phase >= active, self.periods[i] - phase)
        return claims

    def pull(self, oid, mover) -> None:
        i = self._local[oid]
        mover._target = (float(self.tx[i]), float(self.ty[i]))
        mover._speed = float(self.speed[i])
        # The scalar ``step`` about to run re-increments onto the
        # kernel's (already advanced) count.
        mover._t = self.t - 1

    def push(self, oid, mover) -> None:
        i = self._local[oid]
        self.tx[i], self.ty[i] = mover._target
        self.speed[i] = mover._speed


#: Exact-type kernel registry. Subclasses fall back to scalar stepping
#: (their overridden ``step`` could do anything).
_KERNELS: Dict[Type[Mover], Type[_Kernel]] = {
    StationaryMover: _StationaryKernel,
    LinearMover: _LinearKernel,
    RandomWaypointMover: _WaypointKernel,
    GaussianClusterMover: _GaussianKernel,
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
        #: per-object displacement bounds: ``max_speed_of``, as an array.
        self.max_speeds = np.array(self._speeds, dtype=np.float64)
        self._speed_limit = self.max_speeds + _SPEED_TOLERANCE
        # Group movers by exact class; one kernel instance per class.
        by_cls: Dict[Type[Mover], Tuple[List[int], List[Mover]]] = {}
        for oid, m in enumerate(self._movers):
            cls = type(m) if type(m) in _KERNELS else Mover
            ids, ms = by_cls.setdefault(cls, ([], []))
            ids.append(oid)
            ms.append(m)
        self._kernels: List[_Kernel] = []
        self._kernel_of: List[_Kernel] = [None] * len(self._movers)  # type: ignore[list-item]
        #: index into ``_kernels`` per object, for array-side grouping.
        self._kernel_id = np.empty(len(self._movers), dtype=np.int16)
        for cls, (ids, ms) in by_cls.items():
            kern_cls = _KERNELS.get(cls, _ScalarKernel)
            kern = kern_cls(
                self.universe, np.array(ids, dtype=np.int64), ms
            )
            self._kernel_id[kern.oids] = len(self._kernels)
            self._kernels.append(kern)
            for oid in ids:
                self._kernel_of[oid] = kern
        self.positions = SoAPositions(self)  # type: ignore[assignment]

    def motion_claims(self, oids: np.ndarray) -> Claims:
        """The motion claims (:mod:`repro.mobility.crossing`) of the
        objects ``oids``, read straight off the kernel columns: per
        object, the branch its motion is in and that branch's
        parameters as of the next :meth:`advance`. No mover is read.
        """
        claims = Claims(oids.shape[0])
        kernel_id = self._kernel_id[oids]
        for k, kern in enumerate(self._kernels):
            at = np.nonzero(kernel_id == k)[0]
            if at.shape[0] == 0:
                continue
            mine = oids[at]
            # kern.oids ascends (built in oid order): position = index.
            part = kern.claims(
                np.searchsorted(kern.oids, mine), self._xs[mine], self._ys[mine]
            )
            claims.put(at, part)
        return claims

    def advance(self) -> None:
        """Move every object one tick; vectorized where silent."""
        xs = self._xs
        ys = self._ys
        nxs = xs.copy()
        nys = ys.copy()
        event_lists = [k.step(xs, ys, nxs, nys) for k in self._kernels]
        events = (
            np.sort(np.concatenate(event_lists))
            if len(event_lists) > 1
            else np.sort(event_lists[0])
        )
        rng = self._rng
        for oid in events.tolist():
            kern = self._kernel_of[oid]
            mover = self._movers[oid]
            kern.pull(oid, mover)
            nx, ny = mover.step(float(xs[oid]), float(ys[oid]), rng)
            kern.push(oid, mover)
            nxs[oid] = nx
            nys[oid] = ny
        self._validate(xs, ys, nxs, nys)
        self._xs = nxs
        self._ys = nys
        self.tick += 1

    def _validate(self, xs, ys, nxs, nys) -> None:
        """Vectorized form of the scalar fleet's per-tick safety check.

        Only objects whose position changed this tick are checked: an
        unchanged position was inside the universe last tick and moved
        a distance of exactly zero, so both predicates hold trivially.
        On mostly-stationary fleets this turns the per-tick cost from
        O(N) into O(moved).
        """
        changed = np.nonzero((nxs != xs) | (nys != ys))[0]
        if changed.size == 0:
            return
        cx = nxs[changed]
        cy = nys[changed]
        u = self.universe
        inside = (
            (cx >= u.xmin) & (cx <= u.xmax) & (cy >= u.ymin) & (cy <= u.ymax)
        )
        if not inside.all():
            oid = int(changed[int(np.nonzero(~inside)[0][0])])
            raise MobilityError(
                f"object {oid} left universe: ({nxs[oid]}, {nys[oid]})"
            )
        ddx = cx - xs[changed]
        ddy = cy - ys[changed]
        moved = np.sqrt(ddx * ddx + ddy * ddy)
        bad = moved > self._speed_limit[changed]
        if bad.any():
            k = int(np.nonzero(bad)[0][0])
            oid = int(changed[k])
            raise MobilityError(
                f"object {oid} moved {float(moved[k]):.6f} > declared "
                f"max_speed {self._speeds[oid]:.6f}"
            )


class FastReplayFleet(ReplayFleet):
    """A :class:`~repro.mobility.trace.ReplayFleet` with SoA positions.

    Frames are bulk-converted to one ``(ticks, n, 2)`` array at
    construction; every :meth:`advance` is then two array-row views.
    Position reads yield the same Python floats as the scalar replay
    (CSV floats round-trip through float64 exactly).
    """

    def __init__(self, trace: Trace) -> None:
        super().__init__(trace)
        self._frames = np.asarray(trace.frames, dtype=np.float64)
        self._xs = self._frames[0, :, 0].copy()
        self._ys = self._frames[0, :, 1].copy()
        self.positions = SoAPositions(self)  # type: ignore[assignment]

    def advance(self) -> None:
        self.tick += 1
        if self.tick < self._trace.ticks:
            self._xs = self._frames[self.tick, :, 0]
            self._ys = self._frames[self.tick, :, 1]
