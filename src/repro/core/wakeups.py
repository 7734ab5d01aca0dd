"""Wakeup planning for DKNN mobiles under the event engine.

Maps a :class:`~repro.core.client.DknnMobileNode`'s protocol state —
dead-reckoning origin, installed safe regions, lease heartbeat and
violation-retry timers — onto the closed-form crossing solvers of
:mod:`repro.mobility.crossing`, producing the node's next *act* tick
(the tick must run in full: the node would send, or mutate protocol
state) or *re-solve* tick (a motion claim horizon expired; recompute
cheaply, no full tick needed).

Soundness contract (what ``tests/test_crossing.py`` pins): the act
tick is **never later** than the first tick on which the node's
``on_tick_start`` would do anything. Early is fine — an early wakeup
runs a full tick in which the node does nothing, which is exactly what
tick mode does every tick.

Two float-safety measures keep "never later" honest:

* crossing ticks are floored (a predicted crossing inside tick ``k``
  wakes at ``k``, which is at or before the first violating position);
* check radii carry a one-part-in-10^12 conservative bias
  (:data:`_RADIUS_BIAS`) toward firing early, absorbing the ulp
  disagreement between the solver's ``d^2 > R^2`` form and the region
  classes' squared-slack predicates (``REGION_EPS`` slack is ~1e-9,
  three orders larger, so boundary-installed objects stay solidly
  inside their biased radii and do not thrash).

The event engine re-plans all the nodes due on a tick through one call
of :meth:`DknnWakeupPlanner.wakeups`, which builds the same checks from
the vectorized client phase's mirrors and region table, takes the
motion state from the fast fleet's kernel columns and solves with the
array twins of the crossing solvers — node for node the ``(act,
resolve)`` of :meth:`DknnWakeupPlanner.wakeup`, which remains the
specification and the path of every node the arrays cannot describe.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.client import DknnMobileNode
from repro.core.fastpath import DknnSilentPhase
from repro.core.protocol import BAND_OUTSIDER
from repro.geometry.region import (
    REGION_EPS,
    AnswerBand,
    OutsiderBand,
    QuerySafeCircle,
)
from repro.mobility.crossing import (
    ENTER,
    EXIT,
    SCALAR,
    Check,
    CheckRows,
    plan_wakeup,
    solve_claims,
)

__all__ = ["DknnWakeupPlanner", "planner_for"]

#: Conservative relative bias on check radii: EXIT radii shrink by it,
#: ENTER radii grow by it, so float rounding can only make the solver
#: fire a tick early (a no-op full tick), never late (a missed report).
_RADIUS_BIAS = 1e-12
_EXIT_SCALE = (1.0 + REGION_EPS) * (1.0 - _RADIUS_BIAS)
_ENTER_SCALE = (1.0 - REGION_EPS) * (1.0 + _RADIUS_BIAS)
_THETA_SCALE = 1.0 - _RADIUS_BIAS


class DknnWakeupPlanner:
    """Computes per-node wakeups for one simulator's DKNN fleet."""

    def __init__(self, sim) -> None:
        self.sim = sim
        phase = sim.client_phase
        #: the vectorized client phase mirrors ``_last_sent`` /
        #: ``_last_uplink_tick`` in arrays; nodes it touched must be
        #: synced back before their protocol state is read.
        self._phase = phase if isinstance(phase, DknnSilentPhase) else None

    def wakeups(
        self, oids: np.ndarray, tick: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`wakeup` of every node in ``oids`` (unique ids) at once.

        Returns ``(act, resolve)`` absolute ticks as int64 arrays, -1
        for None. Nodes with protocol timers, a region of unknown class
        or a mover without an array solver are answered by the scalar
        :meth:`wakeup`, as is everyone when the fleet or the client
        phase is scalar.
        """
        m = oids.shape[0]
        act = np.full(m, -1, dtype=np.int64)
        resolve = np.full(m, -1, dtype=np.int64)
        phase = self._phase
        if phase is None or not hasattr(self.sim.fleet, "motion_claims"):
            scalar = np.ones(m, dtype=bool)
        else:
            phase.flush_touched()
            never_sent = np.isnan(phase._sent_x[oids])
            act[never_sent] = tick + 1  # first report is unconditional
            scalar = phase._attention[oids] & phase._timers[oids] & ~never_sent
            at = np.nonzero(~(never_sent | scalar))[0]
            a, r, solved = self._solve(oids[at])
            act[at] = np.where(a >= 0, tick + a, -1)
            resolve[at] = np.where(r >= 0, tick + r, -1)
            scalar[at[~solved]] = True
        nodes = self.sim.mobiles
        for i in np.nonzero(scalar)[0].tolist():
            a, r = self.wakeup(nodes[int(oids[i])], tick)
            act[i] = -1 if a is None else a
            resolve[i] = -1 if r is None else r
        return act, resolve

    def _solve(
        self, oids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Relative ``(act, resolve)`` delays of timer-free nodes that
        have transmitted before, from the phase mirrors and the kernel
        columns, plus a mask of the nodes this could answer for (the
        rest need the scalar :meth:`wakeup`)."""
        phase = self._phase
        fleet = self.sim.fleet
        m = oids.shape[0]
        claims = fleet.motion_claims(oids)
        table = phase.regions
        rows, node = table.rows_of(oids)
        armed = ~table.muted[rows]
        rows, node = rows[armed], node[armed]
        kind = table.kind[rows]
        claims.mode[node[kind < 0]] = SCALAR  # unknown class: stay awake
        enter = kind == BAND_OUTSIDER
        # One drift check per node, then the region rows, the radii
        # biased as wakeup() biases them.
        checks = CheckRows(
            np.concatenate((np.arange(m), node)),
            np.concatenate((phase._sent_x[oids], table.ax[rows])),
            np.concatenate((phase._sent_y[oids], table.ay[rows])),
            np.concatenate(
                (
                    phase._theta[oids] * _THETA_SCALE,
                    table.radius[rows]
                    * np.where(enter, _ENTER_SCALE, _EXIT_SCALE),
                )
            ),
            np.concatenate((np.zeros(m, dtype=bool), enter)),
        )
        positions = fleet.positions
        act, resolve = solve_claims(
            claims, positions.xs[oids], positions.ys[oids], checks,
            fleet.max_speeds[oids],
        )
        return act, resolve, claims.mode != SCALAR

    def wakeup(
        self, node: DknnMobileNode, tick: int
    ) -> Tuple[Optional[int], Optional[int]]:
        """``(act, resolve)`` absolute ticks for ``node`` as of ``tick``.

        At most one is non-None; ``(None, None)`` means the node can
        stay asleep until a message touches it.
        """
        if self._phase is not None:
            self._phase._sync_node(node.oid)
        if node._last_sent is None:
            return tick + 1, None  # first report is unconditional
        oid = node.oid
        fleet = self.sim.fleet
        x, y = fleet.positions[oid]
        sx, sy = node._last_sent
        checks: List[Check] = [
            Check(float(sx), float(sy), node.theta * _THETA_SCALE, EXIT)
        ]
        for qid, region in node.regions.items():
            if qid in node._reported:
                # Muted: a reported violation stays quiet until the
                # server repairs it (message -> replan) or the retry
                # timer below re-arms it.
                continue
            cls = type(region)
            if cls is OutsiderBand:
                checks.append(
                    Check(
                        region.ax,
                        region.ay,
                        region.radius * _ENTER_SCALE,
                        ENTER,
                    )
                )
            elif cls is AnswerBand or cls is QuerySafeCircle:
                checks.append(
                    Check(
                        region.ax,
                        region.ay,
                        region.radius * _EXIT_SCALE,
                        EXIT,
                    )
                )
            else:
                # Unknown region type: no closed form — stay awake.
                return tick + 1, None
        wake = plan_wakeup(
            fleet.motion_state(oid), float(x), float(y), checks
        )
        act = tick + wake.act if wake.act is not None else None
        resolve = (
            tick + wake.resolve if wake.resolve is not None else None
        )
        act = self._merge_timers(node, tick, act)
        if act is not None and (resolve is None or act <= resolve):
            return act, None
        # A timer past the motion claim's horizon waits for the
        # re-solve: by then the node may have moved and crossed first.
        return None, resolve

    def _merge_timers(
        self, node: DknnMobileNode, tick: int, act: Optional[int]
    ) -> Optional[int]:
        """Fold the protocol's countdown timers into the act tick.

        Timer ticks must be *full* ticks even when nothing ends up on
        the wire: the retry sweep's drifted-back-inside branch re-arms
        an episode without sending, which is a protocol state change.
        """
        if node._lease > 0 and node.regions:
            beat = node._last_uplink_tick + max(1, node._lease // 2)
            act = _min_tick(act, max(beat, tick + 1))
        if node.violation_retry:
            for qid in node._reported:
                if node.regions.get(qid) is None:
                    continue
                sent = node._violation_sent.get(qid)
                if sent is None:
                    continue
                retry = sent + node.violation_retry
                act = _min_tick(act, max(retry, tick + 1))
        return act


def _min_tick(a: Optional[int], b: int) -> int:
    return b if a is None or b < a else a


def planner_for(sim) -> Optional[DknnWakeupPlanner]:
    """A planner for ``sim``, or None when its fleet has no closed form.

    Only plain :class:`DknnMobileNode` clients are plannable — the
    baselines (and any subclass with a different tick-start) get no
    planner, which makes the event engine run every tick in full:
    slower, never wrong.
    """
    if not sim.mobiles or sim.mobiles.classes != {DknnMobileNode}:
        return None
    return DknnWakeupPlanner(sim)
