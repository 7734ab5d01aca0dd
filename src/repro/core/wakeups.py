"""Wakeup planning for DKNN mobiles under the event engine.

Maps the protocol state of the DKNN-P nodes — dead-reckoning origin,
installed safe regions, lease heartbeat and violation-retry timers —
onto the closed-form crossing claims of :mod:`repro.mobility.crossing`,
producing each node's next *act* tick (the tick must run in full: the
node would send, or mutate protocol state) or *re-solve* tick (a motion
claim horizon expired; recompute cheaply, no full tick needed).

The event engine re-plans all the nodes due on a tick through one call
of :meth:`DknnWakeupPlanner.wakeups`. The checks come from the
vectorized client phase's mirrors and region table, the motion from the
fast fleet's kernel columns, and one :func:`solve_claims` pass answers
for every node; the few nodes that run protocol timers then have them
folded in one by one.

Soundness contract (what ``tests/test_engine.py`` pins against the
node's own ``on_tick_start``, scanned tick by tick): the act tick is
**never later** than the first tick on which the node's
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
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.client import DknnMobileNode
from repro.core.fastpath import DknnSilentPhase
from repro.core.protocol import BAND_OUTSIDER
from repro.geometry.region import REGION_EPS
from repro.mobility.crossing import CheckRows, solve_claims

__all__ = ["DknnWakeupPlanner", "planner_for"]

#: Conservative relative bias on check radii: exit radii shrink by it,
#: enter radii grow by it, so float rounding can only make the solver
#: fire a tick early (a no-op full tick), never late (a missed report).
_RADIUS_BIAS = 1e-12
_EXIT_SCALE = (1.0 + REGION_EPS) * (1.0 - _RADIUS_BIAS)
_ENTER_SCALE = (1.0 - REGION_EPS) * (1.0 + _RADIUS_BIAS)
_THETA_SCALE = 1.0 - _RADIUS_BIAS


class DknnWakeupPlanner:
    """Computes per-node wakeups for one simulator's DKNN fleet.

    Reads the simulator's :class:`DknnSilentPhase` and its fleet's
    motion claims; :func:`planner_for` builds one only where both exist.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self._phase: DknnSilentPhase = sim.client_phase

    def wakeups(
        self, oids: np.ndarray, tick: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(act, resolve)`` absolute ticks of the nodes ``oids``
        (unique ids) as of ``tick``, as int64 arrays, -1 for unset.

        At most one of the two is set per node; neither means the node
        can stay asleep until a message touches it.
        """
        phase = self._phase
        phase.flush_touched()
        m = oids.shape[0]
        # A node that never transmitted reports next tick, whatever else.
        act = np.full(m, tick + 1, dtype=np.int64)
        resolve = np.full(m, -1, dtype=np.int64)
        at = np.nonzero(~np.isnan(phase._sent_x[oids]))[0]
        sent = oids[at]
        a, r = self._solve(sent)
        act[at] = np.where(a >= 0, tick + a, -1)
        resolve[at] = np.where(r >= 0, tick + r, -1)
        nodes = self.sim.mobiles
        timed = at[phase._attention[sent] & phase._timers[sent]]
        for i in timed.tolist():
            oid = int(oids[i])
            node = nodes[oid]
            phase._sync_node(oid)
            due = self._merge_timers(
                node, tick, int(act[i]) if act[i] >= 0 else None
            )
            # A timer past the motion claim's horizon waits for the
            # re-solve: by then the node may have moved and crossed first.
            if due is not None and (resolve[i] < 0 or due <= resolve[i]):
                act[i], resolve[i] = due, -1
            else:
                act[i] = -1
        return act, resolve

    def _solve(self, oids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Relative ``(act, resolve)`` delays of nodes that have
        transmitted before, from the phase mirrors and the kernel
        columns; protocol timers are left out."""
        phase = self._phase
        fleet = self.sim.fleet
        m = oids.shape[0]
        table = phase.regions
        rows, node = table.rows_of(oids)
        armed = ~table.muted[rows]
        rows, node = rows[armed], node[armed]
        kind = table.kind[rows]
        enter = kind == BAND_OUTSIDER
        # One drift check per node, then its armed region rows (a muted
        # one stays quiet until a repair re-installs or revokes it), the
        # radii biased toward firing early.
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
            fleet.motion_claims(oids), positions.xs[oids], positions.ys[oids],
            checks, fleet.max_speeds[oids],
        )
        # A region class without a row kind has no closed form: its
        # holder stays awake.
        unknown = node[kind < 0]
        act[unknown] = 1
        resolve[unknown] = -1
        return act, resolve

    # reach: event mode over fault-tolerant DKNN-P (lease heartbeats,
    # violation retries); no quick sweep runs that pair
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


# reach: only _merge_timers calls it
def _min_tick(a: Optional[int], b: int) -> int:
    return b if a is None or b < a else a


def planner_for(sim) -> Optional[DknnWakeupPlanner]:
    """A planner for ``sim``, or None when there is nothing to plan from.

    The planner reads a :class:`DknnSilentPhase` and a fleet with motion
    claims, and only plain :class:`DknnMobileNode` clients are
    plannable. The baselines, any node subclass with a different
    tick-start, a scalar ``Fleet`` and a hand-built system with no
    client phase get no planner, which makes the event engine run every
    tick in full: slower, never wrong.
    """
    if (
        not sim.mobiles
        or sim.mobiles.classes != {DknnMobileNode}
        or not isinstance(sim.client_phase, DknnSilentPhase)
        or not hasattr(sim.fleet, "motion_claims")
    ):
        return None
    return DknnWakeupPlanner(sim)
