"""The event-scheduled engine: skip ticks that are provable no-ops.

The synchronous loop (:class:`~repro.net.simulator.RoundSimulator`)
charges every component on every tick. At scale most ticks are silent:
nobody's drift or band predicate trips, no message is in flight, the
server owes no timer. This module adds an :class:`EventDriver` that
sits next to the simulator and, before each tick, decides whether the
tick can be *skipped* — ground truth still advances (``fleet.advance``
runs every tick, keeping positions and the mobility RNG stream
bit-identical to tick mode), but the O(N) client phase, the delivery
machinery and the server hooks are elided.

The decision combines three sources:

* a **wakeup heap** over the mobile nodes, fed by the closed-form
  crossing claims (:mod:`repro.mobility.crossing`) plus the protocol
  timers (lease heartbeats, violation retries). Entries are *acts*
  (the tick must run in full) or *re-solves* (a claim horizon expired
  — waypoint arrival, pause end, leg renewal; recompute cheaply during
  the skip, no full tick needed);
* the **channel**: any queued, delayed or held flight (including
  one-tick-latency deliveries and FaultyChannel delays) forces a full
  tick;
* the **server**: ``server.event_idle(tick)`` — conservatively False on
  the base class, overridden by engines that can prove their per-tick
  hooks are no-ops (see ``DknnServer`` and ``ShardedServer``).

**Equivalence contract** (DESIGN §15): in ``event`` mode, answers,
message streams and RNG draws are identical to ``tick`` mode at every
tick boundary, because a tick is only skipped when the tick-mode run
would provably send nothing and change no protocol state on it. What
*does* differ is cadence-bound observability: per-tick planner charges
in the CostMeter, per-tick traces and gauges are only produced on full
ticks.

Configured through the frozen :class:`EngineConfig`, carried by
``RunConfig(engine=...)`` — mirroring the ``ShardConfig`` pattern —
and attached with :func:`engine_attach`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "ENGINE_MODES",
    "EngineConfig",
    "EventDriver",
    "engine_attach",
]

ENGINE_MODES = ("tick", "event")


@dataclass(frozen=True)
class EngineConfig:
    """How the simulation loop is driven.

    Attributes
    ----------
    mode:
        ``"event"`` (the default) skips provably-empty ticks via the
        wakeup heap; ``"tick"`` is the synchronous compatibility mode,
        bit-identical to not passing an engine at all. Answers and
        message streams are identical between the two at every tick
        boundary (the pinned equivalence contract, DESIGN §15).
    """

    mode: str = "event"

    def __post_init__(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise ConfigError(
                f"unknown engine mode {self.mode!r}; "
                f"expected one of {ENGINE_MODES}"
            )

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for manifests and run.start events."""
        return {"mode": self.mode}


_ACT = 0
_RESOLVE = 1


class EventDriver:
    """Wakeup bookkeeping for one simulator.

    Installed by :func:`engine_attach`; the simulator consults
    :meth:`can_skip` before each tick and calls either
    :meth:`skip_tick` or (after a full round) :meth:`after_full_step`.

    Every mobile has at most one live heap entry — its next act or
    re-solve tick. Entries are invalidated lazily (the ``_entry`` map
    is authoritative; stale heap rows are dropped when popped). The
    opening tick, on which every mobile acts, is one state instead of
    a row per node, drained by the first :meth:`after_full_step`. Acts
    are recomputed when they fire, when the node receives a message
    (the simulator reports receivers via :meth:`note_node` /
    :meth:`note_ids`), and after every full tick a node was due on —
    all the nodes due on a tick in one ``planner.wakeups`` call.
    """

    def __init__(self, sim, config: EngineConfig) -> None:
        self.sim = sim
        self.config = config
        #: events pushed / entries that actually fired / entries
        #: superseded before firing — the summarize gauge.
        self.scheduled = 0
        self.fired = 0
        self.cancelled = 0
        self.skipped_ticks = 0
        self.full_ticks = 0
        self._acts: List[Tuple[int, int]] = []
        self._resolves: List[Tuple[int, int]] = []
        self._entry: Dict[int, Tuple[int, int]] = {}
        self._touched: Set[int] = set()
        #: the tick every mobile acts on, until it has run: everyone
        #: must register with the server first, so it is a full one for
        #: the whole fleet. None once drained.
        self._opening: Optional[int] = None
        self.planner = None
        if config.mode == "event":
            from repro.core.wakeups import planner_for

            self.planner = planner_for(sim)
            if self.planner is not None:
                self._opening = sim.tick + 1
                self.scheduled = len(sim.mobiles)

    # -- heap bookkeeping --------------------------------------------------

    def _schedule(self, oid: int, tick: int, kind: int) -> None:
        cur = self._entry.get(oid)
        if cur is not None:
            if cur == (tick, kind):
                return
            self.cancelled += 1
        self._entry[oid] = (tick, kind)
        heap = self._acts if kind == _ACT else self._resolves
        heappush(heap, (tick, oid))
        self.scheduled += 1

    def _next_act(self) -> Optional[int]:
        if self._opening is not None:
            return self._opening  # nothing is scheduled before it
        acts = self._acts
        entry = self._entry
        while acts:
            tick, oid = acts[0]
            if entry.get(oid) == (tick, _ACT):
                return tick
            heappop(acts)  # stale row, superseded
        return None

    def _replan(self, due: np.ndarray, tick: int) -> None:
        """Recompute the wakeups of ``due`` (repeats allowed), in
        ascending oid order."""
        if not due.shape[0]:
            return
        oids = np.unique(due)
        acts, resolves = self.planner.wakeups(oids, tick)
        entry = self._entry
        for oid, act, resolve in zip(
            oids.tolist(), acts.tolist(), resolves.tolist()
        ):
            if act >= 0:
                self._schedule(oid, act, _ACT)
            elif resolve >= 0:
                self._schedule(oid, resolve, _RESOLVE)
            elif entry.pop(oid, None) is not None:
                self.cancelled += 1

    # -- simulator hooks ---------------------------------------------------

    # reach: a scalar dispatch in event mode; fault-free DKNN-P makes
    # none, and no quick sweep runs event mode with another algorithm,
    # a fault plan or fault-tolerant DKNN-P
    def note_node(self, oid: int) -> None:
        """A mobile received a scalar message this tick."""
        if self.planner is not None:
            self._touched.add(oid)

    def note_ids(self, oids: np.ndarray) -> None:
        """Mobiles received a columnar downlink batch this tick."""
        if self.planner is not None:
            self._touched.update(oids.tolist())

    def can_skip(self, next_tick: int) -> bool:
        """True if ``next_tick`` is provably a protocol no-op."""
        if self.planner is None:
            return False
        next_act = self._next_act()
        if next_act is not None and next_act <= next_tick:
            return False
        sim = self.sim
        if not sim.channel.idle():
            return False
        return sim.server.event_idle(next_tick)

    def skip_tick(self) -> None:
        """Advance ground truth only; process due re-solves."""
        sim = self.sim
        sim.fleet.advance()
        sim.tick = sim.fleet.tick
        sim.channel.begin_tick(sim.tick)
        tick = sim.tick
        resolves = self._resolves
        entry = self._entry
        due: List[int] = []
        while resolves and resolves[0][0] <= tick:
            t, oid = heappop(resolves)
            if entry.get(oid) != (t, _RESOLVE):
                continue  # stale row, superseded
            del entry[oid]
            self.fired += 1
            due.append(oid)
        self._replan(np.array(due, dtype=np.int64), tick)
        self.skipped_ticks += 1

    def after_full_step(self) -> None:
        """Refresh wakeups after a full round ran."""
        sim = self.sim
        tick = sim.tick
        self.full_ticks += 1
        if self.planner is not None:
            due = list(self._touched)
            for heap, kind in (
                (self._acts, _ACT),
                (self._resolves, _RESOLVE),
            ):
                entry = self._entry
                while heap and heap[0][0] <= tick:
                    t, oid = heappop(heap)
                    if entry.get(oid) == (t, kind):
                        del entry[oid]
                        self.fired += 1
                        due.append(oid)
            oids = np.array(due, dtype=np.int64)
            if self._opening is not None:
                everyone = sim.mobiles.oids()
                self.fired += everyone.shape[0]
                oids = np.concatenate((everyone, oids))
                self._opening = None
            self._replan(oids, tick)
        self._touched.clear()

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The event-queue gauge rendered by ``summarize``."""
        return {
            "mode": self.config.mode,
            "skipping": self.planner is not None,
            "scheduled": self.scheduled,
            "fired": self.fired,
            "cancelled": self.cancelled,
            "pending": len(self._entry)
            + (len(self.sim.mobiles) if self._opening is not None else 0),
            "skipped_ticks": self.skipped_ticks,
            "full_ticks": self.full_ticks,
        }


def engine_attach(sim, config: EngineConfig):
    """Install an :class:`EventDriver` on ``sim`` per ``config``.

    The canonical path is ``RunConfig(engine=EngineConfig(...))`` —
    ``build_system`` calls this; scripted scenarios may call it
    directly on a hand-built :class:`RoundSimulator`, mirroring
    ``shard_attach``. Returns ``sim``.
    """
    if not isinstance(config, EngineConfig):
        raise ConfigError(
            f"engine must be an EngineConfig, got {config!r}"
        )
    if getattr(sim, "_driver", None) is not None:
        raise ConfigError("simulator already has an engine driver attached")
    if sim.tick != 0:
        raise ConfigError(
            "engine_attach must run before the first tick "
            f"(simulator is at tick {sim.tick})"
        )
    sim._driver = EventDriver(sim, config)
    return sim
