"""The engine driver: every tick goes through it, and it skips the
ticks that are provable no-ops.

A full round (:meth:`~repro.net.simulator.RoundSimulator._full_step`)
charges every component. At scale most ticks are silent: nobody's
drift or band predicate trips, no message is in flight, the server
owes no timer. Every simulator steps through an :class:`EventDriver`
that, before each tick, decides whether the tick can be *skipped* —
ground truth still advances (``fleet.advance`` runs every tick,
keeping positions and the mobility RNG stream bit-identical to tick
mode), but the O(N) client phase, the delivery machinery and the
server hooks are elided. Tick mode is the driver that never skips.

The decision combines three sources:

* a **tick wheel** over the mobile nodes: oid columns hold each node's
  one wakeup, fed by the closed-form crossing claims
  (:mod:`repro.mobility.crossing`) plus the protocol timers (lease
  heartbeats, violation retries). Wakeups are *acts* (the tick must run
  in full) or *re-solves* (a claim horizon expired — waypoint arrival,
  pause end, leg renewal; recompute cheaply during the skip, no full
  tick needed);
* the **channel**: any queued, delayed or held flight (including
  one-tick-latency deliveries and FaultyChannel delays) forces a full
  tick;
* the **server**: ``server.event_idle(tick)`` — conservatively False on
  the base class, overridden by engines that can prove their per-tick
  hooks are no-ops (see ``DknnServer`` and ``ShardedServer``).

**Equivalence contract** (DESIGN §8): in ``event`` mode, answers,
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
from typing import Any, Dict, List, Sequence, Tuple

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
        tick wheel; ``"tick"`` is the driver that never skips,
        bit-identical to not passing an engine at all. Answers and
        message streams are identical between the two at every tick
        boundary (the pinned equivalence contract, DESIGN §8).
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


_NO_OIDS = np.zeros(0, dtype=np.int64)


class EventDriver:
    """The driver every tick of a :class:`RoundSimulator` goes through.

    The simulator asks :meth:`can_skip` before each tick and calls
    either :meth:`skip_tick` or, after a full round,
    :meth:`after_full_step`. Without a planner (tick mode, or nothing
    to plan from) it never skips.

    Every mobile has at most one live wakeup, held in three oid columns:
    its tick (-1 for none), whether it is an act, and a generation that
    every rewrite bumps. The wheel maps a tick to the runs of ``(oids,
    generations)`` written for it; taking a slot (:meth:`_take`) drops
    the rows whose generation has moved on. A wakeup due at or before
    the tick it was planned on goes into the next tick's slot. The
    opening tick is a slot holding every mobile: each must register
    with the server first. Wakeups are recomputed when they fire, when
    the node receives a message (the simulator reports receivers via
    :meth:`note_node` / :meth:`note_ids`), and after every full tick a
    node was due on — all the nodes due on a tick in one
    ``planner.wakeups`` call and one column write.
    """

    def __init__(self, sim, config: EngineConfig) -> None:
        self.sim = sim
        self.config = config
        #: wakeups written / wakeups that fired / wakeups superseded
        #: or dropped before firing — the summarize gauge.
        self.scheduled = 0
        self.fired = 0
        self.cancelled = 0
        self.skipped_ticks = 0
        self.full_ticks = 0
        #: receivers since the last full tick: id columns of downlink
        #: batches and one-oid tuples of scalar dispatches
        self._touched: List[Sequence[int]] = []
        #: tick -> runs of ``(oids, generations)`` written for it
        self._wheel: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self.planner = None
        if config.mode == "event":
            from repro.core.wakeups import planner_for

            self.planner = planner_for(sim)
        if self.planner is None:
            return
        everyone = sim.mobiles.oids()
        n = int(everyone[-1]) + 1
        self._due = np.full(n, -1, dtype=np.int32)
        self._act = np.zeros(n, dtype=bool)
        self._gen = np.zeros(n, dtype=np.int32)
        self._due[everyone] = sim.tick + 1
        self._act[everyone] = True
        self._wheel[sim.tick + 1] = [(everyone, self._gen[everyone])]
        self.scheduled = everyone.shape[0]

    # -- the wheel ---------------------------------------------------------

    def _take(self, tick: int) -> np.ndarray:
        """Pop ``tick``'s slot; return the oids whose wakeup fires."""
        runs = self._wheel.pop(tick, None)
        if runs is None:
            return _NO_OIDS
        if len(runs) == 1:
            oids, gens = runs[0]
        else:
            oids, gens = map(np.concatenate, zip(*runs))
        fired = oids[self._gen[oids] == gens]
        self._due[fired] = -1
        self.fired += fired.shape[0]
        return fired

    def _replan(self, due: np.ndarray, tick: int) -> None:
        """Recompute the wakeups of ``due`` (repeats allowed) as of
        ``tick`` in one pass. Counting follows the per-oid rule: an
        identical (tick, kind) counts nothing, a replaced or dropped
        live wakeup one ``cancelled``, a new one one ``scheduled``."""
        if not due.shape[0]:
            return
        oids = np.unique(due)
        acts, resolves = self.planner.wakeups(oids, tick)
        act = acts >= 0
        at = np.where(act, acts, resolves)
        old = self._due[oids]
        moved = (old != at) | (self._act[oids] != act)
        ids = oids[moved]
        self.cancelled += int((old[moved] >= 0).sum())
        at = at[moved]
        self._due[ids] = at
        self._act[ids] = act[moved]
        self._gen[ids] += 1
        live = at >= 0
        ids = ids[live]
        if not ids.shape[0]:
            return
        self.scheduled += ids.shape[0]
        slot = np.maximum(at[live], tick + 1)
        order = slot.argsort(kind="stable")
        slot, ids = slot[order], ids[order]
        gens = self._gen[ids]
        # one run per distinct slot
        cuts = ((slot[1:] != slot[:-1]).nonzero()[0] + 1).tolist()
        starts, ends = [0, *cuts], [*cuts, ids.shape[0]]
        wheel = self._wheel
        for t, a, b in zip(slot[starts].tolist(), starts, ends):
            wheel.setdefault(t, []).append((ids[a:b], gens[a:b]))

    # -- simulator hooks ---------------------------------------------------

    def note_node(self, oid: int) -> None:
        """A mobile received a scalar message this tick."""
        if self.planner is not None:
            self._touched.append((oid,))

    def note_ids(self, oids: np.ndarray) -> None:
        """Mobiles received a columnar downlink batch this tick."""
        if self.planner is not None:
            self._touched.append(oids)

    def can_skip(self, next_tick: int) -> bool:
        """True if ``next_tick`` is provably a protocol no-op."""
        if self.planner is None:
            return False
        for oids, gens in self._wheel.get(next_tick, ()):
            if (self._act[oids] & (self._gen[oids] == gens)).any():
                return False  # a live act is due
        sim = self.sim
        return sim.channel.idle() and sim.server.event_idle(next_tick)

    def skip_tick(self) -> None:
        """Advance ground truth only; re-plan the re-solves due now."""
        sim = self.sim
        sim.fleet.advance()
        sim.tick = sim.fleet.tick
        sim.channel.begin_tick(sim.tick)
        self._replan(self._take(sim.tick), sim.tick)
        self.skipped_ticks += 1

    def after_full_step(self) -> None:
        """Re-plan the nodes due on, or touched by, the full round."""
        self.full_ticks += 1
        if self.planner is None:
            return
        tick = self.sim.tick
        touched, self._touched = self._touched, []
        self._replan(np.concatenate((self._take(tick), *touched)), tick)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The event-queue gauge rendered by ``summarize``."""
        return {
            "mode": self.config.mode,
            "skipping": self.planner is not None,
            "scheduled": self.scheduled,
            "fired": self.fired,
            "cancelled": self.cancelled,
            "pending": self.scheduled - self.fired - self.cancelled,
            "skipped_ticks": self.skipped_ticks,
            "full_ticks": self.full_ticks,
        }


def engine_attach(sim, config: EngineConfig):
    """Replace ``sim``'s tick-mode driver with one per ``config``.

    The canonical path is ``RunConfig(engine=EngineConfig(...))`` —
    ``build_system`` calls this; scripted scenarios may call it
    directly on a hand-built :class:`RoundSimulator`, mirroring
    ``shard_attach``. Returns ``sim``.
    """
    if not isinstance(config, EngineConfig):
        raise ConfigError(
            f"engine must be an EngineConfig, got {config!r}"
        )
    if sim._driver is not None:
        raise ConfigError("simulator already has an engine driver attached")
    if sim.tick != 0:
        raise ConfigError(
            "engine_attach must run before the first tick "
            f"(simulator is at tick {sim.tick})"
        )
    sim.driver = sim._driver = EventDriver(sim, config)
    return sim
