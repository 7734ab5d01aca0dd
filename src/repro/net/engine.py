"""The engine driver: every tick goes through it, and it skips the
ticks it observes to be still.

A full round (:meth:`~repro.net.simulator.RoundSimulator._round`)
charges every component. At scale most ticks are silent: nothing
moved, no node's drift or band predicate trips, no message is in
flight, the server owes nothing. The DKNN protocol lets an object stay
silent while its own predicate holds, so such a tick is a no-op the
simulator can *observe* after ground truth has advanced
(``fleet.advance`` runs every tick, keeping positions and the mobility
RNG stream bit-identical to tick mode). With an engine attached, the
rest of the tick — the client phase, the delivery machinery and the
server hooks — is skipped only when all of these hold:

* the **fleet** says no kernel moved an object this tick
  (:meth:`~repro.mobility.soa.FastFleet.moved`, one question per
  kernel);
* the **channel** is idle: any queued, delayed or held flight
  (including one-tick-latency deliveries and FaultyChannel delays)
  forces a full tick;
* the **client phase** has no candidate (``client_phase.idle()``): it
  evaluates what changed since its last evaluation, and the candidates
  it finds feed the full tick;
* the **server** is idle: ``server.event_idle(tick)`` — conservatively
  False on the base class, overridden by engines that can prove their
  per-tick hooks are no-ops (see ``DknnServer`` and ``ShardedServer``).

Only a client phase that ``observes_stillness`` lets the driver skip:
DKNN-P's over a fast fleet. A hardened build, whose nodes run clocks
that may fire on any tick, a scalar fleet, the baselines and a build
without a client phase run every tick in full. Tick mode is the driver
that never skips.

**Equivalence contract** (DESIGN §8): in ``event`` mode, answers,
message streams and RNG draws are identical to ``tick`` mode at every
tick boundary, because a tick is only skipped when the tick-mode run
would send nothing and change no protocol state on it. What *does*
differ is cadence-bound observability: per-tick planner charges in the
CostMeter, per-tick traces and gauges are only produced on full ticks.

Configured through the frozen :class:`EngineConfig`, carried by
``RunConfig(engine=...)`` — mirroring the ``ShardConfig`` pattern —
and installed by ``build_system``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.errors import ConfigError

__all__ = [
    "ENGINE_MODES",
    "EngineConfig",
    "EventDriver",
]

ENGINE_MODES = ("tick", "event")


@dataclass(frozen=True)
class EngineConfig:
    """How the simulation loop is driven.

    Attributes
    ----------
    mode:
        ``"event"`` (the default) skips the ticks it observes to be
        still; ``"tick"`` is the driver that never skips, bit-identical
        to not passing an engine at all. Answers and message streams
        are identical between the two at every tick boundary (the
        pinned equivalence contract, DESIGN §8).
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


class EventDriver:
    """The driver every tick of a :class:`RoundSimulator` goes through.

    The simulator advances the fleet, then asks :meth:`can_skip` and
    calls either :meth:`skip_tick` or, after a full round,
    :meth:`after_full_step`. Without a client phase that observes
    stillness (tick mode, or nothing to observe with) it never skips.
    """

    def __init__(self, sim, config: EngineConfig) -> None:
        self.sim = sim
        self.config = config
        self.skipped_ticks = 0
        self.full_ticks = 0
        phase = sim.client_phase
        self.skipping = (
            config.mode == "event"
            and phase is not None
            and phase.observes_stillness
        )

    def can_skip(self, tick: int) -> bool:
        """True if ``tick``, its fleet advanced, is observably still."""
        if not self.skipping:
            return False
        sim = self.sim
        return (
            not sim.fleet.moved()
            and sim.channel.idle()
            and sim.client_phase.idle()
            and sim.server.event_idle(tick)
        )

    def skip_tick(self) -> None:
        """Count a tick whose protocol round did not run."""
        self.skipped_ticks += 1

    def after_full_step(self) -> None:
        """Count a tick that ran in full."""
        self.full_ticks += 1

    def stats(self) -> Dict[str, Any]:
        """The engine gauge rendered by ``summarize``."""
        return {
            "mode": self.config.mode,
            "skipping": self.skipping,
            "skipped_ticks": self.skipped_ticks,
            "full_ticks": self.full_ticks,
        }
