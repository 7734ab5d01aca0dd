"""Typed configuration for the sharded server tier.

:class:`ShardConfig` is the canonical way to configure the shard tier
(DESIGN.md §10–§14): shard count, the elastic-rebalancing policy, the
admission-control policy and the fault plan live in one frozen,
validated dataclass. Each behaviour has one switch: backbone loss,
delay and seed and the durability cadence are set on the
:class:`~repro.net.faults.ShardFaultPlan` only.
``RunConfig(shard=ShardConfig(...))`` and ``shard_attach(sim,
ShardConfig(...))`` both take it, and nothing else configures the tier.

Every validation failure raises :class:`~repro.errors.ConfigError` with a
message naming the offending field, so misconfiguration fails loudly at
construction time instead of deep inside a run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import ConfigError
from ..net.faults import ShardFaultPlan

__all__ = [
    "MAX_SHARDS_PER_SIDE",
    "RebalancePolicy",
    "AdmissionPolicy",
    "ShardConfig",
]

#: Upper bound on the shard-grid side (the tier is an SxS grid, so the
#: shard *count* tops out at ``MAX_SHARDS_PER_SIDE ** 2``).
MAX_SHARDS_PER_SIDE = 64


def _require_int(name: str, value: Any, minimum: int) -> int:
    """Validate an integer field, raising ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(
            f"{name} must be an int, got {type(value).__name__}: {value!r}"
        )
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class RebalancePolicy:
    """Knobs of the elastic shard-boundary rebalancer (DESIGN.md §14).

    The rebalancer overlays the static SxS shard grid with a finer cell
    grid (``cells_per_shard`` fine cells per shard side) and, every
    ``check_interval`` ticks, migrates the best-fitting hot cells from
    the most-loaded shard to the least-loaded one until the windowed
    peak/mean uplink imbalance falls under ``trigger``. All decisions
    are pure functions of the load window and ``seed``, so runs are
    deterministic and scalar/fast bit-identity is preserved.

    Fields
    ------
    check_interval:
        Ticks between rebalance cycles (also the load-window length).
    trigger:
        Peak-shard load threshold, as a multiple of the mean windowed
        per-shard load, below which no cells move.
    max_moves_per_cycle:
        Upper bound on cell migrations per rebalance cycle — the
        backpressure knob that keeps a cycle's handoff/migration burst
        bounded.
    cells_per_shard:
        Fine-grid subdivision: each shard cell is split into
        ``cells_per_shard x cells_per_shard`` migratable cells.
    min_window_uplinks:
        Ignore windows with fewer total uplinks than this (don't
        rebalance on noise during quiet periods).
    seed:
        Seed of the tie-break RNG used when several cells fit a move
        equally well.
    """

    check_interval: int = 10
    trigger: float = 1.5
    max_moves_per_cycle: int = 4
    cells_per_shard: int = 4
    min_window_uplinks: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        _require_int("rebalance.check_interval", self.check_interval, 1)
        _require_int(
            "rebalance.max_moves_per_cycle", self.max_moves_per_cycle, 1
        )
        _require_int("rebalance.cells_per_shard", self.cells_per_shard, 1)
        if self.cells_per_shard > 16:
            raise ConfigError(
                "rebalance.cells_per_shard must be <= 16, got "
                f"{self.cells_per_shard}"
            )
        _require_int(
            "rebalance.min_window_uplinks", self.min_window_uplinks, 0
        )
        _require_int("rebalance.seed", self.seed, 0)
        if not isinstance(self.trigger, (int, float)) or isinstance(
            self.trigger, bool
        ):
            raise ConfigError(
                "rebalance.trigger must be a number, got "
                f"{type(self.trigger).__name__}"
            )
        if self.trigger < 1.0:
            raise ConfigError(
                f"rebalance.trigger must be >= 1.0, got {self.trigger}"
            )

    def describe(self) -> Dict[str, Any]:
        """JSON-safe manifest form."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-shard ingestion thresholds (admission control / backpressure).

    Once a shard has accepted ``max_uplinks_per_tick`` uplinks in one
    tick, further query-carrying uplinks (repair traffic — the
    lowest-priority class) are deferred to the next tick (``defer=True``)
    or shed outright; at twice the threshold every further uplink is
    deferred/shed. The deferred queue holds at most
    ``2 * max_uplinks_per_tick`` uplinks per shard; overflow beyond it
    is shed. Deferred and shed answers are flagged through the E14/E16
    degraded-answer channel, so ``healthy_exactness`` stays honest
    under overload.

    A degraded window opened by a defer/shed closes when the answer is
    next republished, or after a settle bound, whichever comes first.
    The bound is 8 ticks on a tier without a fault plan; with a
    :class:`~repro.net.faults.ShardFaultPlan` installed it is the
    plan's ``recovery_settle_ticks``, for these windows too.

    Fields
    ------
    max_uplinks_per_tick:
        Per-shard accepted-uplink budget per tick.
    defer:
        Queue overflow uplinks for delivery at the next tick instead of
        dropping them immediately.
    """

    max_uplinks_per_tick: int
    defer: bool = True

    def __post_init__(self) -> None:
        _require_int(
            "admission.max_uplinks_per_tick", self.max_uplinks_per_tick, 1
        )
        if not isinstance(self.defer, bool):
            raise ConfigError(
                "admission.defer must be a bool, got "
                f"{type(self.defer).__name__}"
            )

    def describe(self) -> Dict[str, Any]:
        """JSON-safe manifest form."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ShardConfig:
    """Canonical configuration of the sharded server tier.

    Fields
    ------
    shards:
        Shards per grid side (the tier is ``shards x shards``); 1 means
        a single-shard tier (useful for ledger-overhead measurements).
    rebalance:
        Elastic-rebalancing policy, or ``None`` (static boundaries —
        the bit-identity-pinned default).
    admission:
        Admission-control policy, or ``None`` (accept everything).
    faults:
        Shard-tier fault plan, or ``None`` (a healthy backbone). Backbone
        loss, delay and seed and the durability cadence
        (``checkpoint_interval``, ``wal_replay_per_tick``) are its
        fields; a disabled plan is the same as ``None``.
    """

    shards: int = 1
    rebalance: Optional[RebalancePolicy] = None
    admission: Optional[AdmissionPolicy] = None
    faults: Optional[ShardFaultPlan] = None

    def __post_init__(self) -> None:
        _require_int("shards", self.shards, 1)
        if self.shards > MAX_SHARDS_PER_SIDE:
            raise ConfigError(
                f"shards must be in [1, {MAX_SHARDS_PER_SIDE}] shards per "
                f"grid side, got {self.shards}"
            )
        if self.rebalance is not None:
            if not isinstance(self.rebalance, RebalancePolicy):
                raise ConfigError(
                    "rebalance must be a RebalancePolicy or None, got "
                    f"{type(self.rebalance).__name__}"
                )
            if self.shards < 2:
                raise ConfigError(
                    "rebalance needs a multi-shard tier: got shards="
                    f"{self.shards}; a 1-shard grid has no boundary to move "
                    "(pass shards >= 2 or drop the rebalance policy)"
                )
        if self.admission is not None and not isinstance(
            self.admission, AdmissionPolicy
        ):
            raise ConfigError(
                "admission must be an AdmissionPolicy or None, got "
                f"{type(self.admission).__name__}"
            )
        if self.faults is not None:
            if not isinstance(self.faults, ShardFaultPlan):
                raise ConfigError(
                    "faults must be a ShardFaultPlan or None, got "
                    f"{type(self.faults).__name__}"
                )
            if self.faults.enabled and self.shards < 2:
                raise ConfigError(
                    "faults (ShardFaultPlan) needs a multi-shard tier: got "
                    f"shards={self.shards}; crash/partition plans are "
                    "meaningless on a single shard (pass shards >= 2 or "
                    "drop the fault plan)"
                )
            if (
                self.admission is not None
                and self.faults.shed_uplinks_per_tick is not None
            ):
                raise ConfigError(
                    "admission and faults.shed_uplinks_per_tick are both "
                    "set: pick one admission controller — the typed "
                    "AdmissionPolicy or the fault plan's shed threshold"
                )

    def describe(self) -> Dict[str, Any]:
        """JSON-safe manifest form (mirrors RunConfig.describe)."""
        return {
            "shards": self.shards,
            "rebalance": (
                None if self.rebalance is None else self.rebalance.describe()
            ),
            "admission": (
                None if self.admission is None else self.admission.describe()
            ),
            "faults": None if self.faults is None else repr(self.faults),
        }
