"""The typed run configuration: one frozen object per run.

:class:`RunConfig` replaces the loose ``(algorithm, latency,
record_history, faults=..., **params)`` kwarg soup that
``build_system`` and ``run_once`` used to take. It validates eagerly —
unknown algorithms and mistyped parameter names fail at construction,
with a near-miss suggestion — and it is hashable/immutable, so a config
can be reused across runs, stored in a manifest, or keyed in a dict.

The legacy string-algorithm call forms were removed in the sharding
release; ``build_system`` / ``run_once`` raise an
:class:`~repro.errors.ExperimentError` naming the migration when they
see one. The deprecated ``shards=``/``shard_faults=`` kwargs were
retired in the engine release: passing either raises a
:class:`~repro.errors.ConfigError` naming the ``shard=ShardConfig(...)``
replacement. ``fast=`` is retired too: there is one build, so
``fast=True`` is accepted and dropped and any other value raises
(:func:`~repro.workloads.generator.accepts_retired_fast`). Import the
supported surface from :mod:`repro.api`.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigError, ExperimentError
from repro.experiments.catalog import CATALOG, suggest_name
from repro.net.engine import EngineConfig
from repro.net.faults import FaultPlan
from repro.net.simulator import ONE_TICK_LATENCY, ZERO_LATENCY
from repro.server.config import ShardConfig
from repro.workloads.generator import accepts_retired_fast

__all__ = ["RunConfig"]

_LATENCIES = (ZERO_LATENCY, ONE_TICK_LATENCY)

_RETIRED_SHARD_KWARGS = ("shards", "shard_faults")

_RETIRED_SHARD_KWARGS_MSG = (
    "RunConfig no longer accepts {names}; pass "
    "shard=ShardConfig(shards=..., faults=...) instead (see README, "
    '"Configuring the shard tier")'
)


@dataclass(frozen=True)
class RunConfig:
    """Everything that defines one run, minus the workload itself.

    Attributes
    ----------
    algorithm:
        Registered algorithm name (``repro.experiments.catalog``).
    latency:
        ``"zero"`` or ``"one_tick"``.
    record_history:
        Keep per-tick answer history on the server.
    faults:
        Optional :class:`~repro.net.faults.FaultPlan`.
    warmup, ticks:
        Optional overrides of the workload spec's ``warmup_ticks`` /
        ``ticks`` — ``run_once`` applies them via ``spec.but(...)``.
    shard:
        Optional :class:`~repro.server.config.ShardConfig` — the
        canonical shard-tier configuration (shard count, rebalance
        policy, admission policy, fault plan, durability cadence).
        ``None`` (the default) runs the plain single server;
        ``ShardConfig(shards=S)`` wraps the server in the sharded tier
        (:mod:`repro.server.sharding`) over an S x S grid — per-tick
        answers stay bit-identical; the run additionally reports
        per-shard load, handoffs, and backbone traffic.
    engine:
        Optional :class:`~repro.net.engine.EngineConfig` — how the
        loop is driven. ``None`` (the default) runs every tick in
        full, as ``mode="tick"`` does; ``EngineConfig(mode="event")`` skips
        the ticks it observes to be still (answers stay identical at
        every tick boundary, DESIGN §8).
    params:
        Per-algorithm parameters; names validated against the catalog.
    """

    algorithm: str
    latency: str = ZERO_LATENCY
    record_history: bool = False
    faults: Optional[FaultPlan] = None
    warmup: Optional[int] = None
    ticks: Optional[int] = None
    shard: Optional[ShardConfig] = None
    engine: Optional[EngineConfig] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        info = CATALOG.get(self.algorithm)
        if info is None:
            hint = suggest_name(self.algorithm, CATALOG)
            raise ExperimentError(
                f"unknown algorithm {self.algorithm!r}; expected one of "
                f"{sorted(CATALOG)}"
                + (f" (did you mean {hint!r}?)" if hint else "")
            )
        if self.latency not in _LATENCIES:
            raise ExperimentError(
                f"unknown latency mode {self.latency!r}; "
                f"expected one of {_LATENCIES}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ExperimentError(
                f"faults must be a FaultPlan, got {self.faults!r}"
            )
        for bound, name in ((self.warmup, "warmup"), (self.ticks, "ticks")):
            if bound is not None and bound < 0:
                raise ExperimentError(f"negative {name} {bound}")
        if self.shard is not None and not isinstance(self.shard, ShardConfig):
            raise ConfigError(
                f"shard must be a ShardConfig or None, got {self.shard!r}"
            )
        if self.engine is not None and not isinstance(
            self.engine, EngineConfig
        ):
            raise ConfigError(
                f"engine must be an EngineConfig or None, got {self.engine!r}"
            )
        unknown = set(self.params) - set(info.params)
        if unknown:
            hints = []
            for wrong in sorted(unknown):
                hint = suggest_name(wrong, info.params)
                hints.append(
                    wrong + (f" (did you mean {hint!r}?)" if hint else "")
                )
            raise ExperimentError(
                f"{self.algorithm} got unknown parameters: "
                + ", ".join(hints)
                + f"; valid: {sorted(info.params)}"
            )
        # Freeze the mapping so the config is safely shareable.
        object.__setattr__(
            self, "params", MappingProxyType(dict(self.params))
        )

    # -- derived views -------------------------------------------------------

    @property
    def info(self):
        return CATALOG[self.algorithm]

    def resolved_params(self) -> Dict[str, Any]:
        """Catalog defaults overlaid with this config's params."""
        resolved = self.info.param_defaults
        resolved.update(self.params)
        return resolved

    def but(self, **changes: Any) -> "RunConfig":
        """A copy with ``changes`` applied (validated afresh)."""
        retired = [k for k in _RETIRED_SHARD_KWARGS if k in changes]
        if retired:
            raise ConfigError(
                _RETIRED_SHARD_KWARGS_MSG.format(
                    names=", ".join(f"{k}=" for k in retired)
                )
            )
        if "params" in changes and changes["params"] is not None:
            changes["params"] = dict(changes["params"])
        else:
            changes.setdefault("params", dict(self.params))
        return dataclasses.replace(self, **changes)

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for manifests and run.start events."""
        return {
            "algorithm": self.algorithm,
            "latency": self.latency,
            "record_history": self.record_history,
            "faults": repr(self.faults) if self.faults is not None else None,
            "warmup": self.warmup,
            "ticks": self.ticks,
            "shard": (
                self.shard.describe() if self.shard is not None else None
            ),
            "engine": (
                self.engine.describe() if self.engine is not None else None
            ),
            "params": dict(self.params),
            "resolved_params": self.resolved_params(),
        }

    def __hash__(self) -> int:
        return hash(
            (
                self.algorithm,
                self.latency,
                self.record_history,
                self.warmup,
                self.ticks,
                self.shard,
                self.engine,
                tuple(sorted(self.params.items())),
                id(self.faults) if self.faults is not None else None,
            )
        )


def _reject_retired_kwargs(init):
    """Make the retired ``shards=``/``shard_faults=`` kwargs fail loudly.

    The deprecation shim is gone; a stale caller now gets a
    :class:`ConfigError` naming the exact replacement instead of a
    ``TypeError`` about an unexpected keyword. ``functools.wraps``
    preserves the dataclass ``__init__`` signature for introspection
    (``tests/test_api_surface.py`` pins it).
    """

    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        retired = [k for k in _RETIRED_SHARD_KWARGS if k in kwargs]
        if retired:
            raise ConfigError(
                _RETIRED_SHARD_KWARGS_MSG.format(
                    names=", ".join(f"{k}=" for k in retired)
                )
            )
        init(self, *args, **kwargs)

    return wrapper


RunConfig.__init__ = _reject_retired_kwargs(
    accepts_retired_fast(RunConfig.__init__)
)
