"""Uniform construction interface over all six algorithms.

The first-class entry point is a :class:`~repro.experiments.config.
RunConfig`::

    cfg = RunConfig("DKNN-G", params={"lease_ticks": 12})
    sim = build_system(cfg, fleet, specs)

Parameter names and defaults come from the algorithm catalog
(:mod:`repro.experiments.catalog`); ``ALGORITHMS[name].param_defaults``
exposes them programmatically, and the table below is rendered from the
same data at import time:

{PARAM_TABLE}

Every config additionally carries ``faults`` (a
:class:`~repro.net.faults.FaultPlan`) to run over a lossy network
(only fault-tolerant DKNN-P actively heals around it), ``shard`` (a
:class:`~repro.server.config.ShardConfig`): wrap the server in the
S x S sharded tier (:mod:`repro.server.sharding`) — bit-identical
answers, with per-shard load/handoff/backbone accounting on top — and
``engine`` (an :class:`~repro.net.engine.EngineConfig`): skip the
ticks the event engine observes to be still.

``RunConfig`` is the only call form: anything else, the pre-1.0
algorithm string included, raises an
:class:`~repro.errors.ExperimentError`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.baselines import (
    build_cpm_system,
    build_periodic_system,
    build_seacnn_system,
)
from repro.core import BroadcastParams, DknnParams
from repro.core.broadcast_variant import build_broadcast_system
from repro.core.builder import build_dknn_system
from repro.core.geocast_variant import GeocastParams, build_geocast_system
from repro.errors import ExperimentError
from repro.experiments.catalog import (
    CATALOG,
    CENTRALIZED,
    DISTRIBUTED,
    render_param_table,
)
from repro.experiments.config import RunConfig
from repro.net.engine import EventDriver
from repro.net.simulator import RoundSimulator
from repro.obs.telemetry import Telemetry
from repro.server.query_table import QuerySpec
from repro.server.sharding import shard_attach

__all__ = ["ALGORITHMS", "build_system", "DISTRIBUTED", "CENTRALIZED"]

#: name -> AlgorithmInfo: the queryable algorithm surface. Iteration
#: order and membership match the buildable set below.
ALGORITHMS = CATALOG


def _common(cfg: RunConfig, telemetry: Optional[Telemetry]) -> Dict:
    return dict(
        latency=cfg.latency,
        record_history=cfg.record_history,
        faults=cfg.faults,
        telemetry=telemetry,
    )


def _build_dknn_p(fleet, specs, cfg, telemetry):
    p = cfg.resolved_params()
    dp = DknnParams(
        theta=p["theta"],
        s_cap=p["s_cap"],
        grid_cells=p["grid_cells"],
        incremental=p["incremental"],
        fault_tolerant=p["fault_tolerant"],
        ack_timeout=p["ack_timeout"],
        lease_ticks=p["lease_ticks"],
        violation_retry=p["violation_retry"],
    )
    return build_dknn_system(fleet, specs, dp, **_common(cfg, telemetry))


def _build_dknn_b(fleet, specs, cfg, telemetry):
    p = cfg.resolved_params()
    bp = BroadcastParams(
        s_cap=p["s_cap"],
        initial_collect_radius=p["initial_collect_radius"],
        collect_slack=p["collect_slack"],
    )
    return build_broadcast_system(fleet, specs, bp, **_common(cfg, telemetry))


def _build_dknn_g(fleet, specs, cfg, telemetry):
    p = cfg.resolved_params()
    gp = GeocastParams(
        s_cap=p["s_cap"],
        initial_collect_radius=p["initial_collect_radius"],
        collect_slack=p["collect_slack"],
        lease_ticks=p["lease_ticks"],
    )
    return build_geocast_system(fleet, specs, gp, **_common(cfg, telemetry))


def _build_per(fleet, specs, cfg, telemetry):
    p = cfg.resolved_params()
    return build_periodic_system(
        fleet,
        specs,
        grid_cells=p["grid_cells"],
        period=p["period"],
        **_common(cfg, telemetry),
    )


def _build_sea(fleet, specs, cfg, telemetry):
    p = cfg.resolved_params()
    return build_seacnn_system(
        fleet, specs, grid_cells=p["grid_cells"], **_common(cfg, telemetry)
    )


def _build_cpm(fleet, specs, cfg, telemetry):
    p = cfg.resolved_params()
    return build_cpm_system(
        fleet, specs, grid_cells=p["grid_cells"], **_common(cfg, telemetry)
    )


_BUILDERS: Dict[str, Callable[..., RoundSimulator]] = {
    "DKNN-P": _build_dknn_p,
    "DKNN-B": _build_dknn_b,
    "DKNN-G": _build_dknn_g,
    "PER": _build_per,
    "SEA": _build_sea,
    "CPM": _build_cpm,
}

assert set(_BUILDERS) == set(CATALOG), "catalog out of sync with builders"

def build_system(
    config: RunConfig,
    fleet,
    specs: Sequence[QuerySpec],
    telemetry: Optional[Telemetry] = None,
) -> RoundSimulator:
    """Build any registered algorithm from a :class:`RunConfig`.

    When ``config.shard`` is set, the built simulator's server is
    wrapped in the sharded tier before the simulator is returned; when
    ``config.engine`` is set, the event-engine driver is installed last
    (it reads the final client phase), as ``sim.driver`` and
    ``sim._driver``.
    """
    if not isinstance(config, RunConfig):
        raise ExperimentError(
            f"expected a RunConfig, got {config!r}"
        )
    sim = _BUILDERS[config.algorithm](fleet, list(specs), config, telemetry)
    if config.shard is not None:
        shard_attach(sim, config.shard)
    if config.engine is not None:
        sim.driver = sim._driver = EventDriver(sim, config.engine)
    return sim


# Render the parameter table from the catalog so the docs cannot drift.
if __doc__ is not None:  # -OO strips docstrings
    __doc__ = __doc__.replace("{PARAM_TABLE}", render_param_table())
