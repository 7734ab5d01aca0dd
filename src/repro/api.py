"""The stable, supported surface of the reproduction — import from here.

``repro.api`` is the compatibility contract of this package and its
only facade: everything in its ``__all__`` is supported across
releases, while internal module paths (``repro.core.server``,
``repro.experiments.algorithms``, ...) may move without notice, and
the bare ``repro`` package exports nothing but ``__version__``.
Examples, experiment scripts, and downstream users should import from
this module only::

    from repro.api import RunConfig, ShardConfig, WorkloadSpec, run_once

    spec = WorkloadSpec(n_objects=500, n_queries=4, k=8,
                        ticks=60, warmup_ticks=10, seed=7)
    m = run_once(RunConfig("DKNN-B", shard=ShardConfig(shards=2)), spec)
    print(m.as_row())

``EXPERIMENTS[id]`` is a ``Sweep`` record (``about``, ``columns``,
``cases(quick)``, ``expect``; see :mod:`repro.experiments.registry`)
and ``run_experiment(id)`` runs one into a ``ResultTable``.

The groups below mirror the library's layers: the typed entry points
(``RunConfig`` / ``build_system`` / ``run_once``), the algorithm
catalog, workloads and mobility, direct system builders for scripted
scenarios, the sharded server tier, faults, observability, and the
measurement/analysis helpers the examples use.
"""

from __future__ import annotations

from repro.analysis import (
    centralized_messages_per_tick,
    crossover_queries,
    dead_reckoning_rate,
    dknn_b_messages_per_repair,
    expected_knn_distance,
    expected_rank_gap,
    object_density,
    query_repair_rate,
)
from repro.core import (
    BroadcastParams,
    DknnParams,
    build_dknn_system,
)
from repro.core.broadcast_variant import build_broadcast_system
from repro.core.geocast_variant import GeocastParams, build_geocast_system
from repro.core.range_monitor import RangeQuerySpec, build_range_system
from repro.baselines import (
    build_cpm_system,
    build_periodic_system,
    build_seacnn_system,
)
from repro.errors import ConfigError, ExperimentError, ReproError
from repro.experiments import (
    ALGORITHMS,
    EXPERIMENTS,
    Measurement,
    ResultTable,
    RunConfig,
    build_system,
    run_experiment,
    run_once,
)
from repro.geometry import Rect
from repro.index import brute_knn, brute_knn_ids, brute_range
from repro.metrics import AccuracyTracker, CostMeter, is_valid_knn
from repro.mobility import (
    Fleet,
    GaussianClusterModel,
    HotspotDriftModel,
    MostlyStationaryModel,
    RandomDirectionModel,
    RandomWaypointModel,
    RoadNetworkModel,
)
from repro.net import (
    CommStats,
    EngineConfig,
    FaultPlan,
    RoundSimulator,
    ShardFaultPlan,
    engine_attach,
)
from repro.net.chaos import (
    ChaosResult,
    chaos_plans,
    default_checkers,
    run_chaos,
)
from repro.obs import Telemetry, use_telemetry
from repro.server import (
    AdmissionPolicy,
    DurabilityManager,
    QuerySpec,
    RebalancePolicy,
    ShardConfig,
    ShardedServer,
    ShardRouter,
    ShardStats,
    shard_attach,
)
from repro.viz import render_query, render_world
from repro.workloads import MOBILITY_MODELS, WorkloadSpec, build_workload

__all__ = [
    # entry points
    "RunConfig",
    "build_system",
    "run_once",
    "run_experiment",
    "Measurement",
    "ResultTable",
    "ALGORITHMS",
    "EXPERIMENTS",
    # errors
    "ReproError",
    "ExperimentError",
    "ConfigError",
    # workloads & mobility
    "WorkloadSpec",
    "MOBILITY_MODELS",
    "build_workload",
    "Fleet",
    "RandomWaypointModel",
    "RandomDirectionModel",
    "GaussianClusterModel",
    "HotspotDriftModel",
    "MostlyStationaryModel",
    "RoadNetworkModel",
    # geometry & queries
    "Rect",
    "QuerySpec",
    "RangeQuerySpec",
    # direct system builders (scripted scenarios)
    "DknnParams",
    "BroadcastParams",
    "GeocastParams",
    "build_dknn_system",
    "build_broadcast_system",
    "build_geocast_system",
    "build_periodic_system",
    "build_seacnn_system",
    "build_cpm_system",
    "build_range_system",
    # sharded server tier
    "ShardConfig",
    "RebalancePolicy",
    "AdmissionPolicy",
    "ShardRouter",
    "ShardStats",
    "ShardedServer",
    "shard_attach",
    "DurabilityManager",
    # network & faults
    "RoundSimulator",
    "CommStats",
    "FaultPlan",
    "ShardFaultPlan",
    # event engine
    "EngineConfig",
    "engine_attach",
    # chaos harness
    "run_chaos",
    "chaos_plans",
    "default_checkers",
    "ChaosResult",
    # observability
    "Telemetry",
    "use_telemetry",
    # ground truth & accuracy
    "brute_knn",
    "brute_knn_ids",
    "brute_range",
    "is_valid_knn",
    "AccuracyTracker",
    "CostMeter",
    # analytical models
    "object_density",
    "expected_knn_distance",
    "expected_rank_gap",
    "dead_reckoning_rate",
    "query_repair_rate",
    "centralized_messages_per_tick",
    "dknn_b_messages_per_repair",
    "crossover_queries",
    # visualization
    "render_world",
    "render_query",
]
