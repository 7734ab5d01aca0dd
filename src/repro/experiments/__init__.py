"""Experiment harness: algorithm registry, runner, tables, experiments.

``EXPERIMENTS`` maps an id (``"E1"``...) to its ``registry.Sweep``
record; ``run_experiment`` is the one loop that executes any of them.
"""

from repro.experiments.algorithms import ALGORITHMS, build_system
from repro.experiments.catalog import CENTRALIZED, DISTRIBUTED
from repro.experiments.config import RunConfig
from repro.experiments.registry import (
    DEFAULT_SPEC,
    EXPERIMENTS,
    QUICK_SPEC,
    run_experiment,
)
from repro.experiments.runner import Measurement, run_once
from repro.experiments.tables import ResultTable

__all__ = [
    "ALGORITHMS",
    "RunConfig",
    "build_system",
    "DISTRIBUTED",
    "CENTRALIZED",
    "Measurement",
    "run_once",
    "ResultTable",
    "EXPERIMENTS",
    "run_experiment",
    "DEFAULT_SPEC",
    "QUICK_SPEC",
]
