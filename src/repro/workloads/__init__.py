"""Workloads: declarative specs and generators."""

from repro.workloads.generator import build_workload, make_mobility_model
from repro.workloads.spec import MOBILITY_MODELS, WorkloadSpec

__all__ = [
    "WorkloadSpec",
    "MOBILITY_MODELS",
    "build_workload",
    "make_mobility_model",
]
