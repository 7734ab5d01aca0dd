"""Spatial index substrate: uniform grid, kNN/range search, oracles."""

from repro.index.bruteforce import brute_knn, brute_knn_ids, brute_range
from repro.index.grid import UniformGrid
from repro.index.knn import (
    NeighborList, knn_search_many, range_search_many, range_search_written,
)

__all__ = [
    "UniformGrid",
    "knn_search_many",
    "range_search_many",
    "range_search_written",
    "NeighborList",
    "brute_knn",
    "brute_knn_ids",
    "brute_range",
]
