"""Closed-form cost models for the protocols (the paper's analysis
section), validated empirically by ``tests/test_analysis.py``.

All models are first-order: uniform object density, independent motion,
Poisson-like spatial statistics. They predict *rates per tick* and are
accurate to small constant factors (the validation tests assert
agreement within a factor of ~2 at default workloads — the level of
fidelity such back-of-envelope sections claim).
"""

from __future__ import annotations

import math

from repro.errors import ReproError

__all__ = [
    "object_density",
    "expected_knn_distance",
    "expected_rank_gap",
    "dead_reckoning_rate",
    "query_repair_rate",
    "centralized_messages_per_tick",
    "dknn_b_messages_per_repair",
    "crossover_queries",
]


def object_density(n: int, universe_size: float) -> float:
    """Objects per unit area in a square universe."""
    if n < 1 or universe_size <= 0:
        raise ReproError("need n >= 1 and a positive universe")
    return n / (universe_size * universe_size)


def expected_knn_distance(k: int, density: float) -> float:
    """E[d_k]: distance to the k-th nearest neighbor under uniformity.

    For a homogeneous Poisson process of intensity ``rho``, the k-th
    neighbor lies where the disk around the query holds k points:
    ``pi * d^2 * rho = k``, giving ``d = sqrt(k / (pi * rho))``.
    """
    if k < 1 or density <= 0:
        raise ReproError("need k >= 1 and positive density")
    return math.sqrt(k / (math.pi * density))


def expected_rank_gap(k: int, density: float) -> float:
    """E[d_{k+1} - d_k]: the margin the threshold bands live in.

    Differentiating ``k = pi d^2 rho``: ``dk = 2 pi d rho * dd``, so one
    rank of spacing is ``1 / (2 pi d_k rho)``. This is the *budget* for
    the safe margin ``s_eff`` — the reason distributed monitoring gets
    chatty at high density (the gap shrinks as ``1/sqrt(N k)``).
    """
    d_k = expected_knn_distance(k, density)
    return 1.0 / (2.0 * math.pi * d_k * density)


# reach: EXPERIMENTS.md's E3 discussion cites it as the predicted update
# rate; no example or sweep computes it
def dead_reckoning_rate(mean_speed: float, theta: float) -> float:
    """Expected LOCATION_UPDATE rate per object per tick.

    An object traveling near-straight drifts ``mean_speed`` per tick
    and reports each time accumulated drift exceeds ``theta``, i.e.
    roughly every ``theta / mean_speed`` ticks. Waypoint turning makes
    real drift sub-linear, so this slightly *over*-predicts.
    """
    if mean_speed < 0 or theta < 0:
        raise ReproError("speeds and theta must be non-negative")
    if mean_speed == 0:
        return 0.0
    if theta == 0:
        return 1.0  # reports every tick, the contract's ceiling
    return min(1.0, mean_speed / theta)


def query_repair_rate(
    k: int,
    density: float,
    query_speed: float,
    object_speed: float,
    s_cap: float,
) -> float:
    """Expected repairs per query per tick.

    Two independent triggers:

    * the query exits its safe circle of radius
      ``s_eff = min(s_cap, gap/2)`` — roughly every ``s_eff / v_q``
      ticks;
    * relative object motion swaps the k-th rank — the k-th and
      (k+1)-th approach each other at ~``v_obj`` and are ``gap`` apart.

    Both rates cap at one repair per tick.
    """
    gap = expected_rank_gap(k, density)
    s_eff = min(s_cap, gap / 2.0)
    rate = 0.0
    if query_speed > 0 and s_eff > 0:
        rate += query_speed / s_eff
    elif query_speed > 0:
        rate += 1.0
    if object_speed > 0 and gap > 0:
        rate += object_speed / (2.0 * gap)
    return min(1.0, rate)


def centralized_messages_per_tick(population: int) -> float:
    """PER/SEA/CPM uplink: one report per population member per tick."""
    if population < 1:
        raise ReproError("population must be >= 1")
    return float(population)


def dknn_b_messages_per_repair(
    k: int, density: float, collect_slack: float, s_cap: float
) -> float:
    """Messages per DKNN-B repair: collect + replies + install (+probe).

    The collect radius is ``(t + s) * slack ~= d_k * slack``; every
    object inside replies. Adds the focal probe round-trip and the two
    broadcasts.
    """
    d_k = expected_knn_distance(k, density)
    radius = (d_k + min(s_cap, expected_rank_gap(k, density))) * collect_slack
    replies = math.pi * radius * radius * density
    return 2.0 + 2.0 + replies  # collect + install + probe pair + replies


def crossover_queries(
    population: int,
    k: int,
    density: float,
    query_speed: float,
    object_speed: float,
    s_cap: float = 50.0,
    collect_slack: float = 1.5,
) -> float:
    """Q* above which centralized streaming is cheaper than DKNN-B.

    Distributed traffic ~= Q * repair_rate * msgs_per_repair; the
    centralized stream costs ``population`` regardless of Q. The paper
    family's capacity claim is exactly that realistic deployments sit
    far below Q*.
    """
    per_repair = dknn_b_messages_per_repair(k, density, collect_slack, s_cap)
    rate = query_repair_rate(k, density, query_speed, object_speed, s_cap)
    per_query = max(rate * per_repair, 1e-9)
    return centralized_messages_per_tick(population) / per_query
