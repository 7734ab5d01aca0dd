"""Property-based end-to-end tests of the protocols.

Hypothesis generates small random worlds (population, k, speeds, seeds)
and the full simulation must publish valid kNN answers at every tick
for both distributed variants. These tests are the strongest guard the
repository has: they explore the corner where the k/k+1 gap collapses,
populations hover around k, and queries outrun objects.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regions import plan_installation
from repro.errors import ProtocolError
from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.workloads import WorkloadSpec, build_workload
from tests.helpers import ExactnessChecker

import math

world = st.fixed_dictionaries(
    {
        "n_objects": st.integers(min_value=2, max_value=60),
        "n_queries": st.integers(min_value=1, max_value=3),
        "k": st.integers(min_value=1, max_value=8),
        "speed_max": st.floats(min_value=1.0, max_value=300.0),
        "query_speed": st.floats(min_value=0.0, max_value=300.0),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)


def _spec(w) -> WorkloadSpec:
    return WorkloadSpec(
        n_objects=w["n_objects"],
        n_queries=w["n_queries"],
        k=w["k"],
        speed_min=w["speed_max"] * 0.3,
        speed_max=w["speed_max"],
        query_speed=w["query_speed"],
        universe_size=3_000.0,
        ticks=16,
        warmup_ticks=1,
        seed=w["seed"],
    )


@given(world)
@settings(max_examples=25, deadline=None)
def test_dknn_p_exact_on_random_worlds(w):
    spec = _spec(w)
    fleet, queries = build_workload(spec)
    cfg = RunConfig("DKNN-P", params={"theta": 60.0, "s_cap": 30.0})
    sim = build_system(cfg, fleet, queries)
    checker = ExactnessChecker(fleet, queries)
    sim.run(15, on_tick=checker)
    checker.assert_clean()


@given(world)
@settings(max_examples=25, deadline=None)
def test_dknn_b_exact_on_random_worlds(w):
    spec = _spec(w)
    fleet, queries = build_workload(spec)
    sim = build_system(RunConfig("DKNN-B"), fleet, queries)
    checker = ExactnessChecker(fleet, queries)
    sim.run(15, on_tick=checker)
    checker.assert_clean()


@given(world)
@settings(max_examples=25, deadline=None)
def test_dknn_g_exact_on_random_worlds(w):
    spec = _spec(w)
    fleet, queries = build_workload(spec)
    cfg = RunConfig("DKNN-G", params={"lease_ticks": 4})
    sim = build_system(cfg, fleet, queries)
    checker = ExactnessChecker(fleet, queries)
    sim.run(15, on_tick=checker)
    checker.assert_clean()


@given(world)
@settings(max_examples=10, deadline=None)
def test_centralized_exact_on_random_worlds(w):
    spec = _spec(w)
    for name in ("SEA", "CPM"):
        fleet, queries = build_workload(spec)
        sim = build_system(RunConfig(name), fleet, queries)
        checker = ExactnessChecker(fleet, queries)
        sim.run(15, on_tick=checker)
        checker.assert_clean()


# -- installation-planning properties -----------------------------------------

distances = st.lists(
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    min_size=1,
    max_size=30,
)


@given(distances, st.integers(1, 10), st.floats(0, 1e3, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_plan_installation_invariants(dists, k, s_cap):
    ds = np.array(sorted(dists))
    cands = [(d, i) for i, d in enumerate(ds.tolist())]
    inst = plan_installation((0.0, 0.0), ds, np.arange(len(ds)), k, s_cap)
    # Answer is the k nearest (prefix of the sorted candidates).
    assert inst.answer == tuple(cands[: min(k, len(cands))])
    assert inst.s_eff <= s_cap + 1e-12
    if math.isinf(inst.threshold):
        assert len(cands) <= k
    else:
        d_k = cands[k - 1][0]
        d_k1 = cands[k][0]
        # Bands are installable: answers inside, outsiders outside.
        assert d_k <= inst.answer_band_radius + 1e-9
        assert inst.outsider_band_radius <= d_k1 + 1e-9
        # The threshold separates the bands by 2 * s_eff (float-close).
        assert math.isclose(
            inst.outsider_band_radius - inst.answer_band_radius,
            2 * inst.s_eff,
            rel_tol=1e-9,
            abs_tol=1e-6,
        )
        # Monitor zone covers the outsider boundary.
        assert inst.monitor_radius(10.0) >= inst.outsider_band_radius


def _tuple_planner(cands, k, s_cap):
    """The list-of-``(distance, oid)`` planner the array one replaced:
    ``(answer, t, s_eff, outsiders)``."""
    if len(cands) <= k:
        return tuple(cands), math.inf, s_cap, ()
    d_k, d_k1 = cands[k - 1][0], cands[k][0]
    t = (d_k + d_k1) / 2.0
    return tuple(cands[:k]), t, min(s_cap, (d_k1 - d_k) / 2.0), cands[k:]


#: small lattice offsets: many candidates share an exact distance
#: ((3, 4), (5, 0), (0, -5), (-4, 3) ... are all 5 away).
offsets = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=0, max_size=24
)


@given(
    st.lists(st.tuples(offsets, st.integers(1, 6)), min_size=1, max_size=4),
    st.sampled_from([0.0, 0.5, 1.0, 2.5, 50.0]),
    st.sampled_from([0.0, 1.0, 3.0]),
)
@settings(max_examples=150, deadline=None)
def test_array_planner_matches_the_tuple_planner_on_ties(rows, s_cap, theta):
    """Full repairs planned as one segmented pass (``_plan_full``)
    against the tuple planner row by row, on candidates with exact
    distance ties: the same answer, ``t`` and ``s_eff``, and the banded
    outsiders are the tuple filter ``d <= monitor radius``."""
    from repro.core.params import DknnParams
    from repro.core.server import DknnServer
    from repro.geometry import Rect, dist
    from repro.server.query_table import QuerySpec

    server = DknnServer(
        Rect(0.0, 0.0, 100.0, 100.0),
        DknnParams(theta=theta, s_cap=s_cap, grid_cells=4),
    )
    specs, runs, oid = [], [], 0
    for qid, (offs, k) in enumerate(rows):
        focal = 1000 + qid
        qx, qy = 20.0 + 15 * qid, 50.0
        specs.append(QuerySpec(qid=qid, focal_oid=focal, k=k))
        server.register_query(specs[-1])
        server.table.report(focal, qx, qy, 1)
        ids = []
        for dx, dy in offs:
            server.table.report(oid, qx + dx, qy + dy, 1)
            ids.append(oid)
            oid += 1
        runs.append(np.array(ids[::-1], dtype=np.int64))  # unranked
    # the query rows in a shuffled order, each with its candidate run
    order = np.arange(len(rows))[::-1]
    seg = np.cumsum([0] + [runs[i].shape[0] for i in order])
    plans = server._plan_full(
        order, seg, np.concatenate([runs[i] for i in order])
    )
    for i, (inst, banded) in zip(order.tolist(), plans):
        spec = specs[i]
        qx, qy = server.table.last_position(spec.focal_oid)
        cands = sorted(
            (dist(*server.table.last_position(o), qx, qy), o)
            for o in runs[i].tolist()
        )
        answer, t, s_eff, outsiders = _tuple_planner(cands, spec.k, s_cap)
        assert (inst.answer, inst.threshold, inst.s_eff) == (answer, t, s_eff)
        zone = inst.monitor_radius(server.params.uncertainty)
        assert banded == [o for d, o in outsiders if d <= zone]
        ds = np.array([d for d, _ in cands])
        alone = plan_installation(
            (qx, qy), ds, np.array([o for _, o in cands]), spec.k, s_cap
        )
        assert alone == inst


@given(st.integers(0, 10))
def test_plan_installation_rejects_bad_k(extra):
    with pytest_raises_protocol():
        plan_installation((0, 0), np.array([1.0]), np.array([0]), 0, 1.0)


def pytest_raises_protocol():
    import pytest

    return pytest.raises(ProtocolError)
