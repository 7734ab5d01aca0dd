"""Unit tests for threshold / installation planning (repro.core.regions)."""

import math

import numpy as np
import pytest

from repro.core.regions import plan_installation
from repro.errors import ProtocolError


def _cands(*dists):
    """Ranked candidate arrays ``(distances, ids)``: id ``i`` at the
    ``i``-th distance."""
    return np.array(dists, dtype=np.float64), np.arange(len(dists))


class TestPlanValidation:
    def test_k_must_be_positive(self):
        with pytest.raises(ProtocolError):
            plan_installation((0, 0), *_cands(1.0), 0, 10.0)

    def test_negative_s_cap_raises(self):
        with pytest.raises(ProtocolError):
            plan_installation((0, 0), *_cands(1.0), 1, -1.0)

    def test_unsorted_candidates_raise(self):
        with pytest.raises(ProtocolError):
            plan_installation((0, 0), *_cands(5.0, 3.0), 1, 1.0)


class TestNormalCase:
    def test_threshold_is_midpoint(self):
        inst = plan_installation((0, 0), *_cands(10, 20, 30, 100), 3, 5.0)
        assert inst.threshold == pytest.approx(65.0)

    def test_answer_and_outsiders_split(self):
        inst = plan_installation((0, 0), *_cands(10, 20, 30, 100, 200), 3, 5.0)
        assert inst.answer_ids == (0, 1, 2)
        assert inst.answer == ((10.0, 0), (20.0, 1), (30.0, 2))

    def test_s_eff_capped_by_config(self):
        inst = plan_installation((0, 0), *_cands(10, 20, 30, 100), 3, 5.0)
        assert inst.s_eff == 5.0

    def test_s_eff_capped_by_gap(self):
        inst = plan_installation((0, 0), *_cands(10, 20, 30, 36), 3, 50.0)
        assert inst.s_eff == pytest.approx(3.0)

    def test_band_radii_bracket_candidates(self):
        inst = plan_installation((0, 0), *_cands(10, 20, 30, 100), 3, 5.0)
        d_k, d_k1 = 30, 100
        assert d_k <= inst.answer_band_radius
        assert inst.outsider_band_radius <= d_k1

    def test_bands_installable_at_install_time(self):
        # every answer distance <= answer radius; every outsider >= outer
        ds, ids = _cands(5, 6, 7, 7.5, 30)
        inst = plan_installation((0, 0), ds, ids, 3, 10.0)
        for d, _ in inst.answer:
            assert d <= inst.answer_band_radius + 1e-12
        for d in ds[3:].tolist():
            assert d >= inst.outsider_band_radius - 1e-12

    def test_zero_gap_gives_zero_margin(self):
        inst = plan_installation((0, 0), *_cands(10, 20, 30, 30), 3, 50.0)
        assert inst.s_eff == 0.0
        assert inst.threshold == 30.0

    def test_monitor_radius_adds_uncertainty(self):
        inst = plan_installation((0, 0), *_cands(10, 20, 30, 100), 3, 5.0)
        assert inst.monitor_radius(25.0) == pytest.approx(65.0 + 5.0 + 25.0)

    def test_outsiders_within_filters_by_distance(self):
        """A full repair bands the ranked tail past ``k`` up to the
        monitor zone, ties at the zone's edge included
        (``DknnServer._plan_full``, here on one row)."""
        from repro.core.params import DknnParams
        from repro.core.server import DknnServer
        from repro.geometry import Rect
        from repro.server.query_table import QuerySpec

        server = DknnServer(
            Rect(0.0, 0.0, 1000.0, 1000.0), DknnParams(theta=25.0, s_cap=5.0)
        )
        server.register_query(QuerySpec(qid=0, focal_oid=9, k=3))
        server.table.report(9, 0.0, 500.0, 1)
        # t = 35, s_eff = 5: the zone is 35 + 5 + 25 = 65
        for oid, d in enumerate((10, 20, 30, 40, 65, 65.5, 200)):
            server.table.report(oid, float(d), 500.0, 1)
        server.table.report(7, 0.0, 565.0, 1)  # 65 away too
        cands = np.array([5, 7, 3, 0, 6, 4, 1, 2], dtype=np.int64)
        ((inst, banded),) = server._plan_full(
            np.array([0]), np.array([0, cands.shape[0]]), cands
        )
        assert inst.answer_ids == (0, 1, 2)
        assert inst.monitor_radius(server.params.uncertainty) == 65.0
        assert banded == [3, 4, 7]


class TestTrivialCase:
    def test_fewer_candidates_than_k(self):
        inst = plan_installation((1, 2), *_cands(10, 20), 5, 7.0)
        assert math.isinf(inst.threshold)
        assert inst.answer == ((10.0, 0), (20.0, 1))
        assert inst.s_eff == 7.0

    def test_exactly_k_candidates_is_trivial(self):
        inst = plan_installation((1, 2), *_cands(10, 20, 30), 3, 7.0)
        assert math.isinf(inst.threshold)

    def test_trivial_band_radii_are_infinite(self):
        inst = plan_installation((1, 2), *_cands(10,), 3, 7.0)
        assert math.isinf(inst.answer_band_radius)
        assert math.isinf(inst.outsider_band_radius)
        assert math.isinf(inst.monitor_radius(10.0))


class TestBandInvariantLemma:
    """Direct numeric check of the correctness lemma in the module doc."""

    def test_invariant_guarantees_valid_answer(self):
        import itertools
        import random

        rng = random.Random(0)
        for _ in range(200):
            # Build a random installation scenario.
            k = rng.randint(1, 5)
            n = k + rng.randint(1, 6)
            dists = sorted(rng.uniform(0, 100) for _ in range(n))
            s_cap = rng.uniform(0, 20)
            inst = plan_installation((0.0, 0.0), *_cands(*dists), k, s_cap)
            if math.isinf(inst.threshold):
                continue
            t, s = inst.threshold, inst.s_eff
            # Perturb: every answer stays within t-s, every outsider
            # beyond t+s, query within s. Then answers must all be at
            # least as close to the perturbed query as any outsider.
            for _ in range(5):
                q_angle = rng.uniform(0, 2 * math.pi)
                qd = rng.uniform(0, s)
                qx, qy = qd * math.cos(q_angle), qd * math.sin(q_angle)
                answer_pts = []
                outsider_pts = []
                for d, oid in inst.answer:
                    r = rng.uniform(0, t - s)
                    a = rng.uniform(0, 2 * math.pi)
                    answer_pts.append((r * math.cos(a), r * math.sin(a)))
                for _ in dists[k:]:
                    r = rng.uniform(t + s, (t + s) * 3 + 1)
                    a = rng.uniform(0, 2 * math.pi)
                    outsider_pts.append((r * math.cos(a), r * math.sin(a)))
                worst_answer = max(
                    (math.hypot(x - qx, y - qy) for x, y in answer_pts),
                    default=0.0,
                )
                best_outsider = min(
                    (math.hypot(x - qx, y - qy) for x, y in outsider_pts),
                    default=math.inf,
                )
                assert worst_answer <= best_outsider + 1e-9
