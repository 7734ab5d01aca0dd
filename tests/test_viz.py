"""Tests for the ASCII world renderer."""

import pytest

from repro.errors import ReproError
from repro.geometry import Rect
from repro.viz import render_query, render_world

UNI = Rect(0, 0, 100, 100)


class TestRenderWorld:
    def test_dimensions(self):
        out = render_world(UNI, [(50.0, 50.0)], width=20, height=10)
        lines = out.splitlines()
        assert len(lines) == 12  # 10 rows + 2 borders
        assert all(len(line) == 22 for line in lines)

    def test_object_glyph_present(self):
        out = render_world(UNI, [(50.0, 50.0)], width=20, height=10)
        assert "." in out

    def test_focal_drawn_on_top(self):
        out = render_world(
            UNI, [(50.0, 50.0), (50.0, 50.0)], focal_ids=[1], width=20,
            height=10,
        )
        assert "Q" in out

    def test_answers_marked(self):
        out = render_world(
            UNI, [(10.0, 10.0), (90.0, 90.0)], answer_ids=[0], width=20,
            height=10,
        )
        assert "*" in out and "." in out

    def test_corners_stay_inside_canvas(self):
        render_world(
            UNI, [(0.0, 0.0), (100.0, 100.0)], width=20, height=10
        )  # must not raise

    def test_tiny_canvas_rejected(self):
        with pytest.raises(ReproError):
            render_world(UNI, [(1.0, 1.0)], width=1, height=10)


class TestRenderQuery:
    POSITIONS = [(50.0, 50.0), (60.0, 50.0), (10.0, 10.0)]

    def test_band_circle_drawn(self):
        out = render_query(
            UNI, self.POSITIONS, focal_oid=0, answer_ids=[1],
            threshold=30.0, anchor=(50.0, 50.0), width=40, height=20,
        )
        assert "o" in out
        assert "Q" in out

    def test_no_threshold_falls_back_to_world(self):
        out = render_query(
            UNI, self.POSITIONS, focal_oid=0, answer_ids=[1], width=40,
            height=20,
        )
        assert "o" not in out

    def test_infinite_threshold_skipped(self):
        out = render_query(
            UNI, self.POSITIONS, focal_oid=0, answer_ids=[1],
            threshold=float("inf"), anchor=(50.0, 50.0), width=40, height=20,
        )
        assert "o" not in out

    def test_live_system_snapshot(self):
        """Render from an actual running DKNN-B system."""
        from repro.core.broadcast_variant import build_broadcast_system
        from repro.workloads import WorkloadSpec, build_workload

        spec = WorkloadSpec(
            n_objects=60, n_queries=1, k=4, seed=81, ticks=10, warmup_ticks=1
        )
        fleet, queries = build_workload(spec)
        sim = build_broadcast_system(fleet, queries)
        sim.run(10)
        q = queries[0]
        # the query's installation, as its handoff snapshot ships it
        doc = sim.server.export_query_state(q.qid)
        assert doc["threshold"] > 0  # banded: a finite threshold
        out = render_query(
            fleet.universe,
            fleet.positions,
            focal_oid=q.focal_oid,
            answer_ids=sim.server.answers[q.qid],
            threshold=doc["threshold"],
            anchor=doc["anchor"],
        )
        assert "Q" in out and "*" in out
