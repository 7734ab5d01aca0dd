"""Unit tests for the server-side object and query tables."""

import numpy as np
import pytest

from repro.core.server import _InFlight
from repro.errors import IndexError_, ProtocolError
from repro.server import ObjectTable, QuerySpec, QueryTable


@pytest.fixture
def table(universe):
    return ObjectTable(universe, grid_cells=10, theta=100.0)


class TestObjectTable:
    def test_negative_theta_raises(self, universe):
        with pytest.raises(IndexError_):
            ObjectTable(universe, 10, theta=-1)

    def test_report_inserts_then_updates(self, table):
        table.report(1, 100, 100, tick=1)
        assert 1 in table
        assert table.last_position(1) == (100, 100)
        table.report(1, 200, 200, tick=2)
        assert table.last_position(1) == (200, 200)

    def test_freshness_is_per_tick(self, table):
        table.report(1, 100, 100, tick=3)
        assert table.is_fresh(1, 3)
        assert not table.is_fresh(1, 4)

    def test_unknown_object_raises(self, table):
        with pytest.raises(IndexError_):
            table.last_position(9)

    def test_grid_reflects_reports(self, table):
        table.report(1, 100, 100, tick=1)
        table.report(2, 9900, 9900, tick=1)
        assert set(table.grid.ids()) == {1, 2}


class TestVectorFreshness:
    """``stale()`` is ``is_fresh`` over an id array."""

    def test_empty_id_array(self, table):
        out = table.stale(np.empty(0, dtype=np.int64), 3)
        assert out.dtype == np.int64 and out.tolist() == []
        assert table.stale([], 3).tolist() == []

    def test_never_reported_ids_are_stale(self, table):
        table.report(2, 100, 100, tick=3)
        assert table.stale([0, 1, 2, 3], 3).tolist() == [0, 1, 3]

    def test_ids_beyond_the_table_are_stale(self, table):
        table.report(2, 100, 100, tick=3)
        # The grid can grow without the table: such an id has a
        # position and no freshness column entry.
        table.grid.insert(5000, 50, 50)
        ids = [5000, 2, -1, 10**12]
        assert table.stale(ids, 3).tolist() == [5000, -1, 10**12]
        assert [table.is_fresh(o, 3) for o in ids] == [
            False, True, False, False,
        ]

    def test_duplicates_and_input_order_kept(self, table):
        for oid in (1, 2, 3):
            table.report(oid, 100, 100, tick=3)
        table.report(2, 120, 100, tick=4)
        assert table.stale([3, 2, 3, 1, 2, 9, 9], 4).tolist() == [
            3, 3, 1, 9, 9,
        ]

    def test_tick_rollover_mid_wait(self, table):
        """latency > 0: a reply that lands at ``t`` does not satisfy a
        wait that is still open at ``t + 1``."""
        table.report(1, 100, 100, tick=7)
        table.report(2, 100, 100, tick=8)
        pending = np.array([1, 2], dtype=np.int64)
        assert table.stale(pending, 7).tolist() == [2]
        assert table.stale(pending, 8).tolist() == [1]
        assert table.stale(pending, 9).tolist() == [1, 2]


class TestInFlightRegistry:
    """The array-backed probe registry keeps a set's surface exact."""

    def test_scalar_surface_matches_a_set(self):
        reg, ref = _InFlight(), set()
        assert not reg and len(reg) == 0 and sorted(reg) == []
        for op, oid in [
            ("add", 7), ("add", 7), ("add", 300), ("discard", 7),
            ("discard", 7), ("discard", 9999), ("add", 0), ("add", 7),
            ("discard", -1),
        ]:
            getattr(reg, op)(oid)
            getattr(ref, op)(oid)
            assert len(reg) == len(ref) and bool(reg) == bool(ref)
            assert sorted(reg) == sorted(ref)
            assert all((o in reg) == (o in ref) for o in (-1, 0, 7, 300, 9999))
        assert all(type(o) is int for o in reg)
        with pytest.raises(ProtocolError):
            reg.add(-1)  # would alias the last flag
        assert sorted(reg) == sorted(ref)

    def test_claim_returns_new_ids_in_input_order(self):
        reg = _InFlight()
        reg.add(5)
        got = reg.claim(np.array([9, 5, 1000, 2], dtype=np.int64))
        assert got.tolist() == [9, 1000, 2]
        assert sorted(reg) == [2, 5, 9, 1000] and len(reg) == 4
        assert reg.claim(np.array([2, 9], dtype=np.int64)).tolist() == []
        assert reg.claim(np.empty(0, dtype=np.int64)).tolist() == []
        assert len(reg) == 4

    def test_release_ignores_ids_not_in_flight(self):
        reg = _InFlight()
        reg.claim(np.array([3, 4, 70], dtype=np.int64))
        reg.release(np.array([4, 8, 10**6, 70], dtype=np.int64))
        assert sorted(reg) == [3] and len(reg) == 1 and reg
        reg.release(np.array([3, 3000], dtype=np.int64))
        assert sorted(reg) == [] and len(reg) == 0 and not reg
        reg.release(np.array([3], dtype=np.int64))  # already empty
        assert len(reg) == 0


class TestQuerySpec:
    def test_invalid_k_raises(self):
        with pytest.raises(ProtocolError):
            QuerySpec(qid=1, focal_oid=0, k=0)

    def test_invalid_focal_raises(self):
        with pytest.raises(ProtocolError):
            QuerySpec(qid=1, focal_oid=-1, k=2)

    def test_frozen(self):
        spec = QuerySpec(qid=1, focal_oid=0, k=2)
        with pytest.raises(Exception):
            spec.k = 3


class TestQueryTable:
    def test_register_and_get(self):
        qt = QueryTable()
        spec = QuerySpec(qid=1, focal_oid=7, k=3)
        qt.register(spec)
        assert qt.get(1) is spec

    def test_duplicate_registration_raises(self):
        qt = QueryTable()
        qt.register(QuerySpec(qid=1, focal_oid=7, k=3))
        with pytest.raises(ProtocolError):
            qt.register(QuerySpec(qid=1, focal_oid=8, k=3))

    def test_get_unknown_raises(self):
        with pytest.raises(ProtocolError):
            QueryTable().get(4)

    def test_iteration(self):
        qt = QueryTable()
        qt.register(QuerySpec(qid=1, focal_oid=7, k=3))
        qt.register(QuerySpec(qid=2, focal_oid=8, k=3))
        assert {s.qid for s in qt} == {1, 2}
