"""A full tick's incremental passes against the whole-column passes they
replace.

Two passes of a DKNN-P tick look only at what changed:

* ``DknnSilentPhase._candidates`` evaluates the candidate predicate on
  the fleet's moving rows, the nodes whose mirrors or table rows were
  written since the last evaluation, and that evaluation's candidates;
* ``DknnServer._zone_hits`` re-checks a planner zone whose installation
  stands, and whose last scan found no uninformed object, over the
  objects the object table logged as written since
  (``range_search_written``).

The references are the passes as they were before, kept here:
:func:`reference_candidates` is the whole-column predicate and
:func:`reference_zone` one full range search per row. Every tick of
five benchmark-shaped DKNN-P runs (plain, over four shards, and some
with one-tick latency, under a fault plan, or hardened under one) checks the candidates and every scanned
row's hits against them, and a twin build switched to the references
runs in lockstep with the same meter, category by category, answers and
traffic. A drawn property pins ``range_search_written`` against
``range_search_many`` after drawn writes: members and charges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastpath import DknnSilentPhase
from repro.core.protocol import BAND_ANSWER, BAND_OUTSIDER, InstallBand
from repro.core.server import DknnServer
from repro.experiments.config import RunConfig
from repro.geometry import Rect
from repro.index.knn import (
    range_search_arrays,
    range_search_many,
    range_search_written,
)
from repro.metrics.cost import CostMeter
from repro.net.engine import EngineConfig
from repro.net.faults import FaultPlan
from repro.net.message import SERVER_ID, Message, MessageKind
from repro.net.plane import ColumnarBatch
from repro.server.config import ShardConfig
from repro.server.object_table import ObjectTable
from repro.workloads.spec import WorkloadSpec
from tests.helpers import built_system


def reference_candidates(phase, xs, ys):
    """The whole-column candidate pass: ``(mask, moved, hit)`` over
    every node and every table row."""
    dx = xs - phase._sent_x
    dy = ys - phase._sent_y
    drift = np.sqrt(dx * dx + dy * dy)
    moved = np.isnan(phase._sent_x) | (drift > phase._theta)
    cand = (moved | phase._attention) if phase._timed else moved.copy()
    t = phase.regions
    hx = xs[t.oid] - t.ax
    hy = ys[t.oid] - t.ay
    d2 = hx * hx + hy * hy
    hit = np.flatnonzero(
        t.live & ~t.muted
        & np.where(t.kind == BAND_OUTSIDER, d2 < t.limit, d2 > t.limit)
    )
    cand[t.oid[hit]] = True
    cand &= phase._active
    return cand, moved, hit


def reference_zone(server, rows):
    """Each row's full monitor-zone search, focal excluded, charging
    nothing."""
    grid = server.table.grid
    meter, grid.meter = grid.meter, None
    try:
        out = []
        for row in rows.tolist():
            st_ = server._q.views[row]
            inst = st_.install
            ids = range_search_arrays(
                grid, *inst.anchor, inst.monitor_radius(
                    server.params.uncertainty
                ),
                exclude={st_.spec.focal_oid}, meter=CostMeter(),
            )[1]
            out.append(ids.tolist())
        return out
    finally:
        grid.meter = meter


#: the five benchmark shapes at a twenty-fifth of their size (at least
#: 400 objects), run as DKNN-P: the client and planner passes are
#: DKNN-P's. p_dense, b_dense and cpm_stream share the waypoint shape.
_WAYPOINT = dict(n_queries=16, query_speed=50.0)
SHAPES = {
    "p_dense": (dict(n_objects=2_000, **_WAYPOINT), None),
    "b_dense": (dict(n_objects=2_000, **_WAYPOINT), None),
    "cpm_stream": (dict(n_objects=4_000, **_WAYPOINT), None),
    "shard_drift": (
        dict(
            n_objects=800, n_queries=64, mobility="hotspot_drift",
            mobility_options={"drift_period": 120, "n_hotspots": 6,
                              "zipf_s": 0.5, "sigma": 500.0},
        ),
        None,
    ),
    "event_sparse": (
        dict(
            n_objects=8_000, n_queries=64, mobility="mostly_stationary",
            query_speed=0.0,
            mobility_options={"moving_fraction": 0.05, "period": 40,
                              "active_ticks": 10},
        ),
        EngineConfig(mode="event"),
    ),
}
TICKS = 30


#: nodes blacked out from the first tick: candidates (never sent) that
#: cannot act until their window ends.
BLACKOUTS = tuple((oid, 0, 9) for oid in range(0, 400, 37))


def _config(variant, engine):
    if variant == "plain":
        return RunConfig("DKNN-P", engine=engine)
    if variant == "S4":
        return RunConfig("DKNN-P", engine=engine, shard=ShardConfig(shards=4))
    if variant == "latency":
        return RunConfig("DKNN-P", engine=engine, latency="one_tick")
    if variant == "faulty":
        return RunConfig(
            "DKNN-P", engine=engine,
            faults=FaultPlan(seed=5, drop_uplink=0.05, blackouts=BLACKOUTS),
        )
    return RunConfig(
        "DKNN-P", engine=engine, params={"fault_tolerant": True},
        faults=FaultPlan(seed=5, drop_uplink=0.05, crashes=((3, 12),)),
    )


def _server(sim) -> DknnServer:
    return getattr(sim.server, "inner", sim.server)


CASES = [
    (shape, variant)
    for shape in SHAPES for variant in ("plain", "S4")
] + [
    ("p_dense", "hardened"), ("event_sparse", "hardened"),
    ("event_sparse", "faulty"), ("event_sparse", "latency"),
    ("shard_drift", "latency"),
]


@pytest.mark.parametrize(
    "shape, variant", CASES, ids=[f"{s}-{v}" for s, v in CASES]
)
def test_incremental_passes_equal_the_references(shape, variant, monkeypatch):
    """Every tick: the candidates, their drift flags and the violated
    rows equal the whole-column pass's; every scanned row's uninformed
    zone hits equal a full search's, in order; and a twin on both
    references keeps the same meter (each category, the sharded tier's
    and its inner server's), answers, traffic and skipped ticks. Only
    the commuter shape has still rows, so only it evaluates
    incrementally, and there the planner re-checks from the log."""
    fields, engine = SHAPES[shape]
    spec = WorkloadSpec(k=8, ticks=TICKS, warmup_ticks=0, seed=3, **fields)
    cfg = _config(variant, engine)
    checked = {"cand": 0, "zone": 0, "short": 0}
    candidates = DknnSilentPhase._candidates
    zone_hits = DknnServer._zone_hits
    written = range_search_written

    def checked_candidates(phase, xs, ys):
        cand, moved, hit = reference_candidates(phase, xs, ys)
        oids, moved_, hit_ = candidates(phase, xs, ys)
        assert oids.tolist() == np.flatnonzero(cand).tolist()
        assert moved_.tolist() == moved[oids].tolist()
        # the violated rows, but for those of nodes never evaluated
        assert np.isin(hit_, hit).all()
        missed = np.setdiff1d(hit, hit_)
        assert not phase._active[phase.regions.oid[missed]].any()
        checked["cand"] += 1
        return oids, moved_, hit_

    def checked_zone(server, rows):
        seg, ids = zone_hits(server, rows)
        for row, a, b, want in zip(
            rows.tolist(), seg.tolist(), seg[1:].tolist(),
            reference_zone(server, rows),
        ):
            # what the scan acts on: the uninformed hits, in order
            informed = server._q.views[row].informed
            got = [oid for oid in ids[a:b].tolist() if oid not in informed]
            assert got == [oid for oid in want if oid not in informed]
        checked["zone"] += rows.shape[0]
        return seg, ids

    def counted_written(grid, cx, *args, **kwargs):
        found = written(grid, cx, *args, **kwargs)
        if found is not None:
            checked["short"] += cx.shape[0]
        return found

    monkeypatch.setattr(DknnSilentPhase, "_candidates", checked_candidates)
    monkeypatch.setattr(DknnServer, "_zone_hits", checked_zone)
    monkeypatch.setattr(
        "repro.core.server.range_search_written", counted_written
    )
    sim, _ = built_system(cfg, spec)
    twin, _ = built_system(cfg, spec)
    # the twin runs both references: whole columns, every zone in full
    twin.client_phase._moving = None
    twin_server = _server(twin)

    def in_full(rows):
        # the rows' scan marks hidden, every zone is searched in full
        marks = twin_server._q.scan_mark[rows]
        twin_server._q.scan_mark[rows] = -1
        try:
            return DknnServer._zone_hits(twin_server, rows)
        finally:
            twin_server._q.scan_mark[rows] = marks

    twin_server._zone_hits = in_full
    for _ in range(TICKS):
        sim.step()
        twin.step()
        assert dict(sim.server.meter.units) == dict(twin.server.meter.units)
        assert dict(_server(sim).meter.units) == dict(
            _server(twin).meter.units
        )
        assert sim.server.answers == twin.server.answers
        assert vars(sim.channel.stats) == vars(twin.channel.stats)
    driver = sim._driver
    if driver is not None:
        assert driver.skipped_ticks == twin._driver.skipped_ticks
    assert checked["cand"] > 0 and checked["zone"] > 0
    incremental = sim.client_phase._recheck is not None
    assert incremental == (shape == "event_sparse" and variant != "hardened")
    if incremental:
        # the planner re-checked zones from the log, not only in full
        assert checked["short"] > 0


def test_a_written_band_makes_a_still_node_a_candidate(monkeypatch):
    """A node the fleet cannot move turns candidate only through a
    write that can arm a region: an install flight, or scalar code the
    touched-refresh re-reads. A band such a node already violates,
    written either way between two ticks, is reported on the next
    tick, as the whole-column pass would have it, in tick mode and in
    event mode, where that tick, parked as it is, runs in full."""
    fields = dict(SHAPES["event_sparse"][0], n_objects=2_000)
    spec = WorkloadSpec(k=8, ticks=TICKS, warmup_ticks=0, seed=3, **fields)
    candidates = DknnSilentPhase._candidates
    seen = []

    def checked(phase, xs, ys):
        cand = reference_candidates(phase, xs, ys)[0]
        oids, moved, hit = candidates(phase, xs, ys)
        assert oids.tolist() == np.flatnonzero(cand).tolist()
        seen.append(oids.tolist())
        return oids, moved, hit

    for engine in (None, EngineConfig(mode="event")):
        sim, _ = built_system(RunConfig("DKNN-P", engine=engine), spec)
        for _ in range(15):  # past the commute window: nothing moves
            sim.step()
        assert not sim.fleet.moved()
        phase = sim.client_phase
        a, b = np.setdiff1d(np.arange(spec.n_objects), sim.fleet.moving_rows)[
            :2
        ].tolist()

        def band(oid, qid):
            x, y = sim.fleet.positions[oid]  # an answer band it lies outside
            return InstallBand(qid, BAND_ANSWER, x + 50.0, y, 1.0)

        assert phase.deliver_batch(ColumnarBatch(
            MessageKind.INSTALL_REGION, src=SERVER_ID, dsts=np.array([a]),
            payloads=[band(a, 0)], pidx=np.array([0]),
        ))
        sim._dispatch(
            sim.mobiles[b],
            Message(MessageKind.INSTALL_REGION, SERVER_ID, b, band(b, 1)),
        )
        seen.clear()
        monkeypatch.setattr(DknnSilentPhase, "_candidates", checked)
        skipped = sim.driver.skipped_ticks
        sim.step()
        monkeypatch.undo()
        assert sim.driver.skipped_ticks == skipped
        assert phase._recheck is not None
        assert {a, b} <= set(seen[0])


# -- range_search_written against range_search_many -----------------------

UNIVERSE = Rect(0.0, 0.0, 1_000.0, 1_000.0)
_coord = st.floats(0.0, 1_000.0)


@given(
    start=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=60),
    disks=st.lists(
        st.tuples(_coord, _coord, st.floats(0.0, 400.0)),
        min_size=1, max_size=6,
    ),
    batches=st.lists(
        st.tuples(
            st.lists(
                st.tuples(st.integers(0, 79), _coord, _coord),
                min_size=1, max_size=20,
            ),
            st.booleans(),
        ),
        max_size=6,
    ),
    marks=st.lists(st.integers(0, 6), min_size=6, max_size=6),
    cells=st.sampled_from([1, 3, 7]),
)
@settings(max_examples=100, deadline=None)
def test_a_written_search_equals_the_full_search(
    start, disks, batches, marks, cells
):
    """Disks searched in full at drawn marks, then the table written
    in drawn batches — moves within and across cells, first-time
    inserts, one object several times, scalar and batch writes: each
    disk's re-check over the writes since its mark returns the full
    search's members among the written objects, ranked the same, and
    charges exactly what the full search charges now; or None, charging
    nothing, where the writes outnumber the members the full search
    scores."""
    table = ObjectTable(UNIVERSE, cells, theta=1.0, meter=CostMeter())
    table.report_batch(
        np.arange(len(start)), *np.array(start).T.copy(), tick=0
    )
    n = len(disks)
    cx, cy, r = (np.array(col) for col in zip(*disks))
    focal = np.array([i % 3 - 1 for i in range(n)], dtype=np.int64)
    since = np.full(n, -1, dtype=np.int64)
    written = [set() for _ in range(n)]
    for step in range(len(batches) + 1):
        due = [i for i in range(n) if marks[i] == step]
        if due:
            at = np.array(due)
            range_search_many(
                table.grid, cx[at], cy[at], r[at], focal[at],
                meter=CostMeter(),
            )
            since[at] = table.mark()
            for i in due:
                written[i] = set()
        if step == len(batches):
            break
        writes, scalar = batches[step]
        writes = list({oid: (oid, x, y) for oid, x, y in writes}.values())
        if scalar:
            for oid, x, y in writes:
                table.report(oid, x, y, tick=step + 1)
        else:
            oids, xs, ys = (np.array(col) for col in zip(*writes))
            table.report_batch(oids.astype(np.int64), xs, ys, tick=step + 1)
        for i in range(n):
            if since[i] >= 0:
                written[i].update(oid for oid, _, _ in writes)
    rows = np.flatnonzero(since >= table.logged_from)  # not -1, not lost
    if not rows.shape[0]:
        return
    meter = CostMeter()
    table.grid.meter = meter
    first = int(since[rows].min())
    got = range_search_written(
        table.grid, cx[rows], cy[rows], r[rows], focal[rows],
        table.written_since(first), since[rows] - first, meter=meter,
    )
    full_meter = CostMeter()
    table.grid.meter = full_meter
    full = range_search_many(
        table.grid, cx[rows], cy[rows], r[rows], focal[rows],
        meter=full_meter,
    )
    n_writes = sum(ids.shape[0] for ids in table.written_since(first))
    if n_writes > full.charges[CostMeter.DIST_CALC].sum():
        assert got is None and not meter.units
        return
    assert dict(meter.units) == dict(full_meter.units)
    for category, per_row in full.charges.items():
        assert got.charges[category].tolist() == per_row.tolist()
    for i, row in enumerate(rows.tolist()):
        a, b = full.seg[i], full.seg[i + 1]
        keep = np.isin(full.oid[a:b], list(written[row]))
        ga, gb = got.seg[i], got.seg[i + 1]
        assert got.oid[ga:gb].tolist() == full.oid[a:b][keep].tolist()
        assert got.d[ga:gb].tolist() == full.d[a:b][keep].tolist()
