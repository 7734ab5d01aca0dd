"""Properties of the faulted sharded tier.

* **Failover re-convergence** — Hypothesis draws a workload and a
  crash window; the test first runs a clean copy of the workload to
  learn which shard owns the first query at the crash tick, then
  crashes exactly that shard in a second run. The buddy must take the
  query over (a failover with queries moved), the answers published
  from the stale replica must open a degraded window that closes with
  a recorded recovery latency, and once the shard restarts the
  published answers must return to the exact kNN within a bounded
  settle window — the same ground-truth-replay check the blackout
  handoff test uses.
* **Composed-fault accounting** — a radio ``FaultPlan`` layered on a
  ``ShardFaultPlan`` crash/partition run keeps healthy exactness at
  1.0 (the degraded annotation stays honest when both fault models
  fire at once — enforced per tick by the chaos harness's
  :class:`~repro.net.chaos.HealthyExactnessChecker`, whose bound is
  exactly the radio layer's documented violation-retry blind spot,
  see :class:`repro.metrics.accuracy.AccuracyTracker`), and backbone
  traffic — retries included — lands in the ``server_to_server``
  CommStats bucket exactly once per wire message, never in the radio
  buckets.
* **The partition against its static-grid model** — ``ShardRouter(u,
  S)`` holds the partition as a fine-cell ``owner`` array even when no
  rebalancer will ever touch it; a static tier is its one-cell-per-
  shard case. The oracle is the plain S x S grid arithmetic the router
  used before it owned the cells: same shard for every point and the
  same ascending shard list for every circle, row by row of the vector
  overlap — on and across cell borders, outside the universe,
  ``radius`` 0 and negative — and, with ``cells_per_shard`` above 1 and
  the identity ``owner``, shard for shard on a lattice where both cell
  widths are exact.
* **The backbone's batch send** — on a healthy link (no plan)
  ``ShardLink.send_many`` equals a loop of ``send`` in row order on
  every link counter and the ``CommStats`` server-to-server bucket,
  for scalar and per-row sizes; on a link built with a lossy, delayed
  or crash / partition plan it refuses the batch and records nothing.
"""

import struct
from collections import Counter

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

from repro.errors import NetworkError
from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.index.bruteforce import brute_knn_ids
from repro.net.chaos import default_checkers
from repro.net.faults import FaultPlan, ShardFaultPlan
from repro.net.message import MessageKind
from repro.net.shardlink import ShardLink
from repro.net.stats import CommStats
from repro.geometry import Rect
from repro.server.config import ShardConfig
from repro.server.sharding import ShardRouter
from repro.workloads import WorkloadSpec, build_workload

CRASH_T0 = 20
CRASH_T1 = 32
TOTAL_TICKS = 64
HEARTBEAT_TIMEOUT = 3
LEASE = 8

FT_PARAMS = {
    "fault_tolerant": True,
    "ack_timeout": 2,
    "lease_ticks": LEASE,
    "violation_retry": 2,
}

scenario = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "fault_seed": st.integers(min_value=0, max_value=10_000),
        "n_objects": st.integers(min_value=60, max_value=150),
        "n_queries": st.integers(min_value=2, max_value=3),
    }
)


def _spec(s):
    return WorkloadSpec(
        n_objects=s["n_objects"],
        n_queries=s["n_queries"],
        k=4,
        ticks=TOTAL_TICKS,
        warmup_ticks=2,
        seed=s["seed"],
        universe_size=3_000.0,
    )


def _owner_at_crash_tick(spec):
    """Clean probe run: which shard owns query 0 when the crash hits?

    Ownership is a deterministic function of reported positions, and
    the fault plan does nothing before its first window, so the faulty
    run reaches the same ownership at the last pre-crash tick
    (``CRASH_T0 - 1``; from ``CRASH_T0`` on, the victim's backbone
    sends are dropped, so it cannot hand the query off before the
    watcher's timeout fires).
    """
    fleet, queries = build_workload(spec)
    cfg = RunConfig(
        "DKNN-P", shard=ShardConfig(shards=2), params=dict(FT_PARAMS)
    )
    sim = build_system(cfg, fleet, queries)
    sim.run(CRASH_T0 - 1)
    return sim.server._owner[queries[0].qid]


@given(scenario)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_crashed_owner_fails_over_and_reconverges(s):
    spec = _spec(s)
    victim = _owner_at_crash_tick(spec)

    plan = ShardFaultPlan(
        seed=s["fault_seed"],
        crashes=((victim, CRASH_T0, CRASH_T1),),
        heartbeat_timeout=HEARTBEAT_TIMEOUT,
    )
    fleet, queries = build_workload(spec)
    cfg = RunConfig(
        "DKNN-P",
        record_history=True,
        shard=ShardConfig(shards=2, faults=plan),
        params=dict(FT_PARAMS),
    )
    sim = build_system(cfg, fleet, queries)

    owners_seen = []
    sim.run(spec.ticks, on_tick=lambda x: owners_seen.append(
        dict(x.server._owner)
    ))
    tier = sim.server
    st_ = tier.shard_stats

    # The buddy suspected the dead shard and took its queries over.
    assert st_.failovers >= 1, "crash never detected"
    assert st_.queries_taken_over >= 1, "owned query not taken over"
    # The restart heartbeat handed the coverage back.
    assert st_.restores >= 1, "restarted shard never restored"
    assert not tier._failed

    # Degraded accounting: windows opened at takeover closed with a
    # recorded latency, and none is still open at run end (the settle
    # bound is recovery_settle_ticks=12 << the post-crash tail).
    assert st_.recovery_latencies, "no degraded window accounted"
    assert all(t >= 0 for t in st_.recovery_latencies)
    assert not tier._degraded_overlay, "degraded window still open"

    # Ownership invariant: one owner map, always valid shard ids.
    for snapshot in owners_seen:
        for owner in snapshot.values():
            assert 0 <= owner < tier.router.n_shards

    # Bounded re-convergence: detection + restore + one lease/retry
    # round of slack, then published answers are exact at probe ticks.
    deadline = CRASH_T1 + HEARTBEAT_TIMEOUT + LEASE + 4
    replay = {}
    for q in queries:
        for tick, answer in tier.answer_history[q.qid]:
            replay.setdefault(tick, {})[q.qid] = answer
    fleet2, _ = build_workload(spec)
    exact_since = None
    for tick in range(1, spec.ticks + 1):
        fleet2.advance()
        if tick < deadline or tick % 2:
            continue
        ok = True
        for q in queries:
            qx, qy = fleet2.positions[q.focal_oid]
            truth = brute_knn_ids(
                fleet2.positions, qx, qy, q.k, frozenset((q.focal_oid,))
            )
            if sorted(replay[tick][q.qid]) != sorted(truth):
                ok = False
        if ok and exact_since is None:
            exact_since = tick
    assert exact_since is not None, (
        f"never exact again after restart + settle (deadline {deadline})"
    )


composed = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "radio_seed": st.integers(min_value=0, max_value=10_000),
        "shard_seed": st.integers(min_value=0, max_value=10_000),
        "n_objects": st.integers(min_value=60, max_value=150),
        "n_queries": st.integers(min_value=2, max_value=3),
        "victim": st.integers(min_value=0, max_value=3),
        "cut": st.integers(min_value=0, max_value=2),
        "link_drop": st.floats(min_value=0.0, max_value=0.05),
    }
)


def _composed_cfg(s):
    """A radio FaultPlan layered on a ShardFaultPlan crash+partition."""
    radio = FaultPlan(
        seed=s["radio_seed"],
        drop_uplink=0.02,
        drop_downlink=0.02,
        dup_prob=0.01,
        delay_prob=0.02,
        delay_ticks=1,
    )
    shard = ShardFaultPlan(
        seed=s["shard_seed"],
        link_drop=s["link_drop"],
        crashes=((s["victim"], CRASH_T0, CRASH_T1),),
        partitions=((s["cut"], s["cut"] + 1, CRASH_T1 + 2, CRASH_T1 + 12),),
        heartbeat_timeout=HEARTBEAT_TIMEOUT,
    )
    return RunConfig(
        "DKNN-P",
        faults=radio,
        shard=ShardConfig(shards=2, faults=shard),
        params=dict(FT_PARAMS),
    )


@given(composed)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_composed_faults_stay_honest_and_singly_counted(s):
    spec = _spec(s)
    fleet, queries = build_workload(spec)
    sim = build_system(_composed_cfg(s), fleet, queries)
    tier = sim.server

    # Shadow-count the backbone send path so the CommStats ledger can
    # be checked against a ground-truth call count.
    link = tier.link
    shadow: Counter = Counter()
    original_send = link.send

    def counting_send(kind, src, dst, payload_bytes, payload=None):
        shadow[kind] += 1
        return original_send(kind, src, dst, payload_bytes, payload)

    link.send = counting_send

    # Honesty under composition, checked every tick: an answer the
    # tier does not flag degraded must match brute-force kNN, up to
    # the radio layer's documented violation-retry blind spot (the
    # HealthyExactnessChecker bound — strict per-sample equality is
    # not a theorem under radio drops even unsharded, see
    # AccuracyTracker.healthy_exactness). The other four checkers ride
    # along: ownership, no-lost-query, and replication-lag invariants
    # must also hold with both fault models firing at once.
    checkers = default_checkers()
    violations = []

    def on_tick(x):
        for checker in checkers:
            violations.extend(
                (x.tick, checker.name, fields)
                for fields in checker.check(x, x.tick)
            )

    sim.run(spec.ticks, on_tick=on_tick)
    assert not violations, violations[:5]
    # The schedule actually degraded something (the crash fired).
    assert tier.shard_stats.failovers >= 1
    assert tier.shard_stats.recovery_latencies

    stats = sim.channel.stats
    # Every backbone wire message — handoff retransmits included — is
    # recorded in the server_to_server bucket exactly once ...
    assert stats.s2s_by_kind == shadow
    assert stats.s2s_by_kind == link.sent_by_kind
    assert stats.s2s_bytes_by_kind == link.bytes_by_kind
    assert stats.server_to_server_messages > 0
    # ... and none of it leaks into the radio buckets: those stay
    # keyed by the radio MessageKind vocabulary only, so backbone
    # retries can never double-count as radio traffic or retransmits.
    for bucket in (
        stats.sent_by_kind,
        stats.bytes_by_kind,
        stats.dropped_by_kind,
        stats.duplicated_by_kind,
        stats.delayed_by_kind,
        stats.retransmits_by_kind,
    ):
        assert all(isinstance(kind, MessageKind) for kind in bucket)
    assert stats.total_messages == sum(stats.sent_by_kind.values())


# -- the partition against its static-grid model ------------------------------


def _static_shard_of(u, side, x, y):
    """The plain S x S grid: the shard whose rectangle contains the
    point (edges clamp in)."""
    col = int((x - u.xmin) / (u.width / side))
    row = int((y - u.ymin) / (u.height / side))
    col = min(max(col, 0), side - 1)
    row = min(max(row, 0), side - 1)
    return row * side + col


def _rank(x):
    """A double's place among the doubles, as an integer (order kept)."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & (2**63 - 1))


def _unrank(k):
    bits = k if k >= 0 else -k | -(2**63)
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _static_edges(u, side, axis):
    """(lower, upper) per column (``axis`` 0) or row (1) of the plain
    grid: the nominal cell widened to every coordinate
    :func:`_static_shard_of` puts in it. Each cell's least such
    coordinate is bisected over the doubles' ranks."""
    lo, hi, ext = (
        (u.xmin, u.xmax, u.width / side) if axis == 0
        else (u.ymin, u.ymax, u.height / side)
    )

    def at(v):
        if axis == 0:
            return _static_shard_of(u, side, v, u.ymin) % side
        return _static_shard_of(u, side, u.xmin, v) // side

    starts = [lo]
    for c in range(1, side):
        below, above = _rank(lo + (c - 1) * ext), _rank(lo + (c + 1) * ext)
        assert at(_unrank(below)) < c <= at(_unrank(above))
        while above - below > 1:
            mid = (below + above) // 2
            if at(_unrank(mid)) >= c:
                above = mid
            else:
                below = mid
        starts.append(_unrank(above))
    starts.append(hi)
    lower = [min(lo + c * ext, starts[c]) for c in range(side)]
    upper = [max((lo + c * ext) + ext, starts[c + 1]) for c in range(side)]
    return lower, upper


def _static_overlap(u, side, cx, cy, radius):
    """The plain S x S grid: every shard whose rectangle — every point
    :func:`_static_shard_of` puts in it (:func:`_static_edges`) —
    intersects the circle, ascending."""
    if radius < 0:
        return []
    w, h = u.width / side, u.height / side
    xlo, xhi = _static_edges(u, side, 0)
    ylo, yhi = _static_edges(u, side, 1)
    col0 = min(max(int((cx - radius - u.xmin) / w), 0), side - 1)
    col1 = min(max(int((cx + radius - u.xmin) / w), 0), side - 1)
    row0 = min(max(int((cy - radius - u.ymin) / h), 0), side - 1)
    row1 = min(max(int((cy + radius - u.ymin) / h), 0), side - 1)
    out = []
    for row in range(row0, row1 + 1):
        ny = min(max(cy, ylo[row]), yhi[row])
        for col in range(col0, col1 + 1):
            nx = min(max(cx, xlo[col]), xhi[col])
            dx, dy = nx - cx, ny - cy
            if dx * dx + dy * dy <= radius * radius:
                out.append(row * side + col)
    return out


def _assert_overlap_rows(router, u, side, points, radii):
    """The vector overlap over every (point, radius) circle at once
    equals the static-grid model row by row, and a radius-0 circle at
    a point of the universe overlaps the shard serving the point."""
    circles = [(x, y, r) for x, y in points for r in radii + [0.0]]
    hit = router.shards_overlapping(*np.array(circles).T)
    for row, (x, y, r) in zip(hit, circles):
        assert np.flatnonzero(row).tolist() == _static_overlap(
            u, side, x, y, r
        )
        if r == 0 and u.contains_point(x, y):
            assert row[router.shard_of(x, y)]


@st.composite
def _grids(draw):
    """A universe, S, and points drawn inside it, outside it, exactly
    on the borders between cells and on its own edges (corners
    included)."""
    side = draw(st.integers(min_value=1, max_value=5))
    xmin = draw(st.floats(min_value=-500.0, max_value=500.0))
    ymin = draw(st.floats(min_value=-500.0, max_value=500.0))
    width = draw(st.floats(min_value=1.0, max_value=5_000.0))
    height = draw(st.floats(min_value=1.0, max_value=5_000.0))
    u = Rect(xmin, ymin, xmin + width, ymin + height)

    def coord(lo, hi):
        extent = hi - lo
        border = st.integers(min_value=0, max_value=side).map(
            lambda i: lo + i * (extent / side)
        )
        free = st.floats(min_value=lo - extent, max_value=lo + 2 * extent)
        return st.one_of(border, st.sampled_from((lo, hi)), free)

    points = draw(
        st.lists(
            st.tuples(coord(u.xmin, u.xmax), coord(u.ymin, u.ymax)),
            min_size=1,
            max_size=12,
        )
    )
    return u, side, points


_radii = st.one_of(
    st.sampled_from([0.0, -1.0]),
    st.floats(min_value=-10.0, max_value=4_000.0),
)


@given(grid=_grids(), radii=st.lists(_radii, min_size=1, max_size=4))
# a far corner past the last shard's ``x0 + extent`` edge
@example(grid=(Rect(-379.1, -379.1, 1285.0, 1285.0), 3, [(1285.0, 1285.0)]),
         radii=[1.0])
@settings(max_examples=200, deadline=None)
def test_static_router_is_the_plain_grid(grid, radii):
    u, side, points = grid
    router = ShardRouter(u, side)
    assert router.owner.tolist() == list(range(side * side))
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    want = [_static_shard_of(u, side, x, y) for x, y in points]
    assert [router.shard_of(x, y) for x, y in points] == want
    assert [router.cell_of(x, y) for x, y in points] == want
    assert router.cells_of(xs, ys).tolist() == want
    _assert_overlap_rows(router, u, side, points, radii)


@given(
    side=st.integers(min_value=1, max_value=4),
    cps=st.integers(min_value=2, max_value=4),
    log_cell=st.integers(min_value=0, max_value=6),
    origin=st.tuples(
        st.integers(min_value=-64, max_value=64),
        st.integers(min_value=-64, max_value=64),
    ),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_fine_cells_with_identity_owner_agree_with_the_plain_grid(
    side, cps, log_cell, origin, data
):
    # Fine cells of 2 ** log_cell, coordinates on the quarter lattice:
    # every quotient below is exact or far from an integer, so a point
    # on a border falls the same side of it at both cell widths.
    extent = side * cps * 2 ** log_cell
    u = Rect(origin[0], origin[1], origin[0] + extent, origin[1] + extent)
    router = ShardRouter(u, side, cps)
    assert router.cell_side == side * cps
    quarter = st.integers(
        min_value=-2 * extent, max_value=8 * extent
    ).map(lambda q: q / 4.0)
    points = data.draw(
        st.lists(
            st.tuples(quarter.map(lambda v: origin[0] + v),
                      quarter.map(lambda v: origin[1] + v)),
            min_size=1,
            max_size=10,
        )
    )
    radii = data.draw(
        st.lists(
            st.integers(min_value=-4, max_value=8 * extent).map(
                lambda q: q / 4.0
            ),
            min_size=1,
            max_size=4,
        )
    )
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    want = [_static_shard_of(u, side, x, y) for x, y in points]
    assert [router.shard_of(x, y) for x, y in points] == want
    cells = router.cells_of(xs, ys)
    assert cells.tolist() == [router.cell_of(x, y) for x, y in points]
    assert router.owner[cells].tolist() == want
    _assert_overlap_rows(router, u, side, points, radii)


# -- ShardLink.send_many against a loop of send --------------------------------


@st.composite
def _link_batches(draw):
    """A backbone, no plan or a lossy / delayed / crash and partition
    one, and one or two batches of rows of an inert kind, sized by a
    scalar or per row."""
    n = draw(st.integers(min_value=1, max_value=5))
    shard = st.integers(min_value=0, max_value=n - 1)
    seed = draw(st.integers(min_value=0, max_value=99))
    plan = draw(st.sampled_from([
        None,
        ShardFaultPlan(seed=seed, link_drop=0.3),
        ShardFaultPlan(link_delay=2),
        ShardFaultPlan(seed=seed, crashes=((draw(shard), 1, 3),),
                       partitions=((0, 1, 2, 4),)),
    ]))
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        rows = draw(
            st.lists(st.tuples(shard, shard), min_size=0, max_size=30)
        )
        sizes = st.integers(min_value=0, max_value=400)
        nbytes = (
            draw(sizes)
            if draw(st.booleans())
            else np.array(
                draw(st.lists(sizes, min_size=len(rows), max_size=len(rows))),
                dtype=np.int64,
            )
        )
        batches.append((
            draw(st.sampled_from(
                ("migrate", "forward", "borrow", "borrow_reply")
            )),
            np.array([s for s, _ in rows], dtype=np.int64),
            np.array([d for _, d in rows], dtype=np.int64),
            nbytes,
            draw(st.integers(min_value=0, max_value=5)),
        ))
    return n, plan, batches


@given(case=_link_batches())
@settings(max_examples=200, deadline=None)
def test_send_many_is_a_loop_of_send(case):
    n, plan, batches = case

    def link():
        stats = CommStats()
        return stats, ShardLink(n, stats, lambda msg: None, fault_plan=plan)

    (loop_stats, loop), (many_stats, many) = link(), link()
    for kind, srcs, dsts, nbytes, tick in batches:
        loop.begin_tick(tick)
        many.begin_tick(tick)
        if plan is not None:
            with pytest.raises(NetworkError, match="without a plan"):
                many.send_many(kind, srcs, dsts, nbytes)
            continue
        sizes = np.broadcast_to(nbytes, srcs.shape).tolist()
        for src, dst, size in zip(srcs.tolist(), dsts.tolist(), sizes):
            loop.send(kind, src, dst, size)
        many.send_many(kind, srcs, dsts, nbytes)
    for attr in ("sent_by_kind", "bytes_by_kind", "sent_by_pair"):
        assert getattr(many, attr) == getattr(loop, attr), attr
    assert many.dropped == loop.dropped == 0 and not many._queue
    assert many_stats.s2s_by_kind == loop_stats.s2s_by_kind
    assert many_stats.s2s_bytes_by_kind == loop_stats.s2s_bytes_by_kind
