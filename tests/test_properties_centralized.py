"""Property: SEA's and CPM's many-row repair equals the per-query one.

The build answers a tick's dirty queries together
(``AnswerRegionServer._repair_rows``: one call of an index entry per
kind, CPM's bounds out of one gather) and reads an
every-object report batch by slice. The reference
(:mod:`tests.per_query`) repairs one query at a time. Both servers
ingest the same drawn reports — one columnar batch, scalar messages, or
scalar runs around a batch; the batch one ascending run, a run with
gaps, or permuted — and after every tick they must agree on the
answers, the order of the answer pushes, every ``CostMeter`` category
(zero entries included) and the answer-region tables.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import CpmServer, SeaCnnServer
from repro.core.protocol import LocationUpdate
from repro.geometry import Rect
from repro.net.message import SERVER_ID, Message, MessageKind
from repro.net.plane import ColumnarBatch
from repro.server import QuerySpec
from tests.per_query import PER_QUERY

SIZE = 1000.0


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 40))
    n_queries = draw(st.integers(1, 16))
    return {
        "server": draw(st.sampled_from([SeaCnnServer, CpmServer])),
        "cells": draw(st.integers(1, 8)),
        # k past n: fewer objects than k, and short answers
        "queries": [
            QuerySpec(qid=qid, focal_oid=draw(st.integers(0, n - 1)),
                      k=draw(st.integers(1, 12)))
            for qid in range(n_queries)
        ],
        "n": n,
        "ticks": draw(st.integers(2, 6)),
        "shape": draw(st.sampled_from(["batch", "scalar", "split"])),
        "order": draw(st.sampled_from(["run", "gap", "permuted"])),
        # a coarse lattice makes exact distance ties
        "step": draw(st.sampled_from([0.0, 50.0, 250.0])),
        "moving": draw(st.floats(0.0, 1.0)),
        "seed": draw(st.integers(0, 2**16)),
    }


def _ticks(sc):
    """Per tick, the report runs: ``(how, ids, xs, ys)``."""
    rng = np.random.default_rng(sc["seed"])
    n = sc["n"]

    def draw_xy(m):
        xy = rng.uniform(0.0, SIZE, (2, m))
        if sc["step"]:
            xy = np.round(xy / sc["step"]) * sc["step"]
        return xy

    xs, ys = draw_xy(n)
    out = []
    for _ in range(sc["ticks"]):
        ids = np.arange(n)
        if sc["order"] == "gap" and n > 2:
            keep = rng.random(n) < 0.8
            keep[[0, -1]] = True  # the ends stay: the gaps are inside
            keep[rng.integers(1, n - 1)] = False
            ids = ids[keep]
        lo, hi = ids.shape[0] // 4, 3 * ids.shape[0] // 4
        if sc["shape"] == "batch":
            runs = [("batch", ids)]
        elif sc["shape"] == "scalar":
            runs = [("scalar", ids)]
        else:
            runs = [
                ("scalar", ids[:lo]), ("batch", ids[lo:hi]),
                ("scalar", ids[hi:]),
            ]
        if sc["order"] == "permuted":
            runs = [(how, rng.permutation(part)) for how, part in runs]
        out.append([(how, part, xs[part], ys[part]) for how, part in runs])
        move = rng.random(n) < sc["moving"]
        xs[move], ys[move] = draw_xy(int(move.sum()))
    return out


def _server(cls, sc, pushes):
    server = cls(Rect(0.0, 0.0, SIZE, SIZE), sc["cells"])
    for spec in sc["queries"]:
        server.register_query(spec)
    server.send = lambda dst, kind, payload: pushes.append(
        (dst, payload.qid, payload.ids)
    )
    return server


def _ingest(server, runs):
    for how, ids, xs, ys in runs:
        if how == "batch":
            if ids.shape[0]:
                server.on_uplink_batch(ColumnarBatch(
                    MessageKind.TICK_REPORT, srcs=ids.astype(np.int64),
                    dst=SERVER_ID, xs=xs.copy(), ys=ys.copy(),
                    payload_nbytes=16, payload_ctor=LocationUpdate,
                ))
            continue
        for oid, x, y in zip(ids.tolist(), xs.tolist(), ys.tolist()):
            server.on_message(Message(
                MessageKind.TICK_REPORT, oid, SERVER_ID, LocationUpdate(x, y)
            ))


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_many_row_repairs_equal_the_per_query_server(sc):
    build_pushes, ref_pushes = [], []
    build = _server(sc["server"], sc, build_pushes)
    ref = _server(PER_QUERY[sc["server"]], sc, ref_pushes)
    for tick, runs in enumerate(_ticks(sc), start=1):
        for server in (build, ref):
            server.on_tick_start(tick)
            _ingest(server, runs)
            server.on_subround(tick)
        assert build.answers == ref.answers
        assert build_pushes == ref_pushes
        assert dict(build.meter.units) == dict(ref.meter.units)
        assert build._region_cells == ref._region_cells
        assert build._cell_map == ref._cell_map
        # answers come out of the grid, which never drops an object:
        # CPM's bound needs no fall-back for a de-registered member
        for ids in build.answers.values():
            assert all(oid in build.grid for oid in ids)
