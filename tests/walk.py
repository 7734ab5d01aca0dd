"""The per-query walk: the DKNN-P server of the differential tests.

:class:`WalkServer` is :class:`~repro.core.server.DknnServer` advanced
the way the protocol is written down: once per subround, query by query
in registration order, each query's state machine run until it blocks
or has nothing left to do this tick. Every index search is a
per-query ``knn_search`` / ``range_search_arrays`` call, every
freshness check one ``ObjectTable.stale`` call per query, and every
probe, send, publication, ``repair_scope`` call and event happens the
moment the query makes it. The build's ``on_subround`` runs the same
state machines step by step over all rows at once and releases those
effects in this walk's order; ``tests.helpers.reference_system`` swaps
this class in, so every ``recorded_run`` pair checks one against the
other.

It shares the build's per-row arithmetic (resolving planner hits,
light repairs, full-repair planning on one row, installs) and owns
what the row kernels replace: the walk order, the per-query searches
and freshness checks, and probes claimed at once.
:class:`HardenedWalk` is the walk over the self-healing server: the
method resolution order puts the walk's stepping over
:class:`~repro.core.hardened.HardenedDknnServer`'s hooks.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.hardened import HardenedDknnServer
from repro.core.regions import Installation
from repro.core.rows import (
    IDLE,
    WAIT_CANDS,
    WAIT_FOCAL,
    WAIT_LIGHT,
    WAIT_PLANNER,
)
from repro.core.server import _FLUSH_ORDER, DknnServer
from repro.index import knn

__all__ = ["HardenedWalk", "WalkServer"]


class WalkServer(DknnServer):
    """DKNN-P, one query at a time (module docstring)."""

    def on_subround(self, tick: int) -> None:
        self._tick = tick
        sim = self.sim
        if sim is not None and not self._sends_per_message(sim):
            self._outbox = {kind: [] for kind in _FLUSH_ORDER}
        for st in self._q.views:
            if not st.focal_down:
                self._advance(st.row, tick)
        if self._outbox is not None:
            self._flush(sim.plane_open())

    def _advance(self, row: int, tick: int) -> None:
        st = self._q.views[row]
        phase = self._q.phase
        focal = st.spec.focal_oid
        one = np.array([row], dtype=np.int64)
        # Loop until the query blocks on outstanding probes or finishes
        # the tick's obligations.
        while True:
            if phase[row] == IDLE:
                if self._light_eligible(one)[0]:
                    # The light path needs this tick's silent-object
                    # guarantee re-established first: run the planner
                    # against the *old* installation before deciding
                    # the swap from the violator + answer pool alone.
                    if st.planner_tick != tick:
                        st.planner_tick = tick
                        if not self._planner(row, tick):
                            return  # blocked; WAIT_PLANNER resumes us
                        if not st.light_ok:
                            continue  # encroacher: escalate to full
                    ready = self._begin_light(one)
                    if not ready[0].shape[0]:
                        return  # blocked on answer probes
                    if self._light_fails(*ready).shape[0]:
                        continue  # infeasible: the row is dirty again
                    return
                if st.dirty:
                    st.dirty = False
                    st.light_ok = False
                    st.violators = set()
                    if focal not in self.table:
                        # Focal has never reported (first tick
                        # ordering): stay dirty until it appears.
                        st.dirty = True
                        return
                    if not self.table.is_fresh(focal, tick):
                        pending = np.array([focal], dtype=np.int64)
                        self._claim(0, pending)
                        self._put(row, pending=pending)
                        phase[row] = WAIT_FOCAL
                        return
                    self._select_candidates(row, tick)
                    return
                if st.planner_tick != tick:
                    st.planner_tick = tick
                    if not self._planner(row, tick):
                        return  # blocked on planner probes
                    continue  # planner may have marked the query dirty
                return
            if phase[row] == WAIT_LIGHT:
                if self._await_fresh(st.pending, tick):
                    return
                cands = st.cand_ids
                if self._light_fails(
                    one, np.array([0, cands.shape[0]]), cands
                ).shape[0]:
                    continue
                return
            if phase[row] == WAIT_FOCAL:
                if self._await_fresh(st.pending, tick):
                    return
                self._select_candidates(row, tick)
                return
            if phase[row] == WAIT_CANDS:
                if self._await_fresh(st.pending, tick):
                    return
                self._finalize(row, st.cand_ids)
                return
            if phase[row] == WAIT_PLANNER:
                if self._await_fresh(st.pending, tick):
                    return
                self._resolve(np.array([row]), 0)
                if st.dirty:
                    continue  # an encroacher forced a repair
                return
            raise AssertionError(f"unknown phase {phase[row]}")

    def _await_fresh(self, oids: np.ndarray, tick: int) -> bool:
        """True while any of ``oids`` lacks a fresh position."""
        return bool(self.table.stale(oids, tick).shape[0])

    def _exclusions(self, focal: int) -> frozenset:
        """What one query's searches skip: its focal, and every id the
        build's searches skip."""
        return frozenset(self._search_exclude().tolist()) | {focal}

    def _probe_stale(self, oids: np.ndarray) -> np.ndarray:
        stale = self.table.stale(oids, self._tick)
        self._claim(0, stale)
        return stale

    def _planner(self, row: int, tick: int) -> bool:
        """Scan for uninformed objects near the boundary; returns False
        when blocked on probes."""
        st = self._q.views[row]
        inst = st.install
        if inst is None or math.isinf(inst.threshold):
            return True
        _, hits = knn.range_search_arrays(
            self.table.grid, *inst.anchor,
            inst.monitor_radius(self.params.uncertainty),
            exclude=self._exclusions(st.spec.focal_oid), meter=self.meter,
        )
        new = [oid for oid in hits.tolist() if oid not in st.informed]
        # what ``event_idle`` reads, recorded as the build's scan does
        mark = self._zone_mark()
        if mark is not None:
            self._q.scan_mark[row] = -1 if new else mark
        if not new:
            return True
        st.planner_new = np.array(new, dtype=np.int64)
        pending = self._probe_stale(st.planner_new)
        if pending.shape[0]:
            self._put(row, pending=pending)
            self._q.phase[row] = WAIT_PLANNER
            return False
        self._resolve(np.array([row]), 0)
        return True

    def _select_candidates(self, row: int, tick: int) -> None:
        """Search the ``k+1`` nearest, probe the candidate circle's stale
        members, and finalize once none is stale (or install at once
        when fewer than ``k+1`` objects are known)."""
        st = self._q.views[row]
        spec = st.spec
        grid = self.table.grid
        qx, qy = self.table.last_position(spec.focal_oid)
        exclude = self._exclusions(spec.focal_oid)
        reported = knn.knn_search(
            grid, qx, qy, spec.k + 1, exclude=exclude, meter=self.meter
        )
        if len(reported) <= spec.k:
            inst = Installation(
                (qx, qy), tuple(reported), math.inf, self.params.s_cap
            )
            self._install(row, inst, [], 0)
            self._settle(row)
            return
        radius = self._candidate_radius(reported[-1][0])
        if self.ownership_probe is not None:
            self.ownership_probe.repair_scope(spec.qid, qx, qy, radius)
        _, cands = knn.range_search_arrays(
            grid, qx, qy, radius, exclude=exclude, meter=self.meter
        )
        pending = self._probe_stale(cands)
        self._put(row, pending=pending, cand=cands)
        self._q.phase[row] = WAIT_CANDS
        if not pending.shape[0]:
            self._finalize(row, cands)

    def _finalize(self, row: int, cands: np.ndarray) -> None:
        ((inst, outsiders),) = self._plan_full(
            np.array([row]), np.array([0, cands.shape[0]]), cands
        )
        self._install(row, inst, outsiders, 0)
        self._settle(row)

    def _put(self, row: int, pending=None, cand=None) -> None:
        """Set one row's pending / candidate ids (None: keep them)."""
        self._write(
            np.array([row]),
            *(None if ids is None else (np.array([0, ids.shape[0]]), ids)
              for ids in (pending, cand)),
        )

    def _settle(self, row: int) -> None:
        """An installed row waits on nothing."""
        self._clear(np.array([row]))
        self._q.phase[row] = IDLE


class HardenedWalk(WalkServer, HardenedDknnServer):
    """The walk over the self-healing server."""

    def _await_fresh(self, oids: np.ndarray, tick: int) -> bool:
        """The stale stragglers of a wait are re-probed
        (:meth:`HardenedDknnServer._reprobe`)."""
        stale = self.table.stale(oids, tick)
        for oid in sorted(stale.tolist()):
            self._claim(0, np.array([oid], dtype=np.int64))
        return bool(stale.shape[0])
