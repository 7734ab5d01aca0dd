"""The DKNN-P server's array state: its queries as rows, its probes in
flight.

:class:`QueryRows` holds one row per registered query, in registration
order. A query's per-tick fields are columns (:data:`PHASES` codes,
flags, the planner tick), its pending and candidate ids one flat id
array with offsets each (:class:`Runs`), and :class:`QueryState` is a
row's view: the query's spec, its sets and installation, and the
columns as attributes. :class:`InFlight` is the set of ids with an
unanswered probe. :class:`~repro.core.server.DknnServer` advances the
rows a step at a time.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.regions import Installation
from repro.errors import ProtocolError
from repro.server.query_table import QuerySpec

__all__ = [
    "IDLE",
    "NO_IDS",
    "PHASES",
    "WAIT_CANDS",
    "WAIT_FOCAL",
    "WAIT_LIGHT",
    "WAIT_PLANNER",
    "InFlight",
    "QueryRows",
    "QueryState",
    "Runs",
    "lengths",
    "offsets",
]

IDLE, WAIT_FOCAL, WAIT_CANDS, WAIT_PLANNER, WAIT_LIGHT = range(5)
#: phase names by code (``export_query_state`` ships the name).
PHASES = ("idle", "wait_focal", "wait_cands", "wait_planner", "wait_light")

NO_IDS = np.empty(0, dtype=np.int64)
_NOBODY = np.iinfo(np.int32).max


def offsets(lens) -> np.ndarray:
    """Run offsets from run lengths: ``[0, l0, l0 + l1, ...]``."""
    out = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=out[1:])
    return out


def lengths(seg: np.ndarray) -> np.ndarray:
    """Run lengths from run offsets (``np.diff``, without its call
    overhead on the short arrays of a subround)."""
    return seg[1:] - seg[:-1]


class Runs:
    """One int64 id run per query row as one flat array with offsets:
    row ``r``'s ids are ``ids[seg[r]:seg[r + 1]]``."""

    __slots__ = ("ids", "seg")

    def __init__(self) -> None:
        self.ids = NO_IDS
        self.seg = np.zeros(1, dtype=np.int64)

    def add_row(self) -> None:
        self.seg = np.append(self.seg, self.seg[-1])

    def of(self, row: int) -> np.ndarray:
        return self.ids[self.seg[row]:self.seg[row + 1]]

    def rows(self) -> np.ndarray:
        """The row of every entry of ``ids``."""
        seg = self.seg
        return np.repeat(np.arange(seg.shape[0] - 1), lengths(seg))

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The runs of ``rows``, in that order: ``(seg, ids)``."""
        lens = lengths(self.seg)[rows]
        seg = offsets(lens)
        at = np.repeat(self.seg[rows] - seg[:-1], lens) + np.arange(seg[-1])
        return seg, self.ids[at]

    def put(self, writes: List[Tuple[np.ndarray, ...]]) -> None:
        """Replace the runs of each write's rows — ``(rows, seg, ids)``,
        a later write winning — in one gather."""
        start = self.seg[:-1].copy()
        lens = lengths(self.seg)
        pieces = [self.ids]
        base = self.ids.shape[0]
        for rows, seg, ids in writes:
            start[rows] = base + seg[:-1]
            lens[rows] = lengths(seg)
            pieces.append(ids)
            base += ids.shape[0]
        seg = offsets(lens)
        at = np.repeat(start - seg[:-1], lens) + np.arange(seg[-1])
        self.ids, self.seg = np.concatenate(pieces)[at], seg


def _column(name: str, get=bool, put=None):
    """A row view's property over the column ``name`` of its rows."""

    def fget(st):
        return get(getattr(st._table, name)[st.row])

    def fset(st, value):
        column = getattr(st._table, name)
        column[st.row] = value if put is None else put(value)

    return property(fget, fset)


class QueryState:
    """One query's row: its spec, sets and installation; the per-tick
    fields are views of the columns."""

    __slots__ = (
        "spec",
        "row",
        "_table",
        "install",
        "informed",
        "violators",
        "light_violators",
        "planner_new",
    )

    phase = _column("phase", PHASES.__getitem__, PHASES.index)
    dirty = _column("dirty")
    light_ok = _column("light_ok")
    focal_down = _column("focal_down")
    planner_tick = _column("planner_tick", int)
    pending = property(lambda st: st._table.pend.of(st.row))
    cand_ids = property(lambda st: st._table.cand.of(st.row))

    def __init__(self, spec: QuerySpec, row: int, rows: "QueryRows") -> None:
        self.spec = spec
        self.row = row
        self._table = rows
        self.install: Optional[Installation] = None
        self.informed: Set[int] = set()
        #: objects whose band violation marked this query dirty.
        self.violators: Set[int] = set()
        #: violators being handled by the in-flight light repair.
        self.light_violators: Set[int] = set()
        #: the planner's uninformed hits, while their probes are out.
        self.planner_new = NO_IDS


class QueryRows:
    """Every registered query as a row (module docstring)."""

    #: ``(column, dtype, initial value)``: phase; dirty — a repair is
    #: owed (initially: the first installation); light_ok — every dirty
    #: trigger this round is light-repairable; focal_down — the focal
    #: node is suspected crashed (fault-tolerant mode), the query
    #: frozen with its last answer until the focal is heard from again;
    #: banded — the installation holds bands (finite threshold);
    #: scan_mark — the object table's log mark at the row's last zone
    #: scan, if that scan searched this installation and found no
    #: uninformed object (else -1; ``DknnServer._zone_hits``).
    COLUMNS = (
        ("focal", np.int64, 0),
        ("k", np.int64, 0),
        ("phase", np.int8, IDLE),
        ("dirty", bool, True),
        ("light_ok", bool, False),
        ("focal_down", bool, False),
        ("banded", bool, False),
        ("planner_tick", np.int64, -1),
        ("scan_mark", np.int64, -1),
    )

    def __init__(self) -> None:
        for name, dtype, _ in self.COLUMNS:
            setattr(self, name, np.empty(0, dtype=dtype))
        #: what a row's repair waits on, and its candidate set.
        self.pend = Runs()
        self.cand = Runs()
        #: the row views, by row; ``by_qid`` the same by query id.
        self.views: List[QueryState] = []
        self.by_qid: Dict[int, QueryState] = {}

    def add(self, spec: QuerySpec) -> QueryState:
        """Append ``spec``'s row."""
        st = QueryState(spec, len(self.views), self)
        self.views.append(st)
        self.by_qid[spec.qid] = st
        initial = {"focal": spec.focal_oid, "k": spec.k}
        for name, _, value in self.COLUMNS:
            column = getattr(self, name)
            setattr(self, name, np.append(
                column, np.array(initial.get(name, value), column.dtype)
            ))
        self.pend.add_row()
        self.cand.add_row()
        return st


class InFlight:
    """Ids with an unanswered probe: oid-indexed flags + a live count.

    Set-like for the scalar callers (``add`` / ``discard`` / ``in`` /
    truth / ``len`` / ascending iteration); :meth:`claim`,
    :meth:`release` and :meth:`first_free` are the array forms the
    repair round uses. Array arguments of ``claim`` / ``release`` hold
    non-negative ids, unique within one call.
    """

    __slots__ = ("_flag", "_n", "_first")

    def __init__(self) -> None:
        self._flag = np.zeros(64, dtype=bool)
        self._n = 0
        #: scratch for :meth:`first_free`, all ``_NOBODY`` between calls.
        self._first = np.full(64, _NOBODY, dtype=np.int32)

    def _reach(self, max_oid: int) -> None:
        cap = self._flag.shape[0]
        if max_oid >= cap:
            size = max(max_oid + 1, 2 * cap)
            grown = np.zeros(size, dtype=bool)
            grown[:cap] = self._flag
            self._flag = grown
            self._first = np.full(size, _NOBODY, dtype=np.int32)

    def __contains__(self, oid: int) -> bool:
        return 0 <= oid < self._flag.shape[0] and bool(self._flag[oid])

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(np.flatnonzero(self._flag).tolist())

    # reach: scalar set use in tests; the product claims arrays
    def add(self, oid: int) -> None:
        if oid < 0:
            raise ProtocolError(f"cannot probe negative object id {oid}")
        if oid not in self:
            self._reach(oid)
            self._flag[oid] = True
            self._n += 1

    def discard(self, oid: int) -> None:
        if oid in self:
            self._flag[oid] = False
            self._n -= 1

    def first_free(self, oids: np.ndarray) -> np.ndarray:
        """Per entry of ``oids`` (non-negative): not in flight, and no
        earlier entry names the same id."""
        if not oids.shape[0]:
            return np.zeros(0, dtype=bool)
        self._reach(int(oids.max()))
        at = np.arange(oids.shape[0], dtype=np.int32)
        first = self._first
        np.minimum.at(first, oids, at)
        mine = first[oids] == at
        first[oids] = _NOBODY
        return mine & ~self._flag[oids]

    def claim(self, oids: np.ndarray) -> np.ndarray:
        """Mark ``oids`` in flight; returns those that were not yet,
        in input order."""
        if oids.shape[0]:
            self._reach(int(oids.max()))
            oids = oids[~self._flag[oids]]
            self._flag[oids] = True
            self._n += oids.shape[0]
        return oids

    def release(self, oids: np.ndarray) -> None:
        """Clear every id of ``oids`` that is in flight (one scatter)."""
        if self._n:
            oids = oids[oids < self._flag.shape[0]]
            oids = oids[self._flag[oids]]
            self._flag[oids] = False
            self._n -= oids.shape[0]
