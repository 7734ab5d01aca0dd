"""The columnar message plane: struct-of-arrays message batches.

Per-message :class:`~repro.net.message.Message` objects dominate the
fast path of the message-bound protocols (DKNN-P, CPM) and the collect
rounds of the tableless ones (DKNN-B/G): every location update or
collect reply costs a payload object, a ``Message``, a
``payload_size`` walk and two ``Counter`` updates. A
:class:`ColumnarBatch` carries one whole flight of messages — one
kind, or one tick's reports, all of one tick — as numpy columns
(source/destination ids, payload coordinates), so the channel, the
stats layer, the sharded router and the server ingest it in O(columns)
vectorized passes instead of O(messages) interpreter work.

Semantics contract (pinned by ``tests/test_plane.py``):

* a batch occupies exactly one queue slot in the channel. An uplink
  batch stands where the scalar path would have queued its
  **contiguous** run of messages. A downlink batch is one kind of a
  server subround's flush (``DknnServer.on_subround``): the subround's
  downlinks leave grouped by kind, ``PROBE``, ``INSTALL_REGION``,
  ``REVOKE_REGION``, ``ANSWER_PUSH``, in send order within each kind,
  and the reference program with the plane closed sends the very same
  order one message at a time. Grouping is safe because, per
  (receiver, query), a subround sends one install, or a planner band
  followed by a repair's re-install or revoke — installs, then at most
  one revoke, which the kind order keeps — while a probe or an answer
  push touches no region and messages about different queries touch
  disjoint state;
* a flight has one kind, except a client phase's **report flight**:
  a tick's ``REPORT_KINDS`` uplinks in the per-object order (ascending
  oid, a sender's rows contiguous). Grouped by kind they would reorder
  the server's events and, on the sharded tier, what a focal row's
  handoff exports;
* accounting is identical in every legacy :class:`CommStats` counter:
  ``record_send_batch`` adds, kind by kind (:meth:`~ColumnarBatch.
  split`), the counts and bytes the per-message path would —
  ``total_bytes`` sums each row's wire size, which differs from row to
  row in a flight of answer pushes or reports — and delivery adds the
  same reception counts (batches are never broadcast);
* a downlink batch carries its payloads as one table: ``payloads``,
  each distinct payload once, and ``pidx``, the int column naming
  each row's payload. An uplink batch carries coordinates instead
  (``xs`` / ``ys``) and rebuilds its payloads with ``payload_ctor``;
* a flight names its queries one way: a per-row ``qids`` column (-1:
  none) — a report flight's rows, or the ``COLLECT_REPLY`` uplinks one
  DKNN-B/G collect round draws, every row naming that round's query.
  The sharded tier ledgers such a flight row by row as the inner engine
  ingests it, so a reply that lands off its query's owner is forwarded;
* a receiver takes a flight whole or raises
  :class:`~repro.errors.ProtocolError`: nothing declines a flight and
  nothing expands one on its way. :meth:`ColumnarBatch.materialize`
  rebuilds the exact scalar ``Message`` objects a batch stands for —
  the sharded tier routes a single row through it, and the tests use it
  as the per-message reference.

Batches only exist where a client phase is attached, and a build gets
one only where the transport takes flights whole: radio
:class:`~repro.net.faults.FaultPlan` channels advertise
``supports_columnar = False`` (per-message drop/dup/delay decisions
need per-message sends to keep the fault RNG stream identical), and a
sharded tier under a ``ShardFaultPlan`` or an admission policy decides
per message (``per_message``); those builds run the per-object loop. A trace does not close the plane: a
batch path emits its protocol events in the scalar order, so a traced
run carries the same batches as a bare one and its protocol stream
still matches the reference path event for event.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NetworkError
from repro.net.message import (
    HEADER_BYTES,
    SERVER_ID,
    Message,
    MessageKind,
    payload_size,
)

__all__ = ["ColumnarBatch", "MIN_BATCH", "REPORT_KINDS"]

#: shortest run a client phase ships as an uplink batch: below it the
#: batch's constant (array assembly, one vectorized handler call) costs
#: more than it saves. A server subround's flush and a client phase's
#: report flight ignore it (one batch per kind, one flight per tick,
#: whatever its size); the index's search break-even is its own.
MIN_BATCH = 8

#: the kinds of a report flight's rows, by their ``codes`` entry.
REPORT_KINDS = (MessageKind.LOCATION_UPDATE, MessageKind.VIOLATION,
                MessageKind.QUERY_MOVE)


class ColumnarBatch:
    """One flight of messages as struct-of-arrays columns.

    Exactly one of ``srcs`` / ``dsts`` is an array:

    * **uplink batch** — ``srcs`` is an int array, ``dst`` is the
      scalar receiver (``SERVER_ID``). ``xs`` / ``ys`` carry per-message
      payload coordinates (or are ``None`` for coordinate-free
      payloads); ``qids``, when given, names each row's query;
      ``payload_ctor`` rebuilds one scalar payload on materialization
      — ``ctor(x, y)``, or ``ctor(qid, x, y)`` on a flight with
      ``qids`` — and ``payload_nbytes`` is the uniform wire size of one
      payload;
    * **report flight** — an uplink batch with ``kind`` None whose row
      ``i`` is a ``REPORT_KINDS[codes[i]]`` message about query
      ``qids[i]`` (-1: none) stamped ``epochs[i]``, of wire size
      ``payload_nbytes[i]``; ``payload_ctor(kind, qid, x, y, epoch)``;
    * **downlink batch** — ``src`` is the scalar sender (``SERVER_ID``),
      ``dsts`` is an int array of mobile receivers, and row ``i``
      carries ``payloads[pidx[i]]``.

    ``total_bytes`` matches the summed ``Message.size`` of the flight
    exactly.
    """

    __slots__ = (
        "kind",
        "src",
        "dst",
        "srcs",
        "dsts",
        "xs",
        "ys",
        "payload_nbytes",
        "payload_ctor",
        "payloads",
        "pidx",
        "codes", "qids", "epochs",
        "sent_tick",
        "total_bytes",
    )

    def __init__(
        self,
        kind: Optional[MessageKind],
        *,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        srcs: Optional[np.ndarray] = None,
        dsts: Optional[np.ndarray] = None,
        xs: Optional[np.ndarray] = None,
        ys: Optional[np.ndarray] = None,
        payload_nbytes=0,
        payload_ctor: Optional[Callable[..., Any]] = None,
        payloads: Optional[Sequence[Any]] = None,
        pidx: Optional[np.ndarray] = None,
        codes: Optional[np.ndarray] = None,
        qids: Optional[np.ndarray] = None,
        epochs: Optional[np.ndarray] = None,
        sent_tick: int = 0,
    ) -> None:
        if (srcs is None) == (dsts is None):
            raise NetworkError(
                "a columnar batch needs exactly one of srcs / dsts"
            )
        if srcs is not None and dst is None:
            raise NetworkError("uplink batch needs a scalar dst")
        if dsts is not None and src is None:
            raise NetworkError("downlink batch needs a scalar src")
        if (xs is None) != (ys is None):
            raise NetworkError("xs and ys must be given together")
        if (dsts is not None) != (payloads is not None and pidx is not None):
            raise NetworkError(
                "a downlink batch, and only one, carries payloads and pidx"
            )
        if (kind is None) != (codes is not None and srcs is not None):
            raise NetworkError("only an uplink report flight has no kind")
        self.kind = kind
        self.src = src
        self.dst = dst
        self.srcs = srcs
        self.dsts = dsts
        self.xs = xs
        self.ys = ys
        self.payload_nbytes = (
            payload_nbytes if codes is not None else int(payload_nbytes)
        )
        self.payload_ctor = payload_ctor
        self.payloads = payloads
        self.pidx = pidx
        self.codes, self.qids, self.epochs = codes, qids, epochs
        self.sent_tick = sent_tick
        if codes is not None:
            payload_bytes = int(payload_nbytes.sum())
        elif dsts is None:
            payload_bytes = srcs.shape[0] * self.payload_nbytes
        else:
            sizes = np.array([payload_size(p) for p in payloads], np.int64)
            payload_bytes = int(sizes[pidx].sum())
        self.total_bytes = HEADER_BYTES * self.count + payload_bytes

    # -- views ---------------------------------------------------------------

    @property
    def count(self) -> int:
        arr = self.srcs if self.srcs is not None else self.dsts
        return int(arr.shape[0])

    def direction(self) -> str:
        """Same vocabulary as :meth:`Message.direction` (never area)."""
        if self.srcs is not None and self.dst == SERVER_ID:
            return "uplink"
        return "downlink"

    def split(self) -> List[Tuple[MessageKind, int, int]]:
        """``(kind, messages, bytes)`` of each kind the flight carries:
        its one kind, or a report flight's kinds in
        :data:`REPORT_KINDS` order."""
        if self.codes is None:
            return [(self.kind, self.count, self.total_bytes)]
        n = len(REPORT_KINDS)
        sizes = HEADER_BYTES + self.payload_nbytes
        counts = np.bincount(self.codes, minlength=n).tolist()
        sums = np.bincount(self.codes, weights=sizes, minlength=n).tolist()
        rows = zip(REPORT_KINDS, counts, sums)
        return [(kind, c, int(b)) for kind, c, b in rows if c]

    def rows(self, lo: int, hi: int) -> "ColumnarBatch":
        """Rows ``[lo, hi)`` of an uplink flight, a flight of their own."""
        part = copy.copy(self)
        for name in ("srcs", "xs", "ys", "codes", "qids", "epochs"):
            col = getattr(self, name)
            if col is not None:
                setattr(part, name, col[lo:hi])
        if self.codes is None:
            part.total_bytes = (HEADER_BYTES + self.payload_nbytes) * (hi - lo)
            return part
        part.payload_nbytes = nbytes = self.payload_nbytes[lo:hi]
        part.total_bytes = HEADER_BYTES * (hi - lo) + int(nbytes.sum())
        return part

    # -- the scalar messages ------------------------------------------------

    def materialize(self) -> List[Message]:
        """Expand into the scalar messages this batch replaced.

        Order matches the scalar send order (the column order).
        """
        n = self.count
        ctor = self.payload_ctor
        kinds = [self.kind] * n
        if self.codes is not None:
            kinds = [REPORT_KINDS[c] for c in self.codes.tolist()]
            payloads = list(map(
                ctor, kinds, self.qids.tolist(), self.xs.tolist(),
                self.ys.tolist(), self.epochs.tolist(),
            ))
        elif self.payloads is not None:
            payloads = [self.payloads[i] for i in self.pidx.tolist()]
        elif ctor is None:
            payloads = [None] * n
        else:
            cols = [self.xs.tolist(), self.ys.tolist()]
            if self.qids is not None:
                cols.insert(0, self.qids.tolist())
            payloads = list(map(ctor, *cols))
        if self.srcs is not None:
            srcs, dsts = self.srcs.tolist(), [self.dst] * n
        else:
            srcs, dsts = [self.src] * n, self.dsts.tolist()
        return [
            Message(kind, src, dst, payload, sent_tick=self.sent_tick)
            for kind, src, dst, payload in zip(kinds, srcs, dsts, payloads)
        ]

    def __repr__(self) -> str:
        label = "report" if self.kind is None else self.kind.value
        return (
            f"ColumnarBatch({label} x{self.count}, "
            f"{self.direction()}, {self.total_bytes}B, "
            f"t={self.sent_tick})"
        )
