"""Shared server scaffolding used by every algorithm.

:class:`BaseServer` owns the pieces every server variant needs — the
query table, a cost meter, and the published-answer map — and defines
the small protocol every algorithm's server follows:

* ``register_query`` before the simulation starts;
* ``answers[qid]`` always holds the most recent published answer as a
  list of object ids (ascending ``(distance, oid)`` where the algorithm
  knows distances);
* ``answer_history`` optionally records per-tick answers for accuracy
  evaluation (enabled via ``record_history``).

It also defines the *query-ownership seam* the sharded tier
(:mod:`repro.server.sharding`) hooks into without the algorithms
knowing about shards:

* ``export_query_state(qid)`` returns a wire-sizable snapshot of one
  query's server-side state — what a query handoff ships between shard
  servers, what buddy replication streams as deltas, and what the
  durability journal (:mod:`repro.server.durability`) records in its
  ``own``/``state`` WAL entries and checkpoints. Because all three
  consumers share this one format, "can be handed off" implies "can be
  replicated" implies "can be recovered from the durable store". The
  base implementation covers any server (the published answer);
  algorithm servers override it with their richer state.
* ``ownership_probe`` (default ``None``) receives
  ``repair_scope(qid, cx, cy, radius)`` whenever the server reads its
  object table over a spatial scope to repair a query — the seam the
  sharded tier uses to account cross-shard candidate borrowing. Table-
  less servers (DKNN-B/G) never call it; their cross-shard traffic is
  uplink forwarding, which the tier sees on its own.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ProtocolError
from repro.metrics.cost import CostMeter
from repro.net.node import ServerNodeBase
from repro.obs.telemetry import NULL_TELEMETRY
from repro.server.query_table import QuerySpec, QueryTable

__all__ = ["BaseServer"]


class BaseServer(ServerNodeBase):
    """Common state and answer-publication plumbing for servers."""

    def __init__(self, record_history: bool = False) -> None:
        super().__init__()
        self.queries = QueryTable()
        self.meter = CostMeter()
        #: observability handle; the simulator installs its own copy
        #: when it takes ownership of this server.
        self.telemetry = NULL_TELEMETRY
        self.answers: Dict[int, List[int]] = {}
        #: qid -> True while the published answer is known-degraded
        #: (stale replica after a failover, shed repair traffic, ...).
        #: Algorithm servers and the sharded tier both write here; the
        #: experiment runner feeds it to ``AccuracyTracker.observe``.
        self.degraded: Dict[int, bool] = {}
        #: query-ownership seam (see module docstring): the sharded
        #: tier installs an object with ``repair_scope(qid, cx, cy, r)``.
        self.ownership_probe: Optional[Any] = None
        self.record_history = record_history
        #: qid -> list of (tick, answer ids) snapshots, if recording.
        self.answer_history: Dict[int, List[tuple]] = {}
        self._started = False

    def register_query(self, spec: QuerySpec) -> None:
        """Register a continuous query; only allowed before the run."""
        if self._started:
            raise ProtocolError(
                "register_query after the simulation started is not "
                "supported by this server"
            )
        self.queries.register(spec)
        self.answers[spec.qid] = []
        self.degraded.setdefault(spec.qid, False)
        if self.record_history:
            self.answer_history[spec.qid] = []

    def publish(self, qid: int, answer_ids: List[int]) -> None:
        """Record ``answer_ids`` as the current answer of ``qid``."""
        self.answers[qid] = list(answer_ids)

    def export_query_state(self, qid: int) -> Dict[str, Any]:
        """Snapshot of one query's server-side state, for handoff,
        replication, and the durability journal.

        The returned dict must be sizable by
        :func:`repro.net.message.payload_size` (primitives and tuples
        only) and *comparable by value* (the replication and journal
        delta detection is ``==`` against the last snapshot): the
        sharded tier ships it between shard servers when query
        ownership moves, streams it to the owner's buddy, and appends
        it to the owner's WAL. Subclasses extend it with their own
        protocol state.
        """
        return {"qid": qid, "answer": tuple(self.answers.get(qid, ()))}

    def on_tick_start(self, tick: int) -> None:
        self._started = True

    def on_tick_end(self, tick: int) -> None:
        if self.record_history:
            for qid, answer in self.answers.items():
                self.answer_history[qid].append((tick, list(answer)))
