"""Structured trace events and pluggable sinks.

A :class:`TraceEvent` is one observation at one tick: a ``kind`` string
(dotted, e.g. ``server.repair``), the tick it happened on, and a flat
``fields`` dict of JSON-serializable values. Events flow through a
:class:`~repro.obs.telemetry.Telemetry` into at most one sink; a
handle without a sink is disabled, and instrumented call sites guard on
``telemetry.enabled`` before *constructing* an event, so a disabled run
allocates no event object — its overhead is one attribute load and one
branch per seam.

:class:`RingSink`
    Keeps the last ``capacity`` events in memory (tests, REPL).
:class:`JsonlSink`
    Appends one JSON object per event to a file (``--trace`` in the
    experiments CLI); read back with :func:`read_jsonl`.

Event kinds come in three scopes, and the split carries the repo's
bit-identity contract into observability:

* **protocol** scope (``server.*``, ``fault.*``): emitted only from
  code the build shares with the per-object reference loop
  (``tests/helpers.py``), with deterministic fields. A built system
  must produce the *identical* protocol event stream as its reference
  twin — including under a FaultPlan. ``tests/test_obs.py`` pins this.
* **perf** scope (``tick.phase``, ``fastpath.*``): timings and
  dispatch decisions. Legitimately different from the reference.
* **meta** scope (``run.*``): run lifecycle markers.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.errors import ConfigError

__all__ = [
    "TraceEvent",
    "TraceSink",
    "RingSink",
    "JsonlSink",
    "PROTOCOL_KINDS",
    "PERF_KINDS",
    "META_KINDS",
    "protocol_events",
    "read_jsonl",
]

#: Deterministic protocol-level kinds: identical streams, build vs
#: per-object reference.
PROTOCOL_KINDS = frozenset(
    {
        "server.violation",
        "server.query_move",
        "server.repair",
        "server.collect",
        "server.renewal",
        "server.stale_violation",
        "fault.drop",
        "fault.dup",
        "fault.delay",
        "fault.retransmit",
        "fault.suspect",
        "fault.revive",
        # Sharded-tier events (repro.server.sharding): routing and
        # ownership are functions of reported positions, so these are
        # deterministic too.
        "shard.handoff",
        "shard.borrow",
        "shard.forward",
        # Shard-tier failure model (ShardFaultPlan runs only): crash
        # suspicion/failover, restore hand-backs, partition edges,
        # admission-control sheds, and degraded-window closures. All
        # deterministic given the plan.
        "shard.failover",
        "shard.restore",
        "shard.partition",
        "shard.shed",
        "shard.recovered",
        # Durability (PR 7): compacting checkpoints, cold-restart
        # recoveries (WAL replay or amnesia), and chaos-harness
        # invariant violations. Deterministic given the plan.
        "shard.checkpoint",
        "shard.recover",
        "chaos.violation",
        # Elastic rebalancing + admission control (DESIGN §14): cell
        # migrations are pure functions of the windowed load counters
        # and the policy seed, and defers of the admission queue are
        # functions of the per-tick arrival order — deterministic,
        # and never emitted when the policies are off.
        "shard.rebalance",
        "shard.migrate",
        "shard.defer",
    }
)

#: Timing / dispatch kinds: may differ from the reference loop's.
PERF_KINDS = frozenset(
    {
        "tick.phase",
        "fastpath.candidates",
        "shard.load",
        "shard.health",
        "shard.wal",
    }
)

#: Run lifecycle markers emitted by the harness, not the protocols.
#: ``comm.rate`` is the end-of-run message-rate roll-up (msgs/tick by
#: kind plus the columnar plane's batched/materialized ledger);
#: ``engine.stats`` is the event engine's end-of-run queue gauge.
META_KINDS = frozenset({"run.start", "run.end", "comm.rate", "engine.stats"})


class TraceEvent:
    """One observation: ``(tick, kind, fields)``."""

    __slots__ = ("tick", "kind", "fields")

    def __init__(
        self, tick: int, kind: str, fields: Optional[Dict[str, Any]] = None
    ) -> None:
        self.tick = tick
        self.kind = kind
        self.fields = fields if fields is not None else {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.tick == other.tick
            and self.kind == other.kind
            and self.fields == other.fields
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.tick, self.kind))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"TraceEvent({self.tick}, {self.kind!r}, {{{inner}}})"

    def to_dict(self) -> Dict[str, Any]:
        return {"tick": self.tick, "kind": self.kind, "fields": self.fields}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TraceEvent":
        return cls(doc["tick"], doc["kind"], doc.get("fields") or {})


def protocol_events(events: Iterable[TraceEvent]) -> List[TraceEvent]:
    """The protocol-scope subsequence of an event stream.

    This is the projection under which a built system and its
    per-object reference must be identical; perf/meta events are
    legitimately divergent.
    """
    return [e for e in events if e.kind in PROTOCOL_KINDS]


class TraceSink:
    """Receives every emitted event; subclasses decide what to keep."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class RingSink(TraceSink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ConfigError(
                f"RingSink capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)
        if len(self._events) > self.capacity:
            # Trim in one slice; amortized O(1) per event.
            del self._events[: len(self._events) - self.capacity]

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


_encode = json.JSONEncoder(separators=(",", ":")).encode


class JsonlSink(TraceSink):
    """Appends one JSON object per event to ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w")

    def emit(self, event: TraceEvent) -> None:
        # One C-encoded string and one write per event: ``json.dump``
        # encodes in Python and writes token by token, which cost a
        # traced run more than the protocol it records.
        self._fh.write(_encode(event.to_dict()) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def read_jsonl(path: str) -> Iterator[TraceEvent]:
    """Stream events back out of a :class:`JsonlSink` file."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield TraceEvent.from_dict(json.loads(line))
