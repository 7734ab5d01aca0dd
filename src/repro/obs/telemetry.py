"""The telemetry handle threaded through the simulation stack.

A :class:`Telemetry` holds at most one :class:`~repro.obs.trace.TraceSink`
and is the one observability channel: every seam emits trace events
through it. The simulator, channels and servers each hold a reference;
hot call sites follow one pattern::

    tel = self.telemetry
    if tel.enabled:
        tel.emit(tick, "server.repair", qid=qid, mode="full")

``enabled`` is a plain bool attribute fixed at construction (True iff a
sink is given), so the disabled path (:data:`NULL_TELEMETRY`, the
default everywhere) costs one attribute load and one branch — no event,
no dict, no call.

There is also a process-wide *active* telemetry with a context-manager
setter, so entry points (the experiments CLI) can turn instrumentation
on without threading a handle through every constructor::

    with use_telemetry(Telemetry(JsonlSink(path))):
        run_once(cfg, spec)

Components resolve ``telemetry=None`` to :func:`active_telemetry` at
construction time; an explicit handle always wins over the ambient one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs.trace import TraceEvent, TraceSink

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "active_telemetry",
    "set_telemetry",
    "use_telemetry",
]


class Telemetry:
    """One optional trace sink, with a cheap on/off bit."""

    __slots__ = ("enabled", "sink")

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self.sink = sink
        self.enabled = sink is not None

    def emit(self, tick: int, kind: str, /, **fields: Any) -> None:
        # tick/kind are positional-only so a field may also be named
        # "kind" (e.g. fault.drop carries the dropped message's kind).
        self.sink.emit(TraceEvent(tick, kind, fields))

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


#: The shared disabled handle. Everything defaults to this.
NULL_TELEMETRY = Telemetry()

_active = NULL_TELEMETRY


def active_telemetry() -> Telemetry:
    """The ambient telemetry (``NULL_TELEMETRY`` unless installed)."""
    return _active


def set_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Install ``telemetry`` as ambient; returns the previous handle."""
    global _active
    previous = _active
    _active = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous


@contextmanager
def use_telemetry(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Scoped :func:`set_telemetry` that restores the previous handle."""
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
