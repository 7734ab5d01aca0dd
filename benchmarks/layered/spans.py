"""Outside-in spans: wrap public methods on built instances.

The recorder lives entirely in the benchmark: it replaces bound methods
on the instances of one built simulator with timing closures, so no
class, no other simulator and no ``repro.obs`` tracer is touched (an
enabled ``Tracer`` turns the columnar plane off, which would measure a
different program). The loop is single-threaded, so spans nest
perfectly and one open-span stack gives every span its parent.

A span is ``(name, tick, start, end, parent)`` with ``parent`` the index
of the enclosing span (-1 for a root); all spans of one simulated tick
share the tick number. Spans stay in memory until :meth:`write`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.api import ShardedServer

from metrics import SERVER_HOOKS

Span = Tuple[str, int, float, float, int]


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: identifier shared by every span opened until it changes.
        self.tick = 0

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Time ``obj.attr(...)`` as span ``name``, if ``obj`` has it."""
        fn = getattr(obj, attr, None)
        if fn is not None:
            setattr(obj, attr, self.timed(fn, name))

    def timed(self, fn, name: str):
        spans, stack, rec = self.spans, self._stack, self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, rec.tick, start, end, parent)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, tick, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "tick": tick,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                )
                fh.write("\n")


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
    """``{name: (total self seconds, calls)}``.

    Self time is a span's duration minus the time its direct children
    cover; children never overlap (one thread), so that is the sum of
    their durations, and self times over a tree add up to the root's
    duration exactly.
    """
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for i, (name, _, start, end, _) in enumerate(spans):
        slot = totals[name]
        slot[0] += (end - start) - covered[i]
        slot[1] += 1
    return {name: (t, int(c)) for name, (t, c) in totals.items()}


class _TimedProbe:
    """Stand-in for the server's ``ownership_probe`` seam.

    The tier's own adapter uses ``__slots__``, so its method cannot be
    replaced in place; the seam is a plain attribute, so a delegating
    object with a timed ``repair_scope`` goes there instead.
    """

    def __init__(self, rec: SpanRecorder, probe: Any) -> None:
        self.repair_scope = rec.timed(probe.repair_scope, "shard.repair_scope")


def instrument(rec: SpanRecorder, sim: Any) -> Set[str]:
    """Wrap every layer boundary of one built simulator.

    Returns the layers this build has; a layer it bypasses (no shard
    tier, no engine driver, a tableless server) gets no spans at all.
    """
    layers = {"mobility", "client", "channel", "server", "sim", "setup"}
    rec.wrap(sim.fleet, "advance", "mobility.advance")
    for attr in ("tick_start", "deliver_batch", "deliver_area"):
        rec.wrap(sim.client_phase, attr, f"client.{attr}")
    for attr in ("send", "send_batch", "collect"):
        rec.wrap(sim.channel, attr, f"channel.{attr}")
    server = sim.server
    if isinstance(server, ShardedServer):
        layers.add("shard")
        # the tier's hooks enclose the inner server's
        for attr in SERVER_HOOKS:
            rec.wrap(server, attr, f"shard.{attr}")
        server = server.inner
        server.ownership_probe = _TimedProbe(rec, server.ownership_probe)
    for attr in SERVER_HOOKS:
        rec.wrap(server, attr, f"server.{attr}")
    grid = getattr(server, "grid", None)
    if grid is None and hasattr(server, "table"):
        grid = server.table.grid
    if grid is not None:
        layers.add("index")
        rec.wrap(grid, "update_batch", "index.update_batch")
        for attr in ("update", "insert", "remove"):
            rec.wrap(grid, attr, "index.scalar_write")
    driver = sim._driver
    if driver is not None:
        layers.add("engine")
        for attr in ("can_skip", "skip_tick", "after_full_step"):
            rec.wrap(driver, attr, f"engine.{attr}")
    return layers
