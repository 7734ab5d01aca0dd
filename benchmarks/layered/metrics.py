"""Metric declarations: the names, units and bounds BENCHMARK.json lists.

``selftest.py`` pins that these equal ``BENCHMARK.json`` and that the
runner emits exactly these names, so the three cannot drift apart.
"""

from __future__ import annotations

#: (name, unit, better, bound). The three timings are in reference-box
#: time (hostclock.py). The three simulated statistics repeat exactly
#: for a seed (the runner fails a run where they do not).
#:
#: A bound has to hold the spread over ten *seeds* on every workload,
#: which is why the timings and the simulated statistics sit at the
#: contract's cap: over ten seeds on the reference box the interquartile
#: range was up to 10 % of the median for the timings (shard_drift, where
#: the seed moves the work itself) and up to 14 % for msgs/bytes
#: (event_sparse), against 1 % for memory.
END_TO_END = (
    ("ticks_per_s", "1/s", "higher", 0.25),
    ("tick_ms_p50", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("msgs_per_tick", "msgs/tick", "lower", 0.25),
    ("bytes_per_tick", "bytes/tick", "lower", 0.25),
    ("server_units_per_tick", "units/tick", "lower", 0.25),
)

#: the simulator-facing hooks of a server, wrapped on the inner server
#: as ``server.*`` and on the sharded tier as ``shard.*``.
SERVER_HOOKS = ("on_tick_start", "on_message", "on_uplink_batch",
                "on_subround", "on_tick_end")

#: span name -> are its calls per tick reported next to its self time?
#: (only where the count varies: a hook called once a tick has none).
SPANS = {
    "mobility.advance": False,
    "client.tick_start": False,
    "client.deliver_batch": True,
    "client.deliver_area": True,
    "channel.send": True,
    "channel.send_batch": True,
    "channel.collect": False,
    "server.on_tick_start": False,
    "server.on_message": True,
    "server.on_uplink_batch": True,
    "server.on_subround": False,
    "server.on_tick_end": False,
    "index.update_batch": True,
    "index.scalar_write": True,
    **{f"shard.{hook}": False for hook in SERVER_HOOKS},
    "shard.repair_scope": True,
    "engine.can_skip": False,
    "engine.skip_tick": False,
    "engine.after_full_step": False,
}

#: CostMeter categories reported one by one; ``borrow`` and ``handoff``
#: are the tier's and live under ``shard.``.
SERVER_UNITS = ("dist_calc", "cell_visit", "heap_op", "index_update",
                "bookkeeping", "repair")
SHARD_UNITS = ("borrow", "handoff")
SHARD_COUNTS = ("handoffs", "forwards", "borrows", "migrations")


def _span_metrics():
    for span, with_calls in SPANS.items():
        yield (span + "_ms", "ms", "lower")
        if with_calls:
            yield (span + "_calls", "1/tick", "lower")


#: (name, unit, better). ``*_ms`` is mean self ms per simulated tick of
#: the span of that name, ``*_calls`` its calls per tick.
PER_LAYER = (
    *_span_metrics(),
    ("channel.columnar_share", "ratio", "higher"),
    ("channel.materialized_share", "ratio", "lower"),
    ("server.handler_ms", "ms", "lower"),
    ("server.repairs_per_tick", "1/tick", "lower"),
    *((f"server.units_{c}", "units/tick", "lower") for c in SERVER_UNITS),
    ("shard.tier_ms", "ms", "lower"),
    *((f"shard.{c}_per_tick", "1/tick", "lower") for c in SHARD_COUNTS),
    ("shard.s2s_msgs_per_tick", "msgs/tick", "lower"),
    ("shard.imbalance", "ratio", "lower"),
    *((f"shard.units_{c}", "units/tick", "lower") for c in SHARD_UNITS),
    ("engine.skipped_share", "ratio", "higher"),
    ("engine.full_tick_ms_p50", "ms", "lower"),
    ("sim.step_self_ms", "ms", "lower"),
    ("sim.subrounds_per_tick", "1/tick", "lower"),
    ("sim.tick_ms_p90", "ms", "lower"),
    ("sim.trace_overhead", "ratio", "lower"),
    ("sim.host_slowness", "ratio", "lower"),
    ("setup.build_workload_s", "s", "lower"),
    ("setup.build_system_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
)
