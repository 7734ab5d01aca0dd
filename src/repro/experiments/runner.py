"""Run one (config, workload) pair and measure everything.

The first-class entry point takes a :class:`~repro.experiments.config.
RunConfig`::

    m = run_once(RunConfig("DKNN-P"), spec)

Measurements exclude a configurable warmup window so the one-time
registration burst (every algorithm pays an O(N) bootstrap) does not
pollute steady-state rates — the quantity the paper-era figures plot.

Observability: the run is executed under the ambient (or explicitly
passed) :class:`~repro.obs.telemetry.Telemetry`. When tracing is on,
``run.start`` / ``run.end`` meta events bracket the run and a
``comm.rate`` event carries the measured window's message rates; and
when a manifest :func:`~repro.obs.manifest.recording` is open, one
provenance record per run lands in it. With the default null telemetry
all of this costs nothing.

``RunConfig`` is the only call form: anything else, the pre-1.0
algorithm string included, raises an
:class:`~repro.errors.ExperimentError`. Import the supported surface
from :mod:`repro.api`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.errors import ExperimentError
from repro.index.bruteforce import brute_knn_ids
from repro.metrics.accuracy import AccuracyTracker
from repro.experiments.algorithms import build_system
from repro.experiments.config import RunConfig
from repro.obs.manifest import record_run
from repro.obs.telemetry import Telemetry, active_telemetry
from repro.workloads.generator import build_workload
from repro.workloads.spec import WorkloadSpec

__all__ = ["Measurement", "run_once"]


@dataclass
class Measurement:
    """Steady-state rates of one run (per tick, post-warmup)."""

    algorithm: str
    spec: WorkloadSpec
    ticks_measured: int
    msgs_per_tick: float
    uplink_per_tick: float
    downlink_per_tick: float
    broadcast_per_tick: float
    geocast_per_tick: float
    bytes_per_tick: float
    receptions_per_tick: float
    units_per_tick: float
    server_ms_per_tick: float
    wall_seconds: float
    exactness: float
    mean_overlap: float
    per_kind_msgs: Dict[str, float] = field(default_factory=dict)
    per_kind_bytes: Dict[str, float] = field(default_factory=dict)
    repairs_per_tick: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """Flat dict for result tables: every column a table can print.

        The keys are the same for every run: ``extra`` is merged over
        :data:`_IDLE`, so a subsystem the run never touched reads idle.
        """
        ticks = self.ticks_measured
        row = {
            "algorithm": self.algorithm,
            "msgs/tick": self.msgs_per_tick,
            "uplink/tick": self.uplink_per_tick,
            "downlink/tick": self.downlink_per_tick,
            "bcast/tick": self.broadcast_per_tick,
            "bcast+geo/tick": self.broadcast_per_tick + self.geocast_per_tick,
            "bytes/tick": self.bytes_per_tick,
            "recv/tick": self.receptions_per_tick,
            "units/tick": self.units_per_tick,
            "server_ms/tick": self.server_ms_per_tick,
            "wall_s": round(self.wall_seconds, 3),
            "ms/tick": round(1000.0 * self.wall_seconds / ticks, 3),
            "exactness": self.exactness,
            "overlap": self.mean_overlap,
            **_IDLE,
            "full_ticks": ticks,
        }
        row.update(self.extra)
        return row


#: What each ``Measurement.extra`` key reads in a run that never set it
#: (no fault plan, shard tier or engine; nothing degraded). Every key
#: ``run_once`` writes is listed, bar ``full_ticks`` (see ``as_row``).
_IDLE: Dict[str, object] = {
    "dropped/tick": 0.0, "dup/tick": 0.0, "delayed/tick": 0.0,
    "retransmits/tick": 0.0, "degraded_frac": 0.0, "s2s/tick": 0.0,
    "s2s_share": 0.0, "handoffs/tick": 0.0, "forwards/tick": 0.0,
    "borrows/tick": 0.0, "migrations/tick": 0.0, "deferred/tick": 0.0,
    "shed/tick": 0.0, "lost_up/tick": 0.0, "recovery_ticks": 0.0,
    "replica_lag": 0.0, "repl_share": 0.0, "wal_bytes/tick": 0.0,
    "renewals": 0, "rebalances": 0, "cells_moved": 0, "rehomed": 0,
    "failovers": 0, "taken_over": 0, "cold_restarts": 0, "recovered_q": 0,
    "amnesia_q": 0, "checkpoints": 0, "replayed": 0, "skipped_ticks": 0,
    # "": no number is meaningful (nothing to rate, no healthy sample)
    "light_ratio": "", "healthy_exactness": "",
    "imbalance_windowed": "", "imbalance_peak": "",
    "shards": 1, "shard_imbalance": 1.0, "engine": "tick",
}  # fmt: skip


def run_once(
    config: RunConfig,
    spec: WorkloadSpec,
    accuracy_every: int = 10,
    telemetry: Optional[Telemetry] = None,
) -> Measurement:
    """Build, warm up, run, and measure one configuration.

    ``config`` is a :class:`RunConfig`; its optional ``ticks`` /
    ``warmup`` override the spec's via ``spec.but(...)``, its ``shard``
    config routes the run through the sharded server tier, and its
    ``engine`` config selects the event-scheduled loop.
    ``accuracy_every`` controls how often (in ticks) the published
    answers are checked against brute force over ground truth; 0
    disables checking (exactness/overlap report as 1.0). ``telemetry``
    defaults to the ambient one (see ``repro.obs.use_telemetry``).
    """
    if not isinstance(config, RunConfig):
        raise ExperimentError(f"expected a RunConfig, got {config!r}")
    cfg = config
    if accuracy_every < 0:
        raise ExperimentError(f"negative accuracy_every {accuracy_every}")

    overrides = {}
    if cfg.ticks is not None:
        overrides["ticks"] = cfg.ticks
    if cfg.warmup is not None:
        overrides["warmup_ticks"] = cfg.warmup
    if overrides:
        spec = spec.but(**overrides)

    tel = telemetry if telemetry is not None else active_telemetry()
    fleet, queries = build_workload(spec)
    sim = build_system(cfg, fleet, queries, telemetry=tel)
    server = sim.server

    if tel.enabled:
        tel.emit(
            0,
            "run.start",
            algorithm=cfg.algorithm,
            latency=cfg.latency,
            faults=repr(cfg.faults) if cfg.faults is not None else None,
            engine=(
                cfg.engine.describe() if cfg.engine is not None else None
            ),
            n_objects=spec.n_objects,
            n_queries=spec.n_queries,
            k=spec.k,
            seed=spec.seed,
            ticks=spec.ticks,
            warmup=spec.warmup_ticks,
        )

    # Warmup: run the registration burst out of the measured window.
    sim.run(spec.warmup_ticks)
    comm_mark = sim.channel.stats.snapshot()
    units_mark = server.meter.snapshot()
    server_s_mark = sim.server_seconds
    repairs_mark = (
        sum(server.repair_count.values())
        if hasattr(server, "repair_count")
        else None
    )
    shard_stats = getattr(server, "shard_stats", None)
    if shard_stats is not None:
        shard_mark = (
            shard_stats.handoffs,
            shard_stats.forwards,
            shard_stats.borrows,
            shard_stats.migrations,
            list(shard_stats.uplinks),
            shard_stats.rebalances,
            shard_stats.cells_moved,
            shard_stats.rehomed_objects,
            shard_stats.deferred_uplinks,
            shard_stats.shed_uplinks,
        )

    tracker = AccuracyTracker()

    def observe(s) -> None:
        if accuracy_every == 0:
            return
        if s.tick % accuracy_every != 0:
            return
        # Read per observation, not once up front: the sharded tier's
        # ``degraded`` is a merged snapshot (inner map + the tier's
        # fault overlay), rebuilt on every access.
        degraded_map = getattr(server, "degraded", None)
        positions = fleet.positions
        for q in queries:
            qx, qy = positions[q.focal_oid]
            exclude = frozenset((q.focal_oid,))
            truth = brute_knn_ids(positions, qx, qy, q.k, exclude)
            tracker.observe(
                positions,
                qx,
                qy,
                q.k,
                server.answers[q.qid],
                truth,
                exclude,
                degraded=(
                    bool(degraded_map.get(q.qid))
                    if degraded_map is not None
                    else False
                ),
            )

    measured = spec.ticks - spec.warmup_ticks
    t0 = time.perf_counter()
    sim.run(measured, on_tick=observe)
    wall = time.perf_counter() - t0

    comm = sim.channel.stats.delta_since(comm_mark)
    units = server.meter.delta_since(units_mark)
    server_s = sim.server_seconds - server_s_mark
    repairs = None
    if repairs_mark is not None:
        repairs = (
            sum(server.repair_count.values()) - repairs_mark
        ) / measured

    if accuracy_every and tracker.checked:
        exactness = tracker.exactness
        overlap = tracker.mean_overlap
    else:
        exactness = 1.0
        overlap = 1.0

    extra: Dict[str, object] = {}
    if hasattr(server, "light_repair_count"):
        light = sum(server.light_repair_count.values())
        full = sum(server.repair_count.values()) - light
        extra["light_ratio"] = f"{light}/{full}"
    if hasattr(server, "renewals"):
        extra["renewals"] = server.renewals
    if cfg.faults is not None and cfg.faults.enabled:
        extra["dropped/tick"] = comm.dropped / measured
        extra["dup/tick"] = comm.duplicated / measured
        extra["delayed/tick"] = comm.delayed / measured
        extra["retransmits/tick"] = comm.retransmits / measured
    if accuracy_every and tracker.checked and tracker.degraded_checked:
        extra["degraded_frac"] = tracker.degraded_fraction
        healthy = tracker.checked - tracker.degraded_checked
        if healthy:
            extra["healthy_exactness"] = tracker.healthy_exactness
    if shard_stats is not None:
        # Measured-window deltas of the sharded tier's ledger. Backbone
        # traffic lives in its own CommStats bucket, so the radio
        # per-tick rates above are untouched by sharding.
        h0, f0, b0, mig0, up0, reb0, cm0, rh0, def0, shd0 = shard_mark
        s2s = comm.server_to_server_messages
        radio = comm.total_messages
        extra["shards"] = shard_stats.n_shards
        extra["s2s/tick"] = s2s / measured
        extra["s2s_share"] = s2s / (s2s + radio) if (s2s + radio) else 0.0
        extra["handoffs/tick"] = (shard_stats.handoffs - h0) / measured
        extra["forwards/tick"] = (shard_stats.forwards - f0) / measured
        extra["borrows/tick"] = (shard_stats.borrows - b0) / measured
        extra["migrations/tick"] = (shard_stats.migrations - mig0) / measured
        window_up = [
            now - before for now, before in zip(shard_stats.uplinks, up0)
        ]
        total_up = sum(window_up)
        extra["shard_imbalance"] = (
            max(window_up) / (total_up / shard_stats.n_shards)
            if total_up
            else 1.0
        )
        # Windowed imbalance: mean of the tier's periodic peak/mean
        # samples over the measured ticks. The whole-window aggregate
        # above understates skew that *moves* (a drifting hotspot loads
        # every shard in turn); the windowed mean is what rebalancing
        # actually improves.
        samples = [
            v
            for t, v in getattr(server, "imbalance_samples", ())
            if t > spec.warmup_ticks
        ]
        if samples:
            extra["imbalance_windowed"] = sum(samples) / len(samples)
            extra["imbalance_peak"] = max(samples)
        shard_cfg = cfg.shard
        if shard_cfg is not None and shard_cfg.rebalance is not None:
            extra["rebalances"] = shard_stats.rebalances - reb0
            extra["cells_moved"] = shard_stats.cells_moved - cm0
            extra["rehomed"] = shard_stats.rehomed_objects - rh0
        if shard_cfg is not None and shard_cfg.admission is not None:
            extra["deferred/tick"] = (
                shard_stats.deferred_uplinks - def0
            ) / measured
            extra["shed/tick"] = (
                shard_stats.shed_uplinks - shd0
            ) / measured
    if (
        shard_stats is not None
        and cfg.shard is not None
        and cfg.shard.faults is not None
        and cfg.shard.faults.enabled
    ):
        # The fault-tolerance ledger (full-run totals: the counters are
        # zero through warmup unless the plan schedules faults there).
        extra["failovers"] = shard_stats.failovers
        extra["taken_over"] = shard_stats.queries_taken_over
        extra["shed/tick"] = shard_stats.shed_uplinks / measured
        extra["lost_up/tick"] = shard_stats.lost_uplinks / measured
        lat = shard_stats.recovery_latencies
        extra["recovery_ticks"] = sum(lat) / len(lat) if lat else 0.0
        lags = shard_stats.replication_lags
        extra["replica_lag"] = sum(lags) / len(lags) if lags else 0.0
        link = getattr(server, "link", None)
        if link is not None and link.total_bytes:
            ft_bytes = (
                link.bytes_by_kind["heartbeat"]
                + link.bytes_by_kind["replicate"]
            )
            extra["repl_share"] = ft_bytes / link.total_bytes
        if shard_stats.cold_restarts:
            # Cold-restart ledger: how uncovered restarts came back —
            # rebuilt from the durable store, or through amnesia.
            extra["cold_restarts"] = shard_stats.cold_restarts
            extra["recovered_q"] = shard_stats.recovered_queries
            extra["amnesia_q"] = shard_stats.amnesia_queries
        dm = getattr(server, "_durability", None)
        if dm is not None:
            # Durable-store ledger (full-run totals, like the FT
            # counters above): how much journaling the checkpoint/WAL
            # machinery did and what replay got back on remount.
            extra["checkpoints"] = dm.checkpoints
            extra["wal_bytes/tick"] = dm.wal_bytes_total / measured
            extra["replayed"] = dm.replayed_records

    if cfg.engine is not None:
        engine_stats = sim.driver.stats()
        extra["engine"] = engine_stats["mode"]
        extra["skipped_ticks"] = engine_stats["skipped_ticks"]
        extra["full_ticks"] = engine_stats["full_ticks"]

    m = Measurement(
        algorithm=cfg.algorithm,
        spec=spec,
        ticks_measured=measured,
        msgs_per_tick=comm.total_messages / measured,
        uplink_per_tick=comm.uplink_messages / measured,
        downlink_per_tick=comm.downlink_messages / measured,
        broadcast_per_tick=comm.broadcast_messages / measured,
        geocast_per_tick=comm.geocast_messages / measured,
        bytes_per_tick=comm.total_bytes / measured,
        receptions_per_tick=comm.broadcast_receptions / measured,
        units_per_tick=units.total / measured,
        server_ms_per_tick=1000.0 * server_s / measured,
        wall_seconds=wall,
        exactness=exactness,
        mean_overlap=overlap,
        per_kind_msgs={
            kind: row["messages"] / measured
            for kind, row in comm.per_kind_table().items()
        },
        per_kind_bytes={
            kind: row["bytes"] / measured
            for kind, row in comm.per_kind_table().items()
        },
        repairs_per_tick=repairs,
        extra=extra,
    )

    if tel.enabled:
        tel.emit(
            sim.tick,
            "comm.rate",
            ticks=measured,
            msgs_per_tick=round(m.msgs_per_tick, 6),
            by_kind={
                kind: round(rate, 6)
                for kind, rate in sorted(m.per_kind_msgs.items())
            },
            # The columnar plane's own ledger: messages sent inside batches.
            columnar_msgs=comm.columnar_messages,
        )
        if cfg.engine is not None:
            tel.emit(sim.tick, "engine.stats", **sim.driver.stats())
        tel.emit(
            sim.tick,
            "run.end",
            algorithm=cfg.algorithm,
            ticks_measured=measured,
            wall_seconds=round(wall, 6),
            msgs_per_tick=round(m.msgs_per_tick, 6),
            exactness=m.exactness,
        )

    record_run(
        {
            "config": cfg.describe(),
            "spec": asdict(spec),
            "accuracy_every": accuracy_every,
            "measurement": {
                "ticks_measured": measured,
                "msgs_per_tick": m.msgs_per_tick,
                "bytes_per_tick": m.bytes_per_tick,
                "units_per_tick": m.units_per_tick,
                "server_ms_per_tick": m.server_ms_per_tick,
                "wall_seconds": wall,
                "exactness": m.exactness,
                "mean_overlap": m.mean_overlap,
            },
        }
    )
    return m
