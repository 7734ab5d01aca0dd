"""Render a per-phase cost summary from a JSONL trace file.

``python -m repro.experiments summarize trace.jsonl`` (or
``python -m repro.obs.summarize trace.jsonl``) reads the events a
``--trace`` run emitted and prints:

* one row per run (``run.start`` / ``run.end`` markers);
* the event engine's mode and gauge (``engine.stats``: ticks skipped
  vs. run in full), when a run carried an ``EngineConfig``;
* per-tick message rates (``comm.rate``): total and by-kind msgs/tick,
  plus the columnar plane's batched-vs-materialized ledger;
* the per-phase tick cost table aggregated from ``tick.phase`` events
  (mean / max milliseconds per phase, share of the tick);
* protocol event counts by kind (repairs by mode, fault events, ...);
* fastpath candidate-set statistics, when the trace has them;
* sharded-tier load, failure-model, and durability lines (checkpoint
  cadence, WAL-replay recoveries vs. amnesia), when the trace has them;
* chaos-harness invariant violations — and with ``--strict`` their
  presence makes the exit code non-zero, which is the CI gate for
  chaos runs.

Deliberately dependency-free (no numpy, no repro.experiments import):
summaries should work on a trace file alone.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.trace import PROTOCOL_KINDS, TraceEvent, read_jsonl

__all__ = ["phase_table", "summarize_text", "has_violations", "main"]

_PHASES = ("move", "client", "deliver", "server")


def _fmt_table(headers: Sequence[str], rows: List[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def phase_table(events: Iterable[TraceEvent]) -> Dict[str, Dict[str, float]]:
    """Aggregate ``tick.phase`` events into per-phase statistics (ms)."""
    stats: Dict[str, Dict[str, float]] = {
        p: {"ticks": 0, "sum_ms": 0.0, "max_ms": 0.0} for p in _PHASES
    }
    subrounds = {"ticks": 0, "sum": 0.0, "max": 0.0}
    for event in events:
        if event.kind != "tick.phase":
            continue
        for phase in _PHASES:
            ms = event.fields.get(phase)
            if ms is None:
                continue
            row = stats[phase]
            row["ticks"] += 1
            row["sum_ms"] += ms
            row["max_ms"] = max(row["max_ms"], ms)
        sr = event.fields.get("subrounds")
        if sr is not None:
            subrounds["ticks"] += 1
            subrounds["sum"] += sr
            subrounds["max"] = max(subrounds["max"], sr)
    out = {p: row for p, row in stats.items() if row["ticks"]}
    if subrounds["ticks"]:
        out["subrounds"] = subrounds
    return out


def _phase_section(events: List[TraceEvent]) -> Optional[str]:
    table = phase_table(events)
    phases = [p for p in _PHASES if p in table]
    if not phases:
        return None
    total_ms = sum(table[p]["sum_ms"] for p in phases)
    rows = []
    for phase in phases:
        row = table[phase]
        mean = row["sum_ms"] / row["ticks"]
        share = 100.0 * row["sum_ms"] / total_ms if total_ms else 0.0
        rows.append(
            (
                phase,
                f"{mean:.3f}",
                f"{row['max_ms']:.3f}",
                f"{row['sum_ms']:.1f}",
                f"{share:.1f}%",
            )
        )
    lines = [
        "Per-phase tick cost (from tick.phase events):",
        _fmt_table(("phase", "mean ms", "max ms", "total ms", "share"), rows),
    ]
    sub = table.get("subrounds")
    if sub:
        lines.append(
            f"subrounds/tick: mean {sub['sum'] / sub['ticks']:.2f}, "
            f"max {int(sub['max'])}"
        )
    return "\n".join(lines)


def _runs_section(events: List[TraceEvent]) -> Optional[str]:
    starts = [e for e in events if e.kind == "run.start"]
    ends_list = [e for e in events if e.kind == "run.end"]
    if not starts and not ends_list:
        return None
    lines = ["Runs:"]
    for i, start in enumerate(starts):
        f = start.fields
        desc = (
            f"  {f.get('algorithm', '?')} n={f.get('n_objects', '?')} "
            f"q={f.get('n_queries', '?')} k={f.get('k', '?')} "
            f"seed={f.get('seed', '?')} faults={f.get('faults', 'none')}"
        )
        if i < len(ends_list):
            e = ends_list[i].fields
            desc += (
                f" -> {e.get('ticks_measured', '?')} ticks in "
                f"{e.get('wall_seconds', float('nan')):.2f}s"
            )
        lines.append(desc)
    return "\n".join(lines)


def _engine_section(events: List[TraceEvent]) -> Optional[str]:
    """Event-engine view: mode plus the skip gauge.

    ``engine.stats`` is emitted once per run at ``run.end`` time;
    ``run.start`` carries the engine config. A tick-mode run with an
    attached engine still gets a line (mode ``tick``, nothing
    skipped), a run with no engine config gets no section at all.
    """
    stats = [e for e in events if e.kind == "engine.stats"]
    configs = [
        e.fields.get("engine")
        for e in events
        if e.kind == "run.start" and e.fields.get("engine") is not None
    ]
    if not stats and not configs:
        return None
    lines = ["Event engine:"]
    for i, e in enumerate(stats):
        f = e.fields
        total = f.get("skipped_ticks", 0) + f.get("full_ticks", 0)
        share = (
            100.0 * f.get("skipped_ticks", 0) / total if total else 0.0
        )
        lines.append(
            f"  mode={f.get('mode', '?')} "
            f"skipped {f.get('skipped_ticks', 0)}/{total} ticks "
            f"({share:.1f}%)"
        )
        # Tick mode never skips, so only an event-mode run that could
        # not was refused skipping.
        if f.get("mode") == "event" and not f.get("skipping", True):
            lines.append(
                "  (skipping disabled: the client phase cannot observe "
                "stillness — every tick ran in full)"
            )
    if not stats:
        for cfg in configs:
            lines.append(f"  configured: {cfg} (no engine.stats in trace)")
    return "\n".join(lines)


def _protocol_section(events: List[TraceEvent]) -> Optional[str]:
    counts: Counter = Counter()
    for event in events:
        if event.kind not in PROTOCOL_KINDS:
            continue
        label = event.kind
        mode = event.fields.get("mode")
        if mode is not None:
            label += f"[{mode}]"
        counts[label] += 1
    if not counts:
        return None
    rows = [(k, str(v)) for k, v in sorted(counts.items())]
    return "Protocol events:\n" + _fmt_table(("kind", "count"), rows)


def _fastpath_section(events: List[TraceEvent]) -> Optional[str]:
    decisions = [e.fields for e in events if e.kind == "fastpath.candidates"]
    if not decisions:
        return None
    # DKNN-P reports exact candidates (the nodes that go on to send),
    # not all region holders; DKNN-B/G the violation reports sent from
    # the cells.
    cands = [f.get("candidates", 0) for f in decisions]
    return (
        f"Fastpath: {len(cands)} dispatch decisions, candidates/tick "
        f"mean {sum(cands) / len(cands):.1f} max {max(cands)}"
    )


def _comm_section(events: List[TraceEvent]) -> Optional[str]:
    """Per-tick message rates from ``comm.rate`` events (one per run):
    total and per-kind msgs/tick, plus the columnar plane's ledger
    (messages that travelled as batch columns vs. the subset expanded
    back to scalars at a handler/fault/trace boundary)."""
    rates = [e for e in events if e.kind == "comm.rate"]
    if not rates:
        return None
    lines = ["Message rates:"]
    for e in rates:
        f = e.fields
        by_kind = f.get("by_kind", {}) or {}
        kinds = ", ".join(
            f"{kind} {rate:g}" for kind, rate in sorted(by_kind.items())
        )
        line = f"  {f.get('msgs_per_tick', 0):g} msgs/tick"
        if kinds:
            line += f" ({kinds})"
        columnar = f.get("columnar_msgs", 0)
        materialized = f.get("materialized_msgs", 0)
        if columnar:
            line += (
                f"; columnar plane: {columnar} msgs batched, "
                f"{materialized} materialized"
            )
        else:
            line += (
                "; columnar plane: inactive (no client phase, a fault "
                "plan or an admission policy)"
            )
        lines.append(line)
    return "\n".join(lines)


def _shard_section(events: List[TraceEvent]) -> Optional[str]:
    """Sharded-tier view: per-shard load plus handoff/borrow traffic.

    ``shard.load`` gauges are per tick; the section reports the last
    tick's gauges (the end-of-run distribution) plus cumulative uplink
    shares, and counts the discrete shard protocol events.
    """
    loads = [e for e in events if e.kind == "shard.load"]
    handoffs = sum(1 for e in events if e.kind == "shard.handoff")
    borrows = [e for e in events if e.kind == "shard.borrow"]
    forwards = sum(1 for e in events if e.kind == "shard.forward")
    if not loads and not handoffs and not borrows and not forwards:
        return None
    lines = ["Sharded tier:"]
    if loads:
        last = loads[-1].fields
        uplinks = last.get("uplinks", [])
        total = sum(uplinks) or 1
        rows = [
            (
                str(sid),
                str(up),
                f"{100.0 * up / total:.1f}%",
                str(last.get("downlinks", [0] * len(uplinks))[sid]),
                str(last.get("homed", [0] * len(uplinks))[sid]),
                str(last.get("owned", [0] * len(uplinks))[sid]),
            )
            for sid, up in enumerate(uplinks)
        ]
        lines.append(
            _fmt_table(
                ("shard", "uplinks", "share", "downlinks", "homed", "owned"),
                rows,
            )
        )
        peak = max(uplinks) if uplinks else 0
        mean = total / max(len(uplinks), 1)
        lines.append(
            f"load imbalance (peak/mean uplinks): {peak / mean:.2f}"
            if mean
            else "load imbalance: n/a"
        )
    borrowed = sum(e.fields.get("candidates", 0) for e in borrows)
    lines.append(
        f"handoffs: {handoffs}, forwards: {forwards}, "
        f"borrows: {len(borrows)} ({borrowed} candidates)"
    )
    rebalance_section = _rebalance_lines(events)
    if rebalance_section:
        lines.extend(rebalance_section)
    fault_section = _shard_fault_lines(events)
    if fault_section:
        lines.extend(fault_section)
    durability_section = _durability_lines(events)
    if durability_section:
        lines.extend(durability_section)
    return "\n".join(lines)


def _rebalance_lines(events: List[TraceEvent]) -> List[str]:
    """Elastic-rebalancing view (RebalancePolicy runs only): migration
    cycles, cells and homes moved, and backpressure deferrals."""
    cycles = [e for e in events if e.kind == "shard.rebalance"]
    migrates = [e for e in events if e.kind == "shard.migrate"]
    defers = [e for e in events if e.kind == "shard.defer"]
    if not cycles and not migrates and not defers:
        return []
    lines = []
    if cycles:
        moves = sum(e.fields.get("moves", 0) for e in cycles)
        imb = [
            e.fields.get("imbalance", 0.0)
            for e in cycles
            if e.fields.get("imbalance") is not None
        ]
        line = f"rebalance cycles: {len(cycles)} ({moves} cell moves"
        if imb:
            line += (
                f"; pre-move imbalance mean "
                f"{sum(imb) / len(imb):.2f} max {max(imb):.2f}"
            )
        lines.append(line + ")")
    if migrates:
        homes = sum(e.fields.get("homes", 0) for e in migrates)
        queries = sum(e.fields.get("queries", 0) for e in migrates)
        lines.append(
            f"cell migrations: {len(migrates)} — {homes} objects "
            f"rehomed, {queries} queries handed off"
        )
    if defers:
        lines.append(f"backpressure: {len(defers)} uplinks deferred")
    return lines


def _shard_fault_lines(events: List[TraceEvent]) -> List[str]:
    """Failure-model view (ShardFaultPlan runs only): failovers,
    restores, partition windows, sheds, and recovery latencies."""
    failovers = [e for e in events if e.kind == "shard.failover"]
    restores = sum(1 for e in events if e.kind == "shard.restore")
    partitions = [e for e in events if e.kind == "shard.partition"]
    sheds = sum(1 for e in events if e.kind == "shard.shed")
    recovered = [e for e in events if e.kind == "shard.recovered"]
    if not failovers and not partitions and not sheds and not recovered:
        return []
    lines = []
    if failovers:
        taken = sum(e.fields.get("queries", 0) for e in failovers)
        lines.append(
            f"failovers: {len(failovers)} ({taken} queries taken over, "
            f"{restores} restores)"
        )
    if partitions:
        cuts = sum(1 for e in partitions if e.fields.get("up"))
        lines.append(f"backbone partitions: {cuts} cut / "
                     f"{len(partitions) - cuts} healed")
    if sheds:
        lines.append(f"admission control: {sheds} uplinks shed")
    if recovered:
        ticks = [e.fields.get("ticks", 0) for e in recovered]
        lines.append(
            f"degraded windows closed: {len(recovered)}, recovery "
            f"ticks mean {sum(ticks) / len(ticks):.1f} max {max(ticks)}"
        )
    return lines


def _durability_lines(events: List[TraceEvent]) -> List[str]:
    """Durability view (checkpoint_interval runs only): checkpoint
    cadence and bytes, cold-restart recoveries by mode, WAL replay."""
    checkpoints = [e for e in events if e.kind == "shard.checkpoint"]
    recovers = [e for e in events if e.kind == "shard.recover"]
    if not checkpoints and not recovers:
        return []
    lines = []
    if checkpoints:
        nbytes = sum(e.fields.get("bytes", 0) for e in checkpoints)
        after = sum(
            1 for e in checkpoints if e.fields.get("after_recovery")
        )
        lines.append(
            f"checkpoints: {len(checkpoints)} ({nbytes} bytes, "
            f"{after} post-recovery compactions)"
        )
    wal = [e for e in recovers if e.fields.get("mode") == "wal"]
    amnesia = [e for e in recovers if e.fields.get("mode") == "amnesia"]
    if wal:
        records = sum(e.fields.get("wal_records", 0) for e in wal)
        queries = sum(e.fields.get("queries", 0) for e in wal)
        replay = [e.fields.get("replay_ticks", 0) for e in wal]
        lines.append(
            f"recoveries (checkpoint+WAL): {len(wal)} — {records} "
            f"records replayed, {queries} queries retained, replay "
            f"ticks mean {sum(replay) / len(replay):.1f} max "
            f"{max(replay)}"
        )
    if amnesia:
        queries = sum(e.fields.get("queries", 0) for e in amnesia)
        homes = sum(e.fields.get("homes", 0) for e in amnesia)
        lines.append(
            f"recoveries (amnesia — no durable store): {len(amnesia)} "
            f"— {queries} queries and {homes} home rows lost"
        )
    return lines


def _chaos_lines(events: List[TraceEvent]) -> List[str]:
    """Chaos-harness invariant violations, grouped by checker."""
    violations = [e for e in events if e.kind == "chaos.violation"]
    if not violations:
        return []
    counts: Counter = Counter(
        e.fields.get("checker", "?") for e in violations
    )
    lines = [f"INVARIANT VIOLATIONS: {len(violations)}"]
    for checker, count in sorted(counts.items()):
        first = next(
            e for e in violations if e.fields.get("checker") == checker
        )
        lines.append(
            f"  [{checker}] x{count}, first at t={first.tick}: "
            f"{first.fields.get('why', '?')}"
        )
    return lines


def summarize_text(events: List[TraceEvent], source: str = "") -> str:
    sections = [f"Trace summary{f' ({source})' if source else ''}: "
                f"{len(events)} events"]
    for section in (
        _runs_section(events),
        _engine_section(events),
        _phase_section(events),
        _comm_section(events),
        _protocol_section(events),
        _fastpath_section(events),
        _shard_section(events),
    ):
        if section:
            sections.append(section)
    chaos = _chaos_lines(events)
    if chaos:
        sections.append("\n".join(chaos))
    return "\n\n".join(sections)


def has_violations(events: Iterable[TraceEvent]) -> bool:
    """True if the trace records any invariant-violation event."""
    return any(e.kind == "chaos.violation" for e in events)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments summarize",
        description="Summarize a JSONL trace file.",
    )
    parser.add_argument("trace", help="trace file written by --trace")
    parser.add_argument(
        "--strict",
        action="store_true",
        help=(
            "exit non-zero when the trace contains invariant-violation "
            "events (chaos.violation) — the CI gate for chaos runs"
        ),
    )
    args = parser.parse_args(argv)
    events = list(read_jsonl(args.trace))
    print(summarize_text(events, source=args.trace))
    if args.strict and has_violations(events):
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
