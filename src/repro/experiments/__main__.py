"""Command-line experiment driver.

Usage::

    python -m repro.experiments E1 E5        # selected experiments
    python -m repro.experiments --all        # everything
    python -m repro.experiments --all --quick --csv results/
    python -m repro.experiments E1 --trace traces/
    python -m repro.experiments summarize traces/trace_e1.jsonl
    python -m repro.experiments chaos --seed 7 --ticks 200

``--quick`` shrinks workloads for a fast smoke pass; ``--csv DIR``
additionally writes one CSV per experiment; ``--profile DIR`` runs each
experiment under cProfile, writes ``profile_<id>.pstats`` there and
prints the top-20 functions by cumulative time (see EXPERIMENTS.md).
Every table is held to its sweep's ``check`` at either size: a table
that breaks it is printed (and written), then the command fails.

Observability: ``--trace DIR`` streams one JSONL trace per experiment
into DIR (``trace_<id>.jsonl``), the one observability channel; the
``summarize`` subcommand renders a per-phase cost table from a trace
file; the ``chaos`` subcommand runs the deterministic fault-injection
harness (:mod:`repro.net.chaos`) with per-tick invariant checkers and
exits non-zero on any violation. Whenever results are written
(``--csv`` / ``--trace``), a run manifest with full provenance (specs,
params, seeds, git rev, versions, wall clock) lands next to them as
``manifest.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.obs import (
    JsonlSink,
    Telemetry,
    recording,
    use_telemetry,
    write_manifest,
)


# reach: ``--profile DIR``, the one profiling entry point; no product
# command or test passes it, and a profile is read by hand.
def _profiled_experiment(name: str, quick: bool, out_dir: str):
    """Run one experiment under cProfile and report where time went."""
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        table = run_experiment(name, quick=quick)
    finally:
        prof.disable()
    path = os.path.join(out_dir, f"profile_{name.lower()}.pstats")
    prof.dump_stats(path)
    stats = pstats.Stats(prof)
    stats.sort_stats("cumulative")
    print(f"-- profile: {name} -> {path}")
    stats.print_stats(20)
    return table


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "summarize":
        from repro.obs import summarize

        return summarize.main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.net import chaos

        return chaos.main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids ({', '.join(sorted(EXPERIMENTS))}), "
        "'summarize TRACE' to render a per-phase cost table, or "
        "'chaos' to run the fault-injection harness",
    )
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument(
        "--quick", action="store_true", help="shrunken smoke-sized runs"
    )
    parser.add_argument(
        "--csv", metavar="DIR", help="also write one CSV per experiment"
    )
    parser.add_argument(
        "--profile",
        metavar="DIR",
        help="cProfile each experiment: dump .pstats into DIR and print "
        "the top-20 cumulative functions",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        help="stream one JSONL trace per experiment into DIR",
    )
    args = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if args.all else [n.upper() for n in args.experiments]
    if not names:
        parser.error("give experiment ids or --all")
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    for directory in (args.csv, args.profile, args.trace):
        if directory:
            os.makedirs(directory, exist_ok=True)

    t_start = time.perf_counter()
    with recording() as runs:
        for name in names:
            print(f"== {name}: {EXPERIMENTS[name].about} ==")
            sink = None
            if args.trace:
                sink = JsonlSink(
                    os.path.join(args.trace, f"trace_{name.lower()}.jsonl")
                )
            telemetry = Telemetry(sink)
            t0 = time.perf_counter()
            try:
                with use_telemetry(telemetry):
                    if args.profile:
                        table = _profiled_experiment(
                            name, args.quick, args.profile
                        )
                    else:
                        table = run_experiment(name, quick=args.quick)
            finally:
                telemetry.close()
            elapsed = time.perf_counter() - t0
            print(table.render())
            print(f"({elapsed:.1f}s)\n")
            if args.csv:
                table.to_csv(os.path.join(args.csv, f"{name.lower()}.csv"))
            check = EXPERIMENTS[name].check
            if check is not None:
                check(table)  # raises: the table breaks what the sweep pins

    # The manifest lands next to whichever results are written.
    manifest_dir = args.csv or args.trace
    if manifest_dir is not None:
        path = os.path.join(manifest_dir, "manifest.json")
        write_manifest(
            path,
            runs,
            wall_seconds=round(time.perf_counter() - t_start, 3),
            extra={"experiments": names, "quick": args.quick},
        )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
