"""Shared switch for the benchmarks outside ``benchmarks/layered``.

Under plain ``pytest benchmarks/ --benchmark-only`` the quick
(smoke-sized) workloads run so the whole suite finishes in minutes; set
``REPRO_BENCH_FULL=1`` to run the full DESIGN.md §4 sizes (identical to
``python -m repro.experiments --all``, which is how EXPERIMENTS.md was
produced). Rendered tables are printed (run pytest with ``-s`` or
``-rA`` to see them) and headline numbers are attached to each
benchmark's ``extra_info``.
"""

from __future__ import annotations

import os

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")
