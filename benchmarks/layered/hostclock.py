"""Reference-box time: wall time divided by how slow the host is right now.

The sandbox this benchmark runs on shares its host. The same seeded
window of ``p_dense`` (identical work, identical message counts) took
39 ms a tick in one quarter of an hour and 52-69 ms in the next, in
stretches longer than a run, so neither a median inside a run nor a 10 %
bound across runs can be held on raw wall time. A fixed kernel that
touches nothing of the program under test — a few numpy passes over
50 000 doubles plus a short interpreter loop, the two kinds of work a
tick is made of — slows down with it: dividing by the kernel's time,
sampled at every block boundary, cut the run-to-run spread of that
window from ~15 % to ~4 %.

Timings that carry a bound (``ticks_per_s``, ``tick_ms_p50``,
``setup_s``) are therefore reported in reference-box time; the raw wall
values and the slowness samples are kept in the detail line. Per-layer
times are raw, next to ``sim.host_slowness``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: kernel seconds on the 2-core reference box when its host is quiet;
#: only fixes the scale, so that reference-box ms read like wall ms.
KERNEL_NOMINAL_S = 0.004


class HostClock:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._xs = rng.random(50_000)
        self._ys = rng.random(50_000)
        self._table = {i: i for i in range(1024)}

    def slowness(self) -> float:
        """Kernel time now ÷ nominal: 1.0 on a quiet reference box."""
        xs, ys, get = self._xs, self._ys, self._table.get
        start = perf_counter()
        for _ in range(6):
            dx = xs - 0.5
            dy = ys - 0.5
            np.nonzero(np.sqrt(dx * dx + dy * dy) > 0.3)
        acc = 0
        for i in range(30_000):
            acc += get(i & 1023, 0)
        return (perf_counter() - start) / KERNEL_NOMINAL_S
