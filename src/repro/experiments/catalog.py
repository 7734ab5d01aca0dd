"""The algorithm catalog: one place that knows every knob.

Per-algorithm parameter names, defaults and help strings used to live
implicitly in ``params.pop(name, default)`` calls scattered over six
builder functions; this module makes them *data*. Everything downstream
derives from :data:`CATALOG`:

* :class:`~repro.experiments.config.RunConfig` validates parameter
  names against it (with near-miss suggestions);
* ``ALGORITHMS[name].param_defaults`` exposes the defaults
  programmatically;
* the parameter table in the :mod:`repro.experiments.algorithms`
  docstring is rendered from it (:func:`render_param_table`), so docs
  cannot drift from behavior.

**On the two ``lease_ticks`` defaults.** DKNN-P (fault-tolerant mode)
and DKNN-G both have a knob called ``lease_ticks``, with *different
defaults on purpose* — they parameterize different mechanisms:

* DKNN-P's lease (default **8**) is a *failure-detection timeout*: a
  region-holding object silent for more than the lease is suspected
  crashed and evicted. Heartbeats fire one tick before expiry, so the
  default trades detection latency against heartbeat uplink traffic.
* DKNN-G's lease (default **10**) is a *renewal interval*: the server
  re-geocasts an unchanged installation every ``lease_ticks`` ticks,
  and the geocast coverage is widened by ``lease_ticks * v_max`` so no
  object can reach the band before the next renewal. The default
  trades renewal downlink traffic against coverage (wake-up) area.

Unifying them would silently re-tune one of the two protocols (E12's
renewal counts or E14's detection latency). The divergence is pinned by
``tests/test_run_config.py``.
"""

from __future__ import annotations

import difflib
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "ParamSpec",
    "AlgorithmInfo",
    "CATALOG",
    "DISTRIBUTED",
    "CENTRALIZED",
    "suggest_name",
    "render_param_table",
]

#: Algorithm families, for experiment grouping.
DISTRIBUTED = ("DKNN-P", "DKNN-B", "DKNN-G")
CENTRALIZED = ("PER", "SEA", "CPM")


class ParamSpec:
    """One tunable parameter: its default and a one-line description."""

    __slots__ = ("name", "default", "help")

    def __init__(self, name: str, default: Any, help: str = "") -> None:
        self.name = name
        self.default = default
        self.help = help

    def __repr__(self) -> str:
        return f"ParamSpec({self.name}={self.default!r})"


class AlgorithmInfo:
    """Name, family, and parameter surface of one algorithm."""

    __slots__ = ("name", "family", "summary", "params")

    def __init__(
        self,
        name: str,
        family: str,
        summary: str,
        params: Tuple[ParamSpec, ...],
    ) -> None:
        self.name = name
        self.family = family
        self.summary = summary
        self.params: Mapping[str, ParamSpec] = {p.name: p for p in params}

    @property
    def param_defaults(self) -> Dict[str, Any]:
        """``{param_name: default}`` — the programmatic knob surface."""
        return {name: p.default for name, p in self.params.items()}

    def __repr__(self) -> str:
        return f"AlgorithmInfo({self.name}, params={sorted(self.params)})"


_GRID_CELLS = ParamSpec(
    "grid_cells", 32, "server-side grid index resolution (cells per axis)"
)
_S_CAP = ParamSpec("s_cap", 50.0, "cap on the band slack s")
_COLLECT_RADIUS = ParamSpec(
    "initial_collect_radius", 1000.0, "first collect radius (no history)"
)
_COLLECT_SLACK = ParamSpec(
    "collect_slack", 1.5, "re-collect radius = (threshold + s) * slack"
)

CATALOG: Dict[str, AlgorithmInfo] = {
    info.name: info
    for info in (
        AlgorithmInfo(
            "DKNN-P",
            "distributed",
            "point-to-point: dead reckoning + bands + planner",
            (
                ParamSpec(
                    "theta", 100.0, "dead-reckoning report threshold"
                ),
                _S_CAP,
                _GRID_CELLS,
                ParamSpec(
                    "incremental", True, "attempt light repairs first"
                ),
                ParamSpec(
                    "fault_tolerant",
                    False,
                    "acked installs, leases/heartbeats, violation retry",
                ),
                ParamSpec(
                    "ack_timeout", 2, "ticks before an install retransmit"
                ),
                ParamSpec(
                    "lease_ticks",
                    8,
                    "failure-detection lease (heartbeat timeout); "
                    "deliberately differs from DKNN-G's renewal interval",
                ),
                ParamSpec(
                    "violation_retry",
                    2,
                    "ticks before a violation is re-reported",
                ),
            ),
        ),
        AlgorithmInfo(
            "DKNN-B",
            "distributed",
            "broadcast: tableless server, collect-driven repairs",
            (_S_CAP, _COLLECT_RADIUS, _COLLECT_SLACK),
        ),
        AlgorithmInfo(
            "DKNN-G",
            "distributed",
            "geocast: area-scoped DKNN-B with epochs and leases",
            (
                _S_CAP,
                _COLLECT_RADIUS,
                _COLLECT_SLACK,
                ParamSpec(
                    "lease_ticks",
                    10,
                    "renewal geocast interval (coverage widens by "
                    "lease * v_max); deliberately differs from DKNN-P's "
                    "failure-detection lease",
                ),
            ),
        ),
        AlgorithmInfo(
            "PER",
            "centralized",
            "periodic reporting, recompute every `period` ticks",
            (
                _GRID_CELLS,
                ParamSpec("period", 1, "recompute interval in ticks"),
            ),
        ),
        AlgorithmInfo(
            "SEA",
            "centralized",
            "SEA-CNN-style region-incremental recomputation",
            (_GRID_CELLS,),
        ),
        AlgorithmInfo(
            "CPM",
            "centralized",
            "CPM-style conceptual-partitioning recomputation",
            (_GRID_CELLS,),
        ),
    )
}


def suggest_name(wrong: str, candidates) -> Optional[str]:
    """Closest match for a mistyped name, or None if nothing is close.

    Case-insensitive as a fallback: ``dknn-p`` suggests ``DKNN-P`` even
    though edit distance alone would not get there.
    """
    names = list(candidates)
    matches = difflib.get_close_matches(wrong, names, n=1)
    if matches:
        return matches[0]
    folded = {name.lower(): name for name in names}
    return folded.get(wrong.lower())


def render_param_table() -> str:
    """The per-algorithm parameter table, rendered from the catalog."""
    rows = []
    for name in (*DISTRIBUTED, *CENTRALIZED):
        info = CATALOG[name]
        cells = ", ".join(
            f"{p.name}={p.default!r}" for p in info.params.values()
        )
        rows.append((name, cells or "(none)"))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {cells}" for name, cells in rows)
