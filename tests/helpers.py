"""Shared helpers for protocol integration tests."""

from __future__ import annotations

from typing import List, Sequence

from repro.metrics.accuracy import is_valid_knn
from repro.net.node import ServerNodeBase
from repro.server.query_table import QuerySpec

__all__ = ["ExactnessChecker", "SinkServer"]


class SinkServer(ServerNodeBase):
    """Accepts every uplink and answers nothing: the test plays the
    server's part by dispatching downlinks to the nodes itself."""

    columnar = True

    def on_uplink_batch(self, batch) -> bool:
        return True


class ExactnessChecker:
    """Verifies published answers against ground truth every tick."""

    def __init__(self, fleet, specs: Sequence[QuerySpec]) -> None:
        self.fleet = fleet
        self.specs = list(specs)
        self.failures: List[str] = []
        self.checked = 0

    def __call__(self, sim) -> None:
        positions = self.fleet.positions
        for spec in self.specs:
            qx, qy = positions[spec.focal_oid]
            answer = sim.server.answers[spec.qid]
            self.checked += 1
            if not is_valid_knn(
                positions, qx, qy, spec.k, answer, {spec.focal_oid}
            ):
                self.failures.append(
                    f"tick {sim.tick} query {spec.qid}: {sorted(answer)}"
                )

    def assert_clean(self) -> None:
        assert self.checked > 0, "checker never ran"
        assert not self.failures, (
            f"{len(self.failures)}/{self.checked} invalid answers; "
            f"first: {self.failures[0]}"
        )
