"""Continuous-query registry: specs and registration bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from repro.errors import ProtocolError

__all__ = ["QuerySpec", "QueryTable"]


@dataclass(frozen=True)
class QuerySpec:
    """A continuous moving-kNN query.

    Attributes
    ----------
    qid:
        Unique query id.
    focal_oid:
        The fleet object the query is anchored at (the query point
        moves with this object). The focal object never appears in its
        own answer.
    k:
        Number of neighbors to maintain.
    """

    qid: int
    focal_oid: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ProtocolError(f"query {self.qid}: k must be >= 1, got {self.k}")
        if self.focal_oid < 0:
            raise ProtocolError(
                f"query {self.qid}: invalid focal object {self.focal_oid}"
            )


class QueryTable:
    """All registered queries, by id, in registration order."""

    def __init__(self) -> None:
        self._by_qid: Dict[int, QuerySpec] = {}

    def register(self, spec: QuerySpec) -> None:
        if spec.qid in self._by_qid:
            raise ProtocolError(f"query {spec.qid} already registered")
        self._by_qid[spec.qid] = spec

    def get(self, qid: int) -> QuerySpec:
        spec = self._by_qid.get(qid)
        if spec is None:
            raise ProtocolError(f"query {qid} not registered")
        return spec

    def __iter__(self) -> Iterator[QuerySpec]:
        return iter(self._by_qid.values())
