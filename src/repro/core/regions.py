"""Threshold and safe-region computation — the heart of DKNN.

Correctness lemma (the *band invariant*)
----------------------------------------

Fix an anchor ``q0`` (the exact query position at installation time), a
threshold ``t`` and a margin ``s <= t``. Suppose at some later tick:

(a) every answer object ``a`` satisfies ``dist(a, q0) <= t - s``;
(b) every non-answer object ``o`` satisfies ``dist(o, q0) >= t + s``;
(c) the query ``q`` satisfies ``dist(q, q0) <= s``.

Then for every answer ``a`` and non-answer ``o``::

    dist(a, q) <= dist(a, q0) + dist(q0, q) <= (t - s) + s = t
    dist(o, q) >= dist(o, q0) - dist(q0, q) >= (t + s) - s = t

so every answer object is at least as close to the *actual* query
position as every non-answer object — the installed answer remains a
valid kNN set without any message being exchanged. The protocol's job
reduces to (1) installing bands that hold at installation time and (2)
reacting the moment any of (a)–(c) is violated.

Installability: with exact candidate distances ``d_1 <= ... <= d_k <=
d_{k+1}``, choosing ``t = (d_k + d_{k+1}) / 2`` makes (a) and (b) hold
at installation for any ``s <= (d_{k+1} - d_k) / 2``. The effective
margin is therefore ``s_eff = min(s_cap, (d_{k+1} - d_k) / 2)`` where
``s_cap`` is the configured maximum (larger caps mean a laxer query
circle but tighter object bands — the E9 ablation sweeps this).

When fewer than ``k + 1`` candidates exist, every object is an answer
and nothing can ever displace it: ``t = inf`` and all bands are
unviolatable.

Plans are made on candidates ranked by ``(distance, oid)`` as arrays;
the DKNN-P server plans a subround's full repairs in one segmented pass
with the same float expressions (``DknnServer._plan_full``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.errors import ProtocolError

__all__ = ["Installation", "plan_installation"]


@dataclass(frozen=True)
class Installation:
    """Everything the server installs after one repair of one query.

    Attributes
    ----------
    anchor:
        Exact query position at installation time.
    answer:
        Ascending ``(distance, oid)`` pairs of the exact kNN (the
        outsiders are the caller's ranked candidates past ``k``).
    threshold:
        Mid-threshold ``t`` (``inf`` for trivial all-answer cases).
    s_eff:
        Effective margin: query-circle radius and band slack.
    """

    anchor: Tuple[float, float]
    answer: Tuple[Tuple[float, int], ...]
    threshold: float
    s_eff: float

    @cached_property
    def answer_ids(self) -> Tuple[int, ...]:
        return tuple(oid for _, oid in self.answer)

    @property
    def answer_band_radius(self) -> float:
        """Inner band: answer objects stay within this of the anchor."""
        if math.isinf(self.threshold):
            return math.inf
        return self.threshold - self.s_eff

    @property
    def outsider_band_radius(self) -> float:
        """Outer band: informed outsiders stay beyond this."""
        if math.isinf(self.threshold):
            return math.inf
        return self.threshold + self.s_eff

    def monitor_radius(self, uncertainty: float) -> float:
        """Planner zone: reported distance below which an uninformed
        object could violate (b) and must be probed."""
        if math.isinf(self.threshold):
            return math.inf
        return self.threshold + self.s_eff + uncertainty


def plan_installation(
    anchor: Tuple[float, float],
    ds: np.ndarray,
    ids: np.ndarray,
    k: int,
    s_cap: float,
) -> Installation:
    """Compute the bands for one query from exact candidate distances.

    ``ds`` / ``ids`` are the candidates ranked ascending by
    ``(distance, oid)``: distances measured from ``anchor`` — exact
    positions, not reported ones — and the candidates must contain the
    true kNN (the caller's probe radius guarantees this).

    Raises :class:`ProtocolError` on unsorted input (a protocol bug, not
    a data condition).
    """
    if k < 1:
        raise ProtocolError(f"k must be >= 1, got {k}")
    if s_cap < 0:
        raise ProtocolError(f"negative s_cap {s_cap}")
    # one list pass: at the few dozen candidates of a collect or a light
    # repair it is cheaper than numpy's compare-and-reduce
    dl = ds.tolist()
    if any(map(operator.gt, dl, dl[1:])):
        raise ProtocolError("candidates must be ascending by distance")
    answer = tuple(zip(dl, ids[:k].tolist()))
    if len(dl) <= k:
        # Trivial case: every known object is an answer forever (no
        # non-answer object exists to swap in).
        return Installation(anchor, answer, math.inf, s_cap)
    d_k, d_k1 = dl[k - 1], dl[k]
    threshold = (d_k + d_k1) / 2.0
    s_eff = min(s_cap, (d_k1 - d_k) / 2.0)
    return Installation(anchor, answer, threshold, s_eff)
