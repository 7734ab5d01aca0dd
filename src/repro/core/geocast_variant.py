"""The geocast variant of the protocol (DKNN-G) — an extension.

DKNN-B's weakness is the hidden client cost: every broadcast wakes
every radio in the system (``broadcast_receptions`` ~ N per repair).
DKNN-G replaces global broadcasts with *geocasts* — area-scoped radio
messages delivered only inside a coverage circle (cellular
infrastructure provides exactly this) — so wake-ups become
density-dependent too. Collects already have a natural coverage (the
collect circle). Installs need care: an object outside the install's
coverage never learns the query state, re-creating the silent-object
problem the broadcast variant avoided. DKNN-G solves it with a
**lease**:

* every install geocast covers ``threshold + s + lease * v_max`` around
  the anchor, where ``v_max`` is the fleet's hard speed bound;
* an object outside that coverage needs at least ``lease`` ticks to
  reach the outer band, so it provably cannot perturb the answer before
* the server re-geocasts (renews) the same installation every
  ``lease`` ticks, informing anyone who wandered into range.

Stale knowledge is handled with per-query **epochs**: installs carry an
increasing epoch; nodes keep the newest; violations are stamped with
the epoch of the violated region and the server drops reports against
superseded epochs (an object that left coverage and later trips its
long-dead band costs one ignored uplink message, nothing more).

Correctness: identical band-invariant argument as DKNN-B within one
epoch; across epochs the lease bound covers exactly the objects the
epoch's installs did not reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.broadcast_variant import (
    BroadcastMobileNode,
    DknnBroadcastServer,
    _build_system,
    _QueryState,
)
from repro.core.params import BroadcastParams
from repro.core.protocol import BroadcastInstall, GeocastInstall
from repro.errors import ProtocolError
from repro.geometry import Rect
from repro.metrics.cost import CostMeter
from repro.net.faults import FaultPlan
from repro.net.message import Message, MessageKind
from repro.net.simulator import RoundSimulator, ZERO_LATENCY
from repro.server.query_table import QuerySpec

__all__ = ["GeocastParams", "DknnGeocastServer", "GeocastMobileNode",
           "build_geocast_system"]


@dataclass(frozen=True)
class GeocastParams:
    """DKNN-G knobs: the broadcast knobs plus the lease.

    Attributes
    ----------
    s_cap, initial_collect_radius, collect_slack:
        As in :class:`~repro.core.params.BroadcastParams`.
    lease_ticks:
        Renewal interval. Larger leases mean fewer renewal geocasts but
        wider coverage circles (more wake-ups per geocast).
    """

    s_cap: float = 50.0
    initial_collect_radius: float = 1000.0
    collect_slack: float = 1.5
    lease_ticks: int = 10

    def __post_init__(self) -> None:
        # Reuse the broadcast validation for the shared fields.
        BroadcastParams(
            s_cap=self.s_cap,
            initial_collect_radius=self.initial_collect_radius,
            collect_slack=self.collect_slack,
        )
        if self.lease_ticks < 1:
            raise ProtocolError(
                f"lease_ticks must be >= 1, got {self.lease_ticks}"
            )

    def as_broadcast(self) -> BroadcastParams:
        return BroadcastParams(
            s_cap=self.s_cap,
            initial_collect_radius=self.initial_collect_radius,
            collect_slack=self.collect_slack,
        )


class _GeoQueryState(_QueryState):
    __slots__ = ("epoch", "cover", "last_install_tick")

    def __init__(self, spec: QuerySpec) -> None:
        super().__init__(spec)
        self.epoch = 0
        self.cover = 0.0
        self.last_install_tick = -1


class DknnGeocastServer(DknnBroadcastServer):
    """DKNN-B with geocast delivery, epochs, and lease renewals."""

    _STATE = _GeoQueryState

    def __init__(
        self,
        universe: Rect,
        v_max: float,
        params: GeocastParams = GeocastParams(),
        record_history: bool = False,
    ) -> None:
        super().__init__(
            universe, params.as_broadcast(), record_history=record_history
        )
        if v_max < 0:
            raise ProtocolError(f"negative v_max {v_max}")
        self.geo_params = params
        self.v_max = float(v_max)
        #: violations dropped because their epoch was superseded.
        self.stale_violations = 0
        #: renewal geocasts sent (the lease overhead).
        self.renewals = 0

    # -- messages ---------------------------------------------------------

    def _violation(self, kind, src, qid, x, y, epoch) -> None:
        """A report stamped with a superseded epoch is dropped."""
        if epoch != self._require_state(qid).epoch:
            self.stale_violations += 1
            tel = self.telemetry
            if tel.enabled:
                tel.emit(self._tick, "server.stale_violation", qid=qid,
                         oid=src, epoch=epoch)
            return
        super()._violation(kind, src, qid, x, y, epoch)

    # -- collect dispatch (area-scoped instead of global) --------------------

    def _send_collect(self, request) -> None:
        self.geocast(MessageKind.COLLECT, request)

    # -- install dispatch -------------------------------------------------------

    def _send_install(self, st, inst) -> None:
        assert isinstance(st, _GeoQueryState)
        st.epoch += 1
        if math.isinf(inst.threshold):
            # Trivial: nothing monitors anything; one global broadcast
            # updates any stragglers (and the focal's known answer).
            self.broadcast(
                MessageKind.BROADCAST_INSTALL,
                BroadcastInstall(
                    st.spec.qid,
                    inst.anchor[0],
                    inst.anchor[1],
                    inst.threshold,
                    inst.s_eff,
                    inst.answer_ids,
                ),
            )
            st.cover = math.inf
            st.last_install_tick = self._tick
            return
        st.cover = (
            inst.threshold
            + inst.s_eff
            + self.geo_params.lease_ticks * self.v_max
        )
        st.last_install_tick = self._tick
        self.geocast(
            MessageKind.BROADCAST_INSTALL,
            GeocastInstall(
                st.spec.qid,
                inst.anchor[0],
                inst.anchor[1],
                inst.threshold,
                inst.s_eff,
                inst.answer_ids,
                cover=min(st.cover, self._max_radius),
                epoch=st.epoch,
            ),
        )

    # -- lease renewal ------------------------------------------------------------

    def on_subround(self, tick: int) -> None:
        super().on_subround(tick)
        lease = self.geo_params.lease_ticks
        for st in self._states.values():
            if (
                st.phase == "idle"
                and not st.dirty
                and st.anchor is not None
                and math.isfinite(st.threshold)
                and st.last_install_tick >= 0
                and tick - st.last_install_tick >= lease
            ):
                # Re-geocast the unchanged state (same epoch): informs
                # objects that entered coverage since the last install.
                st.last_install_tick = tick
                self.renewals += 1
                tel = self.telemetry
                if tel.enabled:
                    tel.emit(
                        tick,
                        "server.renewal",
                        qid=st.spec.qid,
                        epoch=st.epoch,
                    )
                self.geocast(
                    MessageKind.BROADCAST_INSTALL,
                    GeocastInstall(
                        st.spec.qid,
                        st.anchor[0],
                        st.anchor[1],
                        st.threshold,
                        st.s_eff,
                        st.answer_ids,
                        cover=min(st.cover, self._max_radius),
                        epoch=st.epoch,
                    ),
                )
                self.meter.charge(CostMeter.BOOKKEEPING)


class GeocastMobileNode(BroadcastMobileNode):
    """Broadcast mobile node with epoch-stamped state and violations."""

    def __init__(self, oid: int, fleet, my_qids: Sequence[int] = ()) -> None:
        super().__init__(oid, fleet, my_qids=my_qids)
        self._epochs: Dict[int, int] = {}

    # reach: reference_system oracle (on_tick_start's stamp)
    def _epoch_of(self, qid: int) -> int:
        return self._epochs.get(qid, 0)

    # reach: reference_system oracle for the install arm (the build's
    # BroadcastSilentPhase applies the epoch rule on its cells)
    def on_message(self, msg: Message) -> None:
        if msg.kind == MessageKind.BROADCAST_INSTALL:
            payload = msg.payload
            epoch = getattr(payload, "epoch", 0)
            held = self._epochs.get(payload.qid, -1)
            if epoch < held:
                return  # late duplicate of a superseded install
            if epoch > held:
                self._reported.discard(payload.qid)
            self._epochs[payload.qid] = epoch
            self.monitors[payload.qid] = payload
            if payload.qid in self.my_qids:
                self.known_answers[payload.qid] = list(payload.answer_ids)
            return
        super().on_message(msg)


def build_geocast_system(
    fleet,
    specs: Sequence[QuerySpec],
    params: Optional[GeocastParams] = None,
    latency: str = ZERO_LATENCY,
    record_history: bool = False,
    faults: Optional[FaultPlan] = None,
    telemetry=None,
) -> RoundSimulator:
    """Build a ready-to-run simulator for the geocast protocol."""
    server = DknnGeocastServer(
        fleet.universe,
        fleet.max_speed,
        params if params is not None else GeocastParams(),
        record_history=record_history,
    )
    return _build_system(
        fleet, specs, server, GeocastMobileNode, latency, faults, telemetry
    )
