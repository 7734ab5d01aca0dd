"""Tunable parameters of the DKNN protocol variants."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LeaseError, ProtocolError

__all__ = ["DknnParams", "BroadcastParams"]


@dataclass(frozen=True)
class DknnParams:
    """Parameters of the point-to-point DKNN protocol.

    Attributes
    ----------
    theta:
        Dead-reckoning tolerance: an object reports when it has drifted
        more than this from its last report. Smaller values mean more
        uplink traffic but fewer probes (the E9 ablation).
    s_cap:
        Maximum safe-circle radius granted to the query (and band slack
        granted to objects). The effective value per installation is
        capped by half the k/k+1 distance gap.
    grid_cells:
        Side length (in cells) of the server's grid over reported
        positions.
    latency_slack:
        Extra uncertainty added to ``theta`` in the planner's margin.
        Zero for zero-latency runs; set to the fleet's max speed when
        messages take a tick (positions are one tick staler).
    incremental:
        Enable *light repairs*: a repair triggered purely by object
        band violations (anchor unchanged) touches only the current
        answer plus the violators instead of re-probing and
        re-installing the whole candidate zone. Falls back to a full
        repair whenever the light conditions fail. The E13 ablation
        measures the saving.
    fault_tolerant:
        Enable the self-healing protocol extensions (designed for runs
        under a :class:`~repro.net.faults.FaultPlan`): epoch-stamped,
        acknowledged installs with server retransmission; per-tick
        probe retransmission; installation leases with client
        heartbeats and server-side crash suspicion; and client-side
        violation re-reports. Off by default — with it off, the
        protocol's message stream is byte-identical to the seed.
    ack_timeout:
        Ticks the server waits for an ``INSTALL_ACK`` (or a probe
        reply) before retransmitting. Only used when fault tolerant.
    lease_ticks:
        Installation lease: an object holding a region must be heard
        from within this many ticks or the server suspects it crashed,
        evicts it, and re-plans. Clients refresh one tick early.
        Only used when fault tolerant.
    violation_retry:
        Ticks a client waits for a repair (a new install or a revoke)
        after reporting a violation before re-reporting it. Only used
        when fault tolerant.
    """

    theta: float = 100.0
    s_cap: float = 50.0
    grid_cells: int = 32
    latency_slack: float = 0.0
    incremental: bool = True
    fault_tolerant: bool = False
    ack_timeout: int = 2
    lease_ticks: int = 8
    violation_retry: int = 2

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ProtocolError(f"negative theta {self.theta}")
        if self.s_cap < 0:
            raise ProtocolError(f"negative s_cap {self.s_cap}")
        if self.grid_cells < 1:
            raise ProtocolError(f"grid_cells must be >= 1, got {self.grid_cells}")
        if self.latency_slack < 0:
            raise ProtocolError(f"negative latency_slack {self.latency_slack}")
        if self.ack_timeout < 1:
            raise LeaseError(f"ack_timeout must be >= 1, got {self.ack_timeout}")
        if self.lease_ticks < 2:
            raise LeaseError(
                f"lease_ticks must be >= 2, got {self.lease_ticks}"
            )
        if self.violation_retry < 1:
            raise LeaseError(
                f"violation_retry must be >= 1, got {self.violation_retry}"
            )

    @property
    def uncertainty(self) -> float:
        """Server-side bound on |true - reported| position error."""
        return self.theta + self.latency_slack


@dataclass(frozen=True)
class BroadcastParams:
    """Parameters of the broadcast DKNN variant (DKNN-B).

    Attributes
    ----------
    s_cap:
        As in :class:`DknnParams`.
    initial_collect_radius:
        First collect radius for a query with no history. Doubled until
        the collect returns at least ``k + 1`` replies.
    collect_slack:
        Multiplier applied to the previous threshold when choosing the
        next repair's collect radius.
    """

    s_cap: float = 50.0
    initial_collect_radius: float = 1000.0
    collect_slack: float = 1.5

    def __post_init__(self) -> None:
        if self.s_cap < 0:
            raise ProtocolError(f"negative s_cap {self.s_cap}")
        if self.initial_collect_radius <= 0:
            raise ProtocolError(
                f"initial_collect_radius must be positive, "
                f"got {self.initial_collect_radius}"
            )
        if self.collect_slack <= 1.0:
            raise ProtocolError(
                f"collect_slack must exceed 1.0, got {self.collect_slack}"
            )
