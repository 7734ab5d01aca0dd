"""Network substrate: messages, channel, nodes, faults, simulator.

The chaos harness (:mod:`repro.net.chaos`) is intentionally *not*
imported here: it reaches into :mod:`repro.experiments` to build full
systems, which imports this package — a module-level import would be
cyclic. Import it as ``repro.net.chaos`` or through :mod:`repro.api`.
"""

from repro.net.channel import Channel
from repro.net.engine import (
    ENGINE_MODES,
    EngineConfig,
    EventDriver,
)
from repro.net.faults import FaultPlan, FaultyChannel, ShardFaultPlan
from repro.net.message import (
    BROADCAST_ID,
    GEOCAST_ID,
    HEADER_BYTES,
    SERVER_ID,
    Message,
    MessageKind,
    payload_size,
)
from repro.net.node import MobileNode, Node, ServerNodeBase
from repro.net.shardlink import SHARD_KINDS, ShardLink, ShardMessage
from repro.net.simulator import ONE_TICK_LATENCY, ZERO_LATENCY, RoundSimulator
from repro.net.stats import CommStats

__all__ = [
    "ShardLink",
    "ShardMessage",
    "SHARD_KINDS",
    "Message",
    "MessageKind",
    "payload_size",
    "SERVER_ID",
    "BROADCAST_ID",
    "GEOCAST_ID",
    "HEADER_BYTES",
    "CommStats",
    "Channel",
    "FaultPlan",
    "FaultyChannel",
    "ShardFaultPlan",
    "Node",
    "MobileNode",
    "ServerNodeBase",
    "RoundSimulator",
    "ZERO_LATENCY",
    "ONE_TICK_LATENCY",
    "ENGINE_MODES",
    "EngineConfig",
    "EventDriver",
]
