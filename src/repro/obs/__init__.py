"""Observability: the telemetry handle, trace events, run manifests.

See DESIGN.md §9. The package is import-cheap (no numpy, no simulator
imports) so the rest of the stack can depend on it without cycles;
:mod:`repro.obs.summarize` is imported lazily by the CLI.
"""

from repro.obs.manifest import (
    build_manifest,
    environment,
    git_revision,
    record_run,
    recording,
    write_manifest,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    active_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.obs.trace import (
    META_KINDS,
    PERF_KINDS,
    PROTOCOL_KINDS,
    JsonlSink,
    RingSink,
    TraceEvent,
    TraceSink,
    protocol_events,
    read_jsonl,
)

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "active_telemetry",
    "set_telemetry",
    "use_telemetry",
    "TraceEvent",
    "TraceSink",
    "RingSink",
    "JsonlSink",
    "PROTOCOL_KINDS",
    "PERF_KINDS",
    "META_KINDS",
    "protocol_events",
    "read_jsonl",
    "recording",
    "record_run",
    "build_manifest",
    "write_manifest",
    "environment",
    "git_revision",
]
