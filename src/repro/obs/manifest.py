"""Run manifests: enough provenance to reproduce any figure.

A manifest is one JSON document written next to a run's results (CSV,
trace, metrics) recording *everything that went into the numbers*:

* the exact workload spec and algorithm parameters of every run,
  including the RNG seed, latency mode and fault plan;
* the code revision (git rev + dirty bit, when a git checkout is
  available) and package versions (python / numpy / platform);
* wall-clock timings.

The runner does not know where results land, so collection is split:
``run_once`` distills one ``(config, spec, measurement)`` into a dict
and hands it to :func:`record_run`, and whoever opened a
:func:`recording` context (the CLI) gets the accumulated list to pass
to :func:`write_manifest`. With no recording active,
:func:`record_run` is a no-op — library callers pay nothing.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "MANIFEST_SCHEMA",
    "environment",
    "git_revision",
    "recording",
    "record_run",
    "build_manifest",
    "write_manifest",
]

MANIFEST_SCHEMA = 1


def git_revision(cwd: Optional[str] = None) -> Optional[Dict[str, Any]]:
    """``{"rev": ..., "dirty": ...}`` of the enclosing checkout, or None.

    Gated behind try/except: a pip-installed package or a machine
    without git simply reports no revision instead of failing the run.
    """
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if rev.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
        return {
            "rev": rev.stdout.strip(),
            "dirty": bool(status.stdout.strip())
            if status.returncode == 0
            else None,
        }
    except (OSError, subprocess.SubprocessError):
        return None


def environment() -> Dict[str, Any]:
    """Package versions and platform identity."""
    env: Dict[str, Any] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "argv0": sys.argv[0],
    }
    try:
        import numpy as np

        env["numpy"] = np.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        env["numpy"] = None
    try:
        import repro

        env["repro"] = getattr(repro, "__version__", None)
    except Exception:  # pragma: no cover
        env["repro"] = None
    return env


# -- run-record collection ----------------------------------------------------

_recorders: List[List[Dict[str, Any]]] = []


@contextmanager
def recording() -> Iterator[List[Dict[str, Any]]]:
    """Collect every :func:`record_run` call in this scope into a list."""
    runs: List[Dict[str, Any]] = []
    _recorders.append(runs)
    try:
        yield runs
    finally:
        _recorders.remove(runs)


def record_run(record: Dict[str, Any]) -> None:
    """Append one run record to every active recording (no-op if none)."""
    for runs in _recorders:
        runs.append(record)


# -- document assembly --------------------------------------------------------


def build_manifest(
    runs: List[Dict[str, Any]],
    command: Optional[List[str]] = None,
    wall_seconds: Optional[float] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "created_unix": int(time.time()),
        "command": list(command) if command is not None else sys.argv,
        "environment": environment(),
        "git": git_revision(),
        "wall_seconds": wall_seconds,
        "runs": runs,
    }
    if extra:
        doc.update(extra)
    return doc


def write_manifest(path: str, runs: List[Dict[str, Any]], **kw: Any) -> Dict:
    """Assemble and write one manifest JSON; returns the document."""
    doc = build_manifest(runs, **kw)
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc
