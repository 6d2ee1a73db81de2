"""The differential ordering oracle.

Runs of the *same* workflow script on a single-process
:class:`~repro.core.engine.SStoreEngine` and on a
:class:`~repro.dstream.engine.DStreamEngine` cluster must be
indistinguishable in two observables:

* **committed state** — the canonical ``{table: sorted rows}`` view
  (cluster-side, workflow-owned tables live on one worker and replicated
  reference tables contribute a single copy);
* **per-stream commit order** — how many input batches each stream's
  consuming TEs committed and a rolling, process-stable digest (crc32) of
  their rows in commit order; engines keep this O(streams) pair, not the
  sequence itself.

This module compares those observables between any two engines that expose
them, producing a :class:`DifferentialReport` the test suite asserts on.

Caveat: a sharded OLTP table whose per-worker shards are coincidentally
identical is folded to one copy like a replicated table; the test
workloads avoid that degenerate shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "DifferentialReport",
    "commit_order_of",
    "differential_report",
    "logical_state_of",
]


def logical_state_of(engine: Any) -> dict[str, list]:
    """Canonical ``{table: sorted rows}`` for either deployment."""
    cluster = getattr(engine, "logical_state", None)
    if cluster is not None:
        return cluster()
    return {
        name: sorted(table.rows())
        for name, table in engine.partitions[0].ee.tables().items()
    }


def commit_order_of(engine: Any) -> dict[str, tuple[int, int]]:
    """Per-stream ``(batches committed, order digest)`` for either deployment."""
    cluster = getattr(engine, "stream_commit_order", None)
    if cluster is not None:
        return cluster()
    return dict(engine.stream_commits)


@dataclass
class DifferentialReport:
    """Outcome of one reference-vs-observed comparison."""

    equivalent: bool
    state_mismatches: list[str] = field(default_factory=list)
    order_mismatches: list[str] = field(default_factory=list)

    def summary(self) -> str:
        if self.equivalent:
            return "EQUIVALENT"
        return (
            f"DIVERGED: state mismatches on tables "
            f"{self.state_mismatches or '[]'}, commit-order mismatches on "
            f"streams {self.order_mismatches or '[]'}"
        )


def differential_report(reference: Any, observed: Any) -> DifferentialReport:
    """Compare committed state and per-stream commit order of two engines."""
    ref_state = logical_state_of(reference)
    obs_state = logical_state_of(observed)
    state_mismatches = sorted(
        name
        for name in set(ref_state) | set(obs_state)
        if ref_state.get(name) != obs_state.get(name)
    )
    ref_order = commit_order_of(reference)
    obs_order = commit_order_of(observed)
    order_mismatches = sorted(
        stream
        for stream in set(ref_order) | set(obs_order)
        if ref_order.get(stream) != obs_order.get(stream)
    )
    return DifferentialReport(
        equivalent=not state_mismatches and not order_mismatches,
        state_mismatches=state_mismatches,
        order_mismatches=order_mismatches,
    )
