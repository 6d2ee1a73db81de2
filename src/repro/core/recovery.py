"""Upstream-backup fault tolerance for streaming workflows.

The paper (§2): *"we leverage H-Store's command logging mechanism to provide
an upstream backup based fault tolerance technique for our streaming
transaction workflows."*

Upstream backup means: only the *inputs at the border* are made durable.
Interior work is never logged — it is deterministically recomputable from
the border inputs.  Concretely, in this reproduction:

* every ``ingest()`` call appends one command-log record carrying the raw
  tuples (the upstream backup itself);
* every ``advance_time()`` call appends a tick record (the timeline is an
  input too);
* OLTP procedure invocations are command-logged exactly as in H-Store;
* **no stream TE is ever logged** — border TEs are re-derived from ingest
  records by the deterministic batch cutter, and interior TEs are re-created
  by PE triggers during replay.

Recovery = load latest snapshot, then replay the log suffix in LSN order,
draining the scheduler to quiescence after each record.  Because the live
engine also drains eagerly around every client interaction, the replayed
interleaving is identical to the original and the recovered state is
bit-for-bit the state an uninterrupted run would have produced (asserted by
the integration tests and experiment E7).

This module provides the measurement/verification helpers; the mechanism
itself lives in :class:`repro.core.engine.SStoreEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import SStoreEngine

__all__ = [
    "StreamingRecoveryReport",
    "crash_and_recover_streaming",
    "state_fingerprint",
    "window_fingerprint",
]


@dataclass(frozen=True)
class StreamingRecoveryReport:
    """Outcome of one streaming crash/recover cycle."""

    lost_log_records: int
    replayed_records: int
    had_snapshot: bool
    fingerprint_before: dict[str, Any]
    fingerprint_after: dict[str, Any]

    @property
    def state_matches(self) -> bool:
        return self.fingerprint_before == self.fingerprint_after


def state_fingerprint(engine: "SStoreEngine") -> dict[str, Any]:
    """A comparable digest of all durable-relevant engine state.

    Covers every regular table's rows (sorted), every window's contents, and
    stream live contents — the state a user can observe.

    Multi-process clusters (:class:`repro.parallel.ParallelHStoreEngine`)
    hold their partitions in worker processes rather than in
    ``engine.partitions``; they expose the same digest shape via
    ``cluster_state_fingerprint()``, which this helper dispatches to so the
    recovery-equivalence machinery treats both deployments identically.
    """
    cluster = getattr(engine, "cluster_state_fingerprint", None)
    if cluster is not None:
        return cluster()
    fingerprint: dict[str, Any] = {}
    for partition in engine.partitions:
        for name, table in partition.ee.tables().items():
            key = f"p{partition.partition_id}:{name}"
            fingerprint[key] = sorted(table.rows())
    return fingerprint


def window_fingerprint(engine: "SStoreEngine") -> dict[str, Any]:
    """Per-window digest beyond the live rows (those are table state).

    Captures each window's staged-but-not-yet-admitted tuples, arrival
    counter and slide boundary — the bookkeeping that must survive recovery
    for the next slide to behave identically.  Engines without a streaming
    layer (plain H-Store) fingerprint as empty.
    """
    fingerprint: dict[str, Any] = {}
    for name, state in getattr(engine, "windows", {}).items():
        dump = state.dump_state()
        fingerprint[name] = {
            "arrivals": dump.get("arrivals", 0),
            "staged": [tuple(row) for row in dump.get("staging", [])],
            "last_boundary": dump.get("last_boundary", -1),
            "live_rowids": [int(r) for r in dump.get("live_rowids", [])],
        }
    return fingerprint


def crash_and_recover_streaming(engine: "SStoreEngine") -> StreamingRecoveryReport:
    """Crash the engine, recover it, and verify state equivalence."""
    engine.run_until_quiescent()
    before = state_fingerprint(engine)
    lost = engine.crash()
    replayed = engine.recover()
    after = state_fingerprint(engine)
    return StreamingRecoveryReport(
        lost_log_records=lost,
        replayed_records=replayed,
        had_snapshot=engine.last_recovery_report.had_snapshot,
        fingerprint_before=before,
        fingerprint_after=after,
    )
