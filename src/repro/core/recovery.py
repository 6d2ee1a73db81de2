"""The referee: one notion of "the same state" for every equivalence check.

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
bit-for-bit the state an uninterrupted run would have produced.

Every engine reports what it holds through one ``observe()`` method:

* ``p<partition>:<table>`` — the partition's table rows, sorted;
* ``clock`` — the logical clock;
* ``window:<name>`` — a window's staged tuples, arrival count, slide
  boundary and live rowids (streaming engines);
* ``commits:<stream>`` — ``(batches, crc32)`` over the stream's committed
  batches in commit order (streaming engines);

and a process cluster reports ``{worker id: that worker's observe()}``.
This module holds the only comparison (:func:`diverging`) and the only fold
that removes placement (:func:`logical`), so the crash-recovery checker
(:class:`repro.faults.checker.RecoveryEquivalenceChecker`), the streaming
crash/recover helper and the single-engine-vs-cluster differential report
all agree on what equivalence means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import SStoreEngine

__all__ = [
    "DifferentialReport",
    "StreamingRecoveryReport",
    "crash_and_recover_streaming",
    "differential_report",
    "diverging",
    "logical",
]


def _places(observation: dict) -> dict[str, dict[str, Any]]:
    """Key prefix → one engine's observation: ``w<id>/`` per cluster
    worker, or ``""`` for an in-process engine."""
    if isinstance(next(iter(observation)), int):
        return {f"w{wid}/": place for wid, place in observation.items()}
    return {"": observation}


def diverging(a: dict, b: dict) -> list[str]:
    """The sorted keys on which two observations differ (``[]`` = equal).

    A cluster's keys are qualified by worker: ``w1/commits:mid``.
    """
    a, b = _flat(a), _flat(b)
    return sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))


def _flat(observation: dict) -> dict[str, Any]:
    return {
        prefix + key: value
        for prefix, place in _places(observation).items()
        for key, value in place.items()
    }


def logical(observation: dict) -> dict[str, Any]:
    """Fold placement out of an observation: ``{table: rows}``, every
    ``commits:<stream>`` and ``clock``.

    A table whose copies (partitions, workers) are all identical counts once
    — a replicated table; any other contributes the sorted union of its
    shards — a workflow-owned table with empty non-owner replicas, or an
    OLTP table sharded by key.  Each stream is consumed in exactly one
    place, so its commit digest is that place's.  The clock counts once
    when every place agrees.  Windows are left out: their live rowids are
    local to a placement.

    Caveat: a sharded table whose shards are coincidentally identical folds
    to one copy like a replicated one; the test workloads avoid that shape.
    """
    shards: dict[str, list[list]] = {}
    state: dict[str, Any] = {}
    clocks: list[int] = []
    for place in _places(observation).values():
        for key, value in place.items():
            kind, _, name = key.partition(":")
            if key == "clock":
                clocks.append(value)
            elif kind == "commits":
                state[key] = value
            elif kind != "window":
                shards.setdefault(name, []).append(value)
    for name, copies in shards.items():
        if all(copy == copies[0] for copy in copies[1:]):
            state[name] = copies[0]
        else:
            state[name] = sorted(row for copy in copies for row in copy)
    state["clock"] = clocks[0] if len(set(clocks)) == 1 else tuple(clocks)
    return state


@dataclass(frozen=True)
class DifferentialReport:
    """One engine against another, placement folded out."""

    mismatched_keys: list[str]

    @property
    def equivalent(self) -> bool:
        return not self.mismatched_keys

    def summary(self) -> str:
        if self.equivalent:
            return "EQUIVALENT"
        return f"DIVERGED on {', '.join(self.mismatched_keys)}"


def differential_report(reference: Any, observed: Any) -> DifferentialReport:
    """Compare the committed state and per-stream commit order of any two
    engines — e.g. a single-process engine and a cluster running the same
    workflow script."""
    return DifferentialReport(
        diverging(logical(reference.observe()), logical(observed.observe()))
    )


@dataclass(frozen=True)
class StreamingRecoveryReport:
    """Outcome of one streaming crash/recover cycle."""

    lost_log_records: int
    replayed_records: int
    had_snapshot: bool
    mismatched_keys: list[str]

    @property
    def state_matches(self) -> bool:
        return not self.mismatched_keys


def crash_and_recover_streaming(engine: "SStoreEngine") -> StreamingRecoveryReport:
    """Crash the engine, recover it, and compare its observations."""
    engine.run_until_quiescent()
    before = engine.observe()
    lost = engine.crash()
    replayed = engine.recover()
    return StreamingRecoveryReport(
        lost_log_records=lost,
        replayed_records=replayed,
        had_snapshot=engine.last_recovery_report.had_snapshot,
        mismatched_keys=diverging(before, engine.observe()),
    )
