"""Transaction executions and the S-Store schedule validator.

A *transaction execution* (TE) is one run of a stored procedure on one input
batch.  The paper's extended transaction model imposes three ordering rules
on any legal ("S-Store serializable") schedule:

1. **Natural order** — the i-th TE of a stored procedure precedes its
   (i+1)-th TE (per-procedure batches are processed in arrival order).
2. **Workflow order** — for a given input batch, if SP_a precedes SP_b in
   the workflow, SP_a's TE on that batch precedes SP_b's TE on it.
3. **Contiguity under sharing** — when workflow procedures share writable
   tables, each batch's pipeline of TEs must run serially, with no TEs of
   *other* batches of the same workflow interleaved.

:func:`validate_schedule` checks a recorded history against these rules and
returns every violation.  The S-Store scheduler produces histories that pass
by construction; the naive H-Store baseline (client-driven, arrival-order
execution) produces histories that fail — which is experiment E9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.workflow import WorkflowSpec

__all__ = ["HISTORY_RING", "TERecord", "ScheduleViolation", "validate_schedule"]

#: committed TEs an engine keeps for the validator — a ring, so a long-running
#: engine's history is bounded; above the largest validated run (1 500 TEs)
HISTORY_RING = 2048


@dataclass(slots=True)
class TERecord:
    """One committed transaction execution in a history."""

    seq: int  # global commit order (0, 1, 2, ...)
    procedure: str
    origin_batch_id: int
    depth: int
    workflow: str

    def __post_init__(self) -> None:
        self.procedure = self.procedure.lower()
        self.workflow = self.workflow.lower()


@dataclass(frozen=True)
class ScheduleViolation:
    """One broken ordering rule."""

    rule: str  # "natural-order" | "workflow-order" | "contiguity"
    description: str
    first_seq: int
    second_seq: int


def validate_schedule(
    records: Iterable[TERecord],
    workflow: WorkflowSpec,
) -> list[ScheduleViolation]:
    """All ordering violations in a history, for one workflow's TEs."""
    history = [
        record
        for record in sorted(records, key=lambda r: r.seq)
        if record.workflow == workflow.name
    ]
    violations: list[ScheduleViolation] = []
    violations.extend(_check_natural_order(history))
    violations.extend(_check_workflow_order(history))
    if workflow.serial_required:
        violations.extend(_check_contiguity(history))
    return violations


def _check_natural_order(history: list[TERecord]) -> list[ScheduleViolation]:
    """Per procedure, origin batch ids must be non-decreasing."""
    violations: list[ScheduleViolation] = []
    last_seen: dict[str, TERecord] = {}
    for record in history:
        previous = last_seen.get(record.procedure)
        if previous is not None and record.origin_batch_id < previous.origin_batch_id:
            violations.append(
                ScheduleViolation(
                    rule="natural-order",
                    description=(
                        f"{record.procedure} ran batch "
                        f"{record.origin_batch_id} after batch "
                        f"{previous.origin_batch_id}"
                    ),
                    first_seq=previous.seq,
                    second_seq=record.seq,
                )
            )
        last_seen[record.procedure] = record
    return violations


def _check_workflow_order(history: list[TERecord]) -> list[ScheduleViolation]:
    """Per batch, depths must be non-decreasing (upstream before downstream)."""
    violations: list[ScheduleViolation] = []
    deepest: dict[int, TERecord] = {}
    for record in history:
        previous = deepest.get(record.origin_batch_id)
        if previous is not None and record.depth < previous.depth:
            violations.append(
                ScheduleViolation(
                    rule="workflow-order",
                    description=(
                        f"batch {record.origin_batch_id}: "
                        f"{record.procedure} (depth {record.depth}) ran after "
                        f"{previous.procedure} (depth {previous.depth})"
                    ),
                    first_seq=previous.seq,
                    second_seq=record.seq,
                )
            )
        if previous is None or record.depth >= previous.depth:
            deepest[record.origin_batch_id] = record
    return violations


def _check_contiguity(history: list[TERecord]) -> list[ScheduleViolation]:
    """Batch pipelines must not interleave when sharing is present."""
    violations: list[ScheduleViolation] = []
    finished: set[int] = set()
    current: TERecord | None = None
    for record in history:
        if record.origin_batch_id in finished:
            violations.append(
                ScheduleViolation(
                    rule="contiguity",
                    description=(
                        f"batch {record.origin_batch_id} resumed "
                        f"({record.procedure}) after other batches ran"
                    ),
                    first_seq=current.seq if current is not None else -1,
                    second_seq=record.seq,
                )
            )
            continue
        if current is not None and record.origin_batch_id != current.origin_batch_id:
            finished.add(current.origin_batch_id)
        current = record
    return violations
