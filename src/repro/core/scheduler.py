"""The streaming transaction scheduler.

Pending transaction executions are kept in a priority queue ordered by
``(origin_batch_id, workflow depth, enqueue sequence)``.  Popping in that
order yields exactly the schedules the paper's transaction model demands:

* **natural order** — a procedure's TEs are enqueued in batch order and
  origin ids are monotone, so per-procedure order is preserved;
* **workflow order** — a downstream TE is only *created* when its upstream
  TE commits (push-based PE triggers), so dependencies are structural;
* **contiguity under sharing** — an origin batch's pipeline
  ``(b, depth 0), (b, depth 1), ...`` sorts strictly before any later
  batch ``(b+1, 0)``, so each pipeline instance runs to completion before
  the next batch starts — the serial execution the paper requires for
  workflows with shared writable tables, applied uniformly.

The scheduler is deliberately *not* work-conserving across batches: it
prioritizes finishing pipeline instances over starting new ones, trading a
little latency for the ordering guarantee.  The naive H-Store baseline has
no scheduler at all — clients submit in arrival order — which is what
experiments E1/E2/E9 exploit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any

from repro.core.batch import Batch
from repro.errors import SchedulingError

__all__ = ["StreamTask", "StreamScheduler"]


@dataclass(slots=True)
class StreamTask:
    """One pending transaction execution."""

    procedure_name: str
    batch: Batch
    depth: int
    workflow_name: str
    #: tracing lineage: context of the span that created this task, so the
    #: downstream TE joins the same trace as the ingest that caused it
    trace_ctx: Any = None


class StreamScheduler:
    """Priority queue of pending stream TEs."""

    def __init__(self) -> None:
        #: ``(origin batch, depth, enqueue seq, task)``: the unique sequence
        #: number settles every comparison before it reaches the task
        self._heap: list[tuple[int, int, int, StreamTask]] = []
        self._enqueue_seq = 0

    def enqueue(self, task: StreamTask) -> None:
        heapq.heappush(
            self._heap,
            (task.batch.origin_batch_id, task.depth, self._enqueue_seq, task),
        )
        self._enqueue_seq += 1

    def pop_next(self) -> StreamTask:
        if not self._heap:
            raise SchedulingError("no pending transaction executions")
        return heapq.heappop(self._heap)[3]

    @property
    def pending_count(self) -> int:
        return len(self._heap)

    @property
    def has_pending(self) -> bool:
        return bool(self._heap)

    def peek_priorities(self) -> list[tuple[int, int, int]]:
        """Sorted snapshot of pending priorities (test/debug helper)."""
        return sorted(entry[:3] for entry in self._heap)

    def clear(self) -> int:
        dropped = len(self._heap)
        self._heap.clear()
        return dropped
