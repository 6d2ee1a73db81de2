"""Pipeline latency tracking.

Streaming systems are judged on end-to-end latency as much as throughput.
The tracker records, per *origin batch* (one pipeline instance), the wall
time from batch formation (the scheduler accepted it) to the commit of its
last transaction execution — i.e., queueing delay plus every TE in the
pipeline.

Latencies are observational only: they are not part of durable state and do
not participate in recovery (wall time is inherently non-replayable).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

__all__ = ["LATENCY_RING", "LatencySummary", "LatencyTracker"]

#: completed pipeline latencies kept for the summary's distribution
LATENCY_RING = 2048


@dataclass(frozen=True)
class LatencySummary:
    """Completed pipelines so far (``count``) and the distribution of the
    most recent ``LATENCY_RING`` of their latencies, in milliseconds."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    max_ms: float

    @staticmethod
    def empty() -> "LatencySummary":
        return LatencySummary(count=0, mean_ms=0.0, p50_ms=0.0, p95_ms=0.0,
                              max_ms=0.0)


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


class LatencyTracker:
    """Enqueue→last-commit latency per origin batch."""

    def __init__(self, clock: "callable[[], float]" = time.perf_counter) -> None:
        self._clock = clock
        #: origin batch → [enqueued at, latest commit or None], until finalized
        self._in_flight: dict[int, list[float | None]] = {}
        self._completed: deque[float] = deque(maxlen=LATENCY_RING)
        self.completed_count = 0

    def record_enqueue(self, origin_batch_id: int) -> None:
        """Called when a BSP batch is cut; first call per origin wins."""
        self._in_flight.setdefault(origin_batch_id, [self._clock(), None])

    def record_commit(self, origin_batch_id: int) -> None:
        """Called at each TE commit; the last one defines completion."""
        entry = self._in_flight.get(origin_batch_id)
        if entry is not None:
            entry[1] = self._clock()

    def finalize(self) -> None:
        """The scheduler is quiescent: every in-flight pipeline has run its
        last TE, so fold the committed ones into the ring and forget them."""
        for enqueued, committed in self._in_flight.values():
            if committed is not None:
                self._completed.append((committed - enqueued) * 1000.0)
                self.completed_count += 1
        self._in_flight.clear()

    # ------------------------------------------------------------------

    def latencies_ms(self) -> list[float]:
        return list(self._completed)

    def summary(self) -> LatencySummary:
        values = sorted(self._completed)
        if not values:
            return LatencySummary.empty()
        return LatencySummary(
            count=self.completed_count,
            mean_ms=sum(values) / len(values),
            p50_ms=_percentile(values, 0.50),
            p95_ms=_percentile(values, 0.95),
            max_ms=values[-1],
        )

    def reset(self) -> None:
        self._in_flight.clear()
        self._completed.clear()
        self.completed_count = 0
