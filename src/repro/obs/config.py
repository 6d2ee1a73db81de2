"""Observability configuration: one opt-in knob per engine.

An engine constructed without an :class:`ObsConfig` gets the shared no-op
tracer and no metrics registry — every instrumentation site then costs one
attribute load and one branch.  Passing ``ObsConfig()`` turns on both the
tracer and the metrics registry; the fields below trim either side.

The config is a frozen picklable dataclass because the multi-process
deployment ships it to every :class:`~repro.parallel.worker.PartitionWorker`
inside the worker's :class:`~repro.parallel.worker.WorkerConfig` — the
workers build their own tracer from it and stream span batches back over
the mailbox; with ``metrics`` on each also keeps a hot-key sketch and an
op-latency histogram for the coordinator to pull.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObsConfig"]


@dataclass(frozen=True)
class ObsConfig:
    """What to observe and how much to retain."""

    #: record spans (txn/sql/trigger/ipc/... — see repro.obs.trace)
    tracing: bool = True
    #: keep a metrics registry and update latency histograms per txn
    metrics: bool = True
    #: also record per-EE-event spans — one per SQL statement, window
    #: maintenance firing and EE-trigger firing.  The microscope setting,
    #: off by default: a span costs a couple of microseconds and the EE
    #: executes thousands of such events per second, so they cost ~15%
    #: throughput where the default txn/PE-trigger/workflow-level tracing
    #: costs a few percent (``obs.overhead_pct`` in ``benchmarks/e2e``).
    sql_spans: bool = False

    @property
    def enabled(self) -> bool:
        return self.tracing or self.metrics
