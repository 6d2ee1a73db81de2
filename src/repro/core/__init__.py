"""``repro.core`` — the S-Store streaming layer (the paper's contribution).

Adds to the H-Store substrate: streams (hidden, garbage-collected state),
windows (native, EE-maintained finite chunks over streams), EE and PE
triggers (data-driven processing inside and across transactions), workflows
(DAGs of dependent stored procedures), the stream-oriented transaction model
(batch-defined TEs, ordering guarantees, TE scoping), and upstream-backup
fault tolerance.
"""

from repro.core.batch import Batch, BatchFactory
from repro.core.engine import SStoreEngine, StreamContext, StreamProcedure
from repro.core.latency import LatencySummary, LatencyTracker
from repro.core.recovery import (
    StreamingRecoveryReport,
    crash_and_recover_streaming,
)
from repro.core.scheduler import StreamScheduler, StreamTask
from repro.core.scope import WindowScopes
from repro.core.stream import StreamInfo, StreamRegistry
from repro.core.transaction import ScheduleViolation, TERecord, validate_schedule
from repro.core.triggers import EETrigger, PETrigger
from repro.core.window import WindowKind, WindowSpec, WindowState
from repro.core.workflow import WorkflowNode, WorkflowSpec

__all__ = [
    "Batch",
    "BatchFactory",
    "LatencySummary",
    "LatencyTracker",
    "SStoreEngine",
    "StreamContext",
    "StreamProcedure",
    "StreamingRecoveryReport",
    "crash_and_recover_streaming",
    "StreamScheduler",
    "StreamTask",
    "WindowScopes",
    "StreamInfo",
    "StreamRegistry",
    "ScheduleViolation",
    "TERecord",
    "validate_schedule",
    "EETrigger",
    "PETrigger",
    "WindowKind",
    "WindowSpec",
    "WindowState",
    "WorkflowNode",
    "WorkflowSpec",
]
