"""S-Store reproduction: a streaming NewSQL system.

This package reimplements, in pure Python, the system described in
*"S-Store: A Streaming NewSQL System for Big Velocity Applications"*
(Cetintemel et al., PVLDB 7(13), 2014): ACID stream processing built by
extending an H-Store-style main-memory OLTP engine with streams, windows,
triggers and transaction workflows.

Quickstart::

    from repro import SStoreEngine, StreamProcedure, WorkflowSpec

    engine = SStoreEngine()
    engine.execute_ddl("CREATE STREAM readings (sensor INTEGER, value FLOAT)")
    engine.execute_ddl("CREATE TABLE totals (sensor INTEGER, total FLOAT, PRIMARY KEY (sensor))")

    class Accumulate(StreamProcedure):
        name = "accumulate"
        statements = {
            "get": "SELECT total FROM totals WHERE sensor = ?",
            "ins": "INSERT INTO totals VALUES (?, ?)",
            "upd": "UPDATE totals SET total = ? WHERE sensor = ?",
        }
        def run(self, ctx):
            for sensor, value in ctx.batch:
                current = ctx.execute("get", sensor).scalar()
                if current is None:
                    ctx.execute("ins", sensor, value)
                else:
                    ctx.execute("upd", current + value, sensor)

    engine.register_procedure(Accumulate)
    wf = WorkflowSpec("totals")
    wf.add_node("accumulate", input_stream="readings", batch_size=2)
    engine.deploy_workflow(wf)

    engine.ingest("readings", [(1, 0.5), (2, 1.5)])   # push-based: one call
    print(engine.execute_sql("SELECT * FROM totals ORDER BY sensor").rows)

See ``README.md`` for the architecture overview and ``docs/INTERNALS.md``
for the paper-to-module map.
"""

from repro.core import (
    Batch,
    SStoreEngine,
    StreamContext,
    StreamProcedure,
    WorkflowSpec,
    crash_and_recover_streaming,
    validate_schedule,
)
from repro.errors import ReproError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RecoveryEquivalenceChecker,
)
from repro.hstore import (
    ClientSession,
    EngineStats,
    HStoreEngine,
    LatencyModel,
    LogicalClock,
    ProcedureContext,
    ProcedureResult,
    ResultSet,
    SqlType,
    StoredProcedure,
    crash_and_recover,
)
from repro.parallel import ParallelHStoreEngine

__version__ = "1.0.0"

__all__ = [
    "Batch",
    "SStoreEngine",
    "StreamContext",
    "StreamProcedure",
    "WorkflowSpec",
    "crash_and_recover_streaming",
    "validate_schedule",
    "ReproError",
    "FaultInjector",
    "FaultPlan",
    "RecoveryEquivalenceChecker",
    "ClientSession",
    "EngineStats",
    "HStoreEngine",
    "LatencyModel",
    "LogicalClock",
    "ParallelHStoreEngine",
    "ProcedureContext",
    "ProcedureResult",
    "ResultSet",
    "SqlType",
    "StoredProcedure",
    "crash_and_recover",
    "__version__",
]
