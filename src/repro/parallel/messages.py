"""The coordinator↔worker mailbox protocol.

Every exchange is a request/reply pair over a worker's mailbox pipes:

* request: ``(seq, op, payload, trace_ctx)`` — ``seq`` is a per-worker
  monotonically increasing integer the reply must echo (a cheap
  protocol-desync tripwire); ``op`` is one of the ``OP_*`` constants; the
  payload shape is per-op; ``trace_ctx`` is the coordinator's active
  :class:`~repro.obs.trace.TraceContext` (or ``None``), which the worker
  adopts so its spans join the same trace.
* reply: ``(seq, status, payload, fired, spans)`` — ``status`` is
  ``"ok"``, ``"error"`` (an engine exception, serialized by name +
  message) or ``"fault"`` (the deterministic fault injector fired inside
  the worker); ``fired`` lists fault-plan specs that newly fired while
  handling the request, as ``(spec_index, label)`` pairs, so the
  coordinator can keep its authoritative plan copy in sync (one-shot specs
  must not re-fire on a sibling worker); ``spans`` is the batch of finished
  worker-side spans (empty when tracing is off), absorbed into the
  coordinator's collector.  Load counters do not ride on replies: the
  coordinator pulls them with ``OP_STATS``, whose payload is the worker's
  ``(EngineStats, hot-key SpaceSaving, partition.op_us Histogram)`` — the
  last two ``None`` unless metrics are on.

Everything crossing a mailbox is a plain picklable value: SQL text,
parameter tuples, procedure *classes* (pickled by reference, which is why
registered procedures must be module-level classes), dataclasses
(``ProcedureResult``, ``EngineStats``, ``LogRecord``), the two
``repro.obs`` instruments above and primitive containers.
"""

from __future__ import annotations

import traceback
from typing import Any

from repro import errors as _errors
from repro.errors import ReproError

__all__ = [
    "OP_DDL",
    "OP_REGISTER",
    "OP_SQL",
    "OP_INVOKE",
    "OP_PREPARE",
    "OP_DECIDE",
    "OP_CRASH",
    "OP_RECOVER",
    "OP_SNAPSHOT",
    "OP_FLUSH_LOG",
    "OP_LOG_RECORDS",
    "OP_STATS",
    "OP_OBSERVE",
    "OP_TABLE_ROWS",
    "OP_DESCRIBE",
    "OP_ENABLE_DURABILITY",
    "OP_RESTORE",
    "OP_INSTALL_FAULTS",
    "OP_PING",
    "OP_SHUTDOWN",
    "OP_DEPLOY_WORKFLOW",
    "OP_INGEST",
    "OP_STREAM_TASK",
    "OP_TICK",
    "OP_WF_DRAIN",
    "OP_TAKE_DISPATCHES",
    "OP_DSTREAM_STATE",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_FAULT",
    "dump_exception",
    "load_exception",
]

# -- deployment / setup ops --------------------------------------------------
OP_DDL = "ddl"                            # payload: sql str
OP_REGISTER = "register"                  # payload: StoredProcedure subclass
OP_ENABLE_DURABILITY = "enable_durability"  # payload: directory path str
OP_INSTALL_FAULTS = "install_faults"      # payload: FaultPlan | None

# -- transaction ops ---------------------------------------------------------
OP_SQL = "sql"                            # payload: (sql, params)
OP_INVOKE = "invoke"                      # payload: (procedure, params)
OP_PREPARE = "prepare"                    # payload: (procedure, params)
OP_DECIDE = "decide"                      # payload: commit bool

# -- durability / recovery ops ----------------------------------------------
OP_CRASH = "crash"                        # payload: None
OP_RECOVER = "recover"                    # payload: None
OP_SNAPSHOT = "snapshot"                  # payload: None
OP_FLUSH_LOG = "flush_log"                # payload: None
OP_RESTORE = "restore"                    # payload: directory path str

# -- observation ops ---------------------------------------------------------
OP_LOG_RECORDS = "log_records"            # payload: None
OP_STATS = "stats"                        # payload: None; reply: (stats, sketch, op_us)
OP_OBSERVE = "observe"                    # payload: None
OP_TABLE_ROWS = "table_rows"              # payload: table name str
OP_DESCRIBE = "describe"                  # payload: None

# -- distributed streaming ops (dstream clusters only) ------------------------
# Streaming replies carry a "dispatches" list of (stream, token, rows)
# cross-worker tasks the op produced; the coordinator pump forwards each to
# the stream's authoritative worker via OP_STREAM_TASK until quiescent.
OP_DEPLOY_WORKFLOW = "deploy_workflow"    # payload: (WorkflowSpec, placement)
OP_INGEST = "ingest"                      # payload: (stream, rows)
OP_STREAM_TASK = "stream_task"            # payload: (stream, token, rows)
OP_TICK = "tick"                          # payload: (ticks, seq)
OP_WF_DRAIN = "wf_drain"                  # payload: None
OP_TAKE_DISPATCHES = "take_dispatches"    # payload: None
OP_DSTREAM_STATE = "dstream_state"        # payload: include the TE ring (bool | None)

# -- lifecycle ---------------------------------------------------------------
OP_PING = "ping"                          # payload: None
OP_SHUTDOWN = "shutdown"                  # payload: None

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_FAULT = "fault"

#: exception classes that may cross a mailbox, resolvable by name
_ERROR_TYPES: dict[str, type[Exception]] = {
    name: obj
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, Exception)
}


def dump_exception(
    exc: BaseException,
    *,
    worker_id: int | None = None,
    txn: str | None = None,
    stream: str | None = None,
    batch_id: int | None = None,
    where: str | None = None,
    side: str = "worker",
) -> tuple[str, str]:
    """Serialize an exception for an ``"error"`` reply.

    Engine exceptions travel as (class name, message).  Anything else is a
    worker-side bug; its traceback is folded into the message so the
    coordinator surfaces it instead of hiding it in a child process.

    ``worker_id`` and ``txn`` (the procedure being invoked, when the op
    carried one) are prefixed onto the message so a coordinator-side
    traceback says *which* shard and transaction blew up — otherwise N
    identical workers are indistinguishable in the error text.  For stream
    TEs the op payload names only the border stream, not the failing
    transaction, so the worker additionally attributes the originating
    ``stream`` and origin ``batch_id`` of the TE whose failure propagated.

    The network front door (``repro.net``) reuses this serialization for
    its typed error frames: ``where`` is a free-form location prefix
    (``"net conn 3, call 'validate_vote'"``) used when the sender is not a
    partition worker, and ``side`` names the failing side in the fallback
    message for non-engine exceptions (``"worker"`` or ``"server"``).
    """
    prefix = ""
    if where is not None:
        prefix = f"[{where}] "
    elif worker_id is not None:
        location = f"worker {worker_id}"
        if txn:
            location += f", txn {txn!r}"
        if stream is not None:
            location += f", stream {stream!r}"
            if batch_id is not None:
                location += f", batch {batch_id}"
        prefix = f"[{location}] "
    if isinstance(exc, ReproError):
        return type(exc).__name__, prefix + str(exc)
    detail = "".join(traceback.format_exception(exc)).strip()
    return "ReproError", f"{prefix}{side}-side {type(exc).__name__}: {detail}"


def load_exception(class_name: str, message: str) -> Exception:
    """Rebuild the coordinator-side exception for an ``"error"`` reply."""
    cls = _ERROR_TYPES.get(class_name, ReproError)
    return cls(message)
