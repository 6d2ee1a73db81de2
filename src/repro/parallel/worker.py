"""One partition's OS process: a serial ``HStoreEngine`` behind a mailbox.

Each :class:`PartitionWorker` owns a child process running
:func:`_worker_main`: a single-partition :class:`HStoreEngine` (its slice of
the shared-nothing database) plus a request loop over an inbox/outbox pipe
pair.  The loop is strictly serial — one message handled at a time — which
*is* the paper's per-partition serial execution: no locks, no latches, the
mailbox is the transaction queue.

Durability is worker-local: each worker keeps its own command log and
snapshots (under ``<root>/worker-<id>`` when file durability is enabled), so
a crash/recover cycle replays every shard independently and deterministically.

Fault injection: the coordinator ships the (picklable) ``FaultPlan`` into
each worker, which arms a local ``FaultInjector`` on its engine.  Occurrence
counting is therefore *per worker* — ``log.flush#3`` fires on whichever
worker reaches its third flush — and any spec that fires is reported back in
the reply so the coordinator can mark its authoritative plan copy (one-shot
specs must not re-fire on a sibling).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import InjectedCrash, InjectedFault, ReproError
from repro.faults.injector import FaultInjector
from repro.hstore.engine import HStoreEngine, PreparedInvocation
from repro.hstore.parser import parse
from repro.hstore.planner import SelectPlan
from repro.obs.config import ObsConfig
from repro.obs.metrics import Histogram
from repro.obs.telemetry import SpaceSaving
from repro.parallel import messages as msg

__all__ = ["WorkerConfig", "PartitionWorker"]

#: transaction ops whose tracing follows the coordinator's head-based
#: sampling decision: no trace context on one of these means the trace was
#: deliberately not rooted, so the worker suspends its tracer for the op
#: rather than recording an orphaned worker-local trace.  Every other op
#: (workflow drains, ticks, stats) keeps its local spans — those are
#: engine-internal activity, not per-request work.
_SAMPLED_OPS = frozenset({msg.OP_INVOKE})


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to build its engine shard."""

    worker_id: int
    worker_count: int
    log_group_size: int = 1
    snapshot_interval: int | None = None
    command_logging: bool = True
    #: observability config shared with the coordinator (None = off); the
    #: worker builds its own tracer from it and ships span batches back
    obs: ObsConfig | None = None
    #: which engine the worker hosts: "hstore" (plain OLTP shard) or
    #: "dstream" (a StreamShardEngine running its share of the workflows)
    engine_kind: str = "hstore"


class PartitionWorker:
    """Transport handle for one partition process: spawn, send, recv, stop."""

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self.worker_id = config.worker_id
        # the mailbox pair: inbox carries requests down, outbox replies up
        inbox_recv, inbox_send = multiprocessing.Pipe(duplex=False)
        outbox_recv, outbox_send = multiprocessing.Pipe(duplex=False)
        self._inbox = inbox_send
        self._outbox = outbox_recv
        self._seq = 0
        self.process = multiprocessing.Process(
            target=_worker_main,
            args=(config, inbox_recv, outbox_send),
            name=f"repro-partition-{config.worker_id}",
            daemon=True,
        )
        self.process.start()
        # the child inherited its ends across fork/spawn; drop ours
        inbox_recv.close()
        outbox_send.close()

    # ------------------------------------------------------------------

    def send(self, op: str, payload: Any = None, trace_ctx: Any = None) -> int:
        """Post one request to the worker's inbox; returns its seq."""
        seq = self._seq
        self._seq += 1
        try:
            self._inbox.send((seq, op, payload, trace_ctx))
        except (BrokenPipeError, OSError) as exc:
            raise ReproError(
                f"partition worker {self.worker_id} is gone "
                f"(cannot send {op!r}): {exc}"
            ) from exc
        return seq

    def recv(self, expect_seq: int) -> tuple[str, Any, tuple, tuple]:
        """Take one reply; returns (status, payload, fired, spans)."""
        try:
            seq, status, payload, fired, spans = self._outbox.recv()
        except (EOFError, OSError) as exc:
            raise ReproError(
                f"partition worker {self.worker_id} died mid-request "
                f"(mailbox closed): {exc}"
            ) from exc
        if seq != expect_seq:
            raise ReproError(
                f"partition worker {self.worker_id} protocol desync: "
                f"expected reply #{expect_seq}, got #{seq}"
            )
        return status, payload, fired, spans

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, timeout: float = 2.0) -> None:
        """Best-effort orderly shutdown; escalates to terminate."""
        if self.process.is_alive():
            try:
                self._inbox.send((self._seq, msg.OP_SHUTDOWN, None, None))
                self._seq += 1
            except (BrokenPipeError, OSError):
                pass
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout)
        self._inbox.close()
        self._outbox.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "stopped"
        return f"PartitionWorker({self.worker_id}, {state})"


# ---------------------------------------------------------------------------
# child-process side
# ---------------------------------------------------------------------------


def _worker_main(config: WorkerConfig, inbox: Any, outbox: Any) -> None:
    """The partition process: build the engine shard, serve the mailbox."""
    if config.engine_kind == "dstream":
        from repro.dstream.shard import StreamShardEngine

        engine = StreamShardEngine(
            worker_id=config.worker_id,
            worker_count=config.worker_count,
            log_group_size=config.log_group_size,
            snapshot_interval=config.snapshot_interval,
            command_logging=config.command_logging,
            obs=config.obs,
        )
    else:
        engine = HStoreEngine(
            partitions=1,
            log_group_size=config.log_group_size,
            snapshot_interval=config.snapshot_interval,
            command_logging=config.command_logging,
            obs=config.obs,
        )
    # origin worker_id+1 keeps span ids disjoint from the coordinator's
    # (origin 0) and every sibling's across the whole cluster
    engine.set_tracer_identity(
        f"worker-{config.worker_id}", config.worker_id + 1
    )
    state = _WorkerState(config, engine)
    while True:
        try:
            seq, op, payload, trace_ctx = inbox.recv()
        except (EOFError, OSError):
            break  # coordinator is gone; nothing left to serve
        plan = state.fault_plan()
        fired_before = [spec.fired for spec in plan.specs] if plan else []
        tracer = engine.tracer
        suspended = False
        if tracer.enabled:
            if trace_ctx is not None:
                tracer.activate(trace_ctx)
            elif op in _SAMPLED_OPS:
                # the coordinator sampled this transaction out (see
                # NetServer.trace_sample): honor the head-based decision
                # instead of recording an orphaned worker-local trace
                tracer.suspend()
                suspended = True
        op_start = time.perf_counter()
        if state.hot_keys is not None:
            state.offer_hot_keys(op, payload)
        try:
            result = state.handle(op, payload)
            status, reply = msg.STATUS_OK, result
        except InjectedFault as exc:
            state.take_failed_te()  # discard: faults are attributed by label
            status, reply = msg.STATUS_FAULT, _fault_payload(exc)
        except Exception as exc:  # noqa: BLE001 - serialized, not swallowed
            failed_proc, failed_stream, failed_batch = state.take_failed_te()
            status, reply = msg.STATUS_ERROR, msg.dump_exception(
                exc,
                worker_id=config.worker_id,
                txn=failed_proc or _txn_label(op, payload),
                stream=failed_stream,
                batch_id=failed_batch,
            )
        finally:
            if suspended:
                tracer.resume()
            elif tracer.enabled:
                tracer.deactivate()
        if state.op_us is not None:
            state.op_us.observe((time.perf_counter() - op_start) * 1e6)
        fired = state.newly_fired(fired_before)
        # finished spans ride home with the reply; the worker-side collector
        # is only a staging buffer, the coordinator's is the source of truth
        spans = tuple(tracer.collector.drain()) if tracer.enabled else ()
        try:
            outbox.send((seq, status, reply, fired, spans))
        except (BrokenPipeError, OSError):
            break
        if op == msg.OP_SHUTDOWN:
            break


def _txn_label(op: str, payload: Any) -> str | None:
    """The procedure name an op was executing, for error attribution."""
    if op in (msg.OP_INVOKE, msg.OP_PREPARE) and isinstance(
        payload, tuple
    ) and payload:
        return payload[0]
    if op == msg.OP_SQL:
        return "<adhoc>"
    if op == msg.OP_INGEST:
        return "<ingest>"
    if op == msg.OP_STREAM_TASK:
        return "<task>"
    return None


def _fault_payload(exc: InjectedFault) -> dict[str, Any]:
    kind = "crash" if isinstance(exc, InjectedCrash) else "io"
    # OSError.__str__ prepends "[Errno N]"; ship the bare strerror so the
    # coordinator-side rebuild does not double the prefix
    message = getattr(exc, "strerror", None) or str(exc)
    return {
        "kind": kind,
        "message": message,
        "errno": getattr(exc, "errno", None),
    }


class _WorkerState:
    """The child-side dispatcher around one engine shard."""

    def __init__(self, config: WorkerConfig, engine: HStoreEngine) -> None:
        self.config = config
        self.engine = engine
        #: the fenced transaction of an in-flight multi-partition commit
        self.held: PreparedInvocation | None = None
        self.injector: FaultInjector | None = None
        #: this partition's load, kept with metrics on and pulled by the
        #: coordinator with OP_STATS: the routing keys it was offered and
        #: how long each op took to handle
        self.hot_keys: SpaceSaving | None = None
        self.op_us: Histogram | None = None
        if config.obs is not None and config.obs.metrics:
            self.hot_keys = SpaceSaving()
            self.op_us = Histogram(
                "partition.op_us", "worker-side op handling latency (µs)"
            )

    def fault_plan(self):
        return self.injector.plan if self.injector is not None else None

    def take_failed_te(self) -> tuple[str | None, str | None, int | None]:
        """Consume the engine's failed-TE attribution, if any.

        The streaming engine records which TE's failure is propagating
        (procedure, originating stream, origin batch id); the worker loop
        folds that into the serialized error so the coordinator's traceback
        names the batch that blew up, not just the op that carried it.
        """
        failed = getattr(self.engine, "_failed_te", None)
        if failed is None:
            return (None, None, None)
        self.engine._failed_te = None
        return failed

    def newly_fired(self, fired_before: list[bool]) -> tuple:
        plan = self.fault_plan()
        if plan is None:
            return ()
        return tuple(
            (index, spec.label)
            for index, spec in enumerate(plan.specs)
            if spec.fired and (index >= len(fired_before) or not fired_before[index])
        )

    # ------------------------------------------------------------------

    def handle(self, op: str, payload: Any) -> Any:
        handler = self._HANDLERS.get(op)
        if handler is None:
            raise ReproError(f"worker {self.config.worker_id}: unknown op {op!r}")
        return handler(self, payload)

    def offer_hot_keys(self, op: str, payload: Any) -> None:
        """Feed this op's routing keys into the partition's hot-key sketch.

        The keys offered are exactly what the router hashed to land the op
        here — the signal elastic repartitioning would split on.  Streams
        have no per-row routing key, so an ingest offers the stream name
        weighted by its row count.
        """
        if op in (msg.OP_INVOKE, msg.OP_PREPARE):
            name, params = payload
            procedure = self.engine.procedures.get(name)
            index = getattr(procedure, "partition_param", None)
            if index is not None and index < len(params):
                self.hot_keys.offer(params[index])
        elif op == msg.OP_INGEST:
            stream_name, rows = payload
            if rows:
                self.hot_keys.offer(f"stream:{stream_name}", len(rows))

    # -- deployment ----------------------------------------------------

    def _op_ddl(self, sql: str) -> None:
        self.engine.execute_ddl(sql)

    def _op_register(self, procedure_class: type) -> None:
        self.engine.register_procedure(procedure_class)

    def _op_enable_durability(self, path: str) -> None:
        self.engine.enable_durability(path)

    def _op_install_faults(self, plan: Any) -> None:
        if plan is None:
            self.injector = None
            self.engine.install_fault_injector(None)
            return
        if self.injector is None:
            self.injector = FaultInjector(plan)
            self.engine.install_fault_injector(self.injector)
        else:
            # keep the occurrence counts: a plan refresh (the coordinator
            # syncing fired flags) is not a process restart
            self.injector.plan = plan

    # -- transactions --------------------------------------------------

    def _op_sql(self, payload: tuple[str, tuple[Any, ...]]) -> dict[str, Any]:
        sql, params = payload
        plan = self.engine.planner.plan(parse(sql))
        select_flags = None
        if isinstance(plan, SelectPlan):
            select_flags = {
                "grouped": bool(plan.grouped),
                "ordered": bool(plan.order_by),
                "limited": plan.limit is not None,
            }
        authority = getattr(self.engine, "adhoc_authority", None)
        authoritative = authority(plan) if authority is not None else True
        if not authoritative and select_flags is None:
            # Non-owner DML on a workflow-owned table: skip it entirely —
            # no execution and no <adhoc> log record, so replay re-derives
            # the same skip.  (SELECTs still run; the coordinator discards
            # the non-authoritative result.)
            return {"result": 0, "select": None, "authoritative": False}
        result = self.engine._execute_sql(sql, tuple(params))
        return {
            "result": result,
            "select": select_flags,
            "authoritative": authoritative,
        }

    def _op_invoke(self, payload: tuple[str, tuple[Any, ...]]) -> Any:
        name, params = payload
        self.engine._require_alive()
        return self.engine.invoke(name, tuple(params))

    def _op_prepare(self, payload: tuple[str, tuple[Any, ...]]) -> Any:
        if self.held is not None:
            raise ReproError(
                f"worker {self.config.worker_id}: prepare while a fenced "
                f"transaction is already held (fence protocol violated)"
            )
        name, params = payload
        result, prepared = self.engine.prepare_invoke(name, tuple(params))
        self.held = prepared
        return result

    def _op_decide(self, commit: bool) -> Any:
        if self.held is None:
            raise ReproError(
                f"worker {self.config.worker_id}: decide with no fenced "
                f"transaction held (fence protocol violated)"
            )
        prepared, self.held = self.held, None
        if commit:
            return self.engine.commit_prepared(prepared)
        self.engine.abort_prepared(prepared)
        return None

    # -- durability / recovery -----------------------------------------

    def _op_crash(self, _payload: None) -> int:
        return self.engine.crash()

    def _op_recover(self, _payload: None) -> int:
        return self.engine.recover()

    def _op_snapshot(self, _payload: None) -> int:
        return self.engine.take_snapshot().snapshot_id

    def _op_flush_log(self, _payload: None) -> int:
        return self.engine.command_log.flush()

    def _op_restore(self, path: str) -> dict[str, int | bool]:
        replayed = self.engine.restore_from_disk(path)
        report = self.engine.last_recovery_report
        return {
            "replayed": replayed,
            "torn": report.torn_records if report else 0,
            "snapshots_skipped": report.snapshots_skipped if report else 0,
            "had_snapshot": bool(report.had_snapshot) if report else False,
        }

    # -- observation ---------------------------------------------------

    def _op_log_records(self, _payload: None) -> list:
        return self.engine.command_log.all_records()

    def _op_stats(self, _payload: None) -> tuple:
        return self.engine.stats, self.hot_keys, self.op_us

    def _op_observe(self, _payload: None) -> dict[str, Any]:
        return self.engine.observe()

    def _op_table_rows(self, table_name: str) -> list:
        return self.engine.table_rows(table_name)

    def _op_describe(self, _payload: None) -> str:
        return self.engine.describe()

    # -- distributed streaming -----------------------------------------

    def _shard(self):
        from repro.dstream.shard import StreamShardEngine

        if not isinstance(self.engine, StreamShardEngine):
            raise ReproError(
                f"worker {self.config.worker_id}: streaming op on a "
                f"non-streaming worker (engine_kind="
                f"{self.config.engine_kind!r}); build a DStreamEngine"
            )
        return self.engine

    def _op_deploy_workflow(self, payload: tuple) -> dict[str, Any]:
        spec, node_placement = payload
        return self._shard().deploy_placed_workflow(spec, node_placement)

    def _op_ingest(self, payload: tuple) -> dict[str, Any]:
        stream_name, rows = payload
        engine = self._shard()
        accepted = engine.ingest(stream_name, [tuple(row) for row in rows])
        return {"accepted": accepted, "dispatches": engine.take_outbound()}

    def _op_stream_task(self, payload: tuple) -> dict[str, Any]:
        stream_name, token, rows = payload
        engine = self._shard()
        applied = engine.apply_stream_task(stream_name, token, rows)
        return {"applied": applied, "dispatches": engine.take_outbound()}

    def _op_tick(self, payload: tuple) -> dict[str, Any]:
        ticks, seq = payload
        engine = self._shard()
        now = engine.apply_tick(ticks, seq)
        return {"now": now, "dispatches": engine.take_outbound()}

    def _op_wf_drain(self, _payload: None) -> dict[str, Any]:
        engine = self._shard()
        executed = engine.run_until_quiescent()
        return {"executed": executed, "dispatches": engine.take_outbound()}

    def _op_take_dispatches(self, _payload: None) -> list:
        return self._shard().take_outbound()

    def _op_dstream_state(self, history: bool | None) -> dict[str, Any]:
        return self._shard().dstream_state(history=bool(history))

    # -- lifecycle -----------------------------------------------------

    def _op_ping(self, _payload: None) -> int:
        return self.config.worker_id

    def _op_shutdown(self, _payload: None) -> None:
        return None

    _HANDLERS = {
        msg.OP_DDL: _op_ddl,
        msg.OP_REGISTER: _op_register,
        msg.OP_ENABLE_DURABILITY: _op_enable_durability,
        msg.OP_INSTALL_FAULTS: _op_install_faults,
        msg.OP_SQL: _op_sql,
        msg.OP_INVOKE: _op_invoke,
        msg.OP_PREPARE: _op_prepare,
        msg.OP_DECIDE: _op_decide,
        msg.OP_CRASH: _op_crash,
        msg.OP_RECOVER: _op_recover,
        msg.OP_SNAPSHOT: _op_snapshot,
        msg.OP_FLUSH_LOG: _op_flush_log,
        msg.OP_RESTORE: _op_restore,
        msg.OP_LOG_RECORDS: _op_log_records,
        msg.OP_STATS: _op_stats,
        msg.OP_OBSERVE: _op_observe,
        msg.OP_TABLE_ROWS: _op_table_rows,
        msg.OP_DESCRIBE: _op_describe,
        msg.OP_DEPLOY_WORKFLOW: _op_deploy_workflow,
        msg.OP_INGEST: _op_ingest,
        msg.OP_STREAM_TASK: _op_stream_task,
        msg.OP_TICK: _op_tick,
        msg.OP_WF_DRAIN: _op_wf_drain,
        msg.OP_TAKE_DISPATCHES: _op_take_dispatches,
        msg.OP_DSTREAM_STATE: _op_dstream_state,
        msg.OP_PING: _op_ping,
        msg.OP_SHUTDOWN: _op_shutdown,
    }
