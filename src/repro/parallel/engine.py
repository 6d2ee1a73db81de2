"""The coordinator facade: one engine API over N partition processes.

:class:`ParallelHStoreEngine` looks like an
:class:`~repro.hstore.engine.HStoreEngine` from the outside — same
``execute_ddl`` / ``register_procedure`` / ``call_procedure`` /
``execute_sql`` / ``crash`` / ``recover`` surface — but routes every
transaction to a :class:`~repro.parallel.worker.PartitionWorker` process.

Execution semantics mirror the in-process engine exactly:

* **single-partition transactions** route by ``stable_hash`` of the
  partitioning parameter and execute on one worker while the others keep
  running — the true parallelism the in-process engine can only simulate;
* **multi-partition (run-everywhere) transactions** use a fence protocol:
  every worker *prepares* (runs the procedure, holds its partition acquired
  with the transaction open), the coordinator collects all outcomes, then
  broadcasts one commit/abort *decide*.  All-or-nothing across the cluster.
  Known weakness (documented, tested around): each worker logs its own
  shard of the commit, so cross-worker durability of an everywhere-txn is
  not atomic under a coordinator crash between decides;
* **ad-hoc DML** is broadcast to every worker (replicated deployment-style
  writes — how apps seed reference tables); **ad-hoc SELECT** is
  scatter-gathered, refusing grouped/ordered/limited queries on multi-worker
  clusters rather than returning per-shard-wrong answers;
* **durability** is worker-local (``<root>/worker-<id>/``); ``crash()`` /
  ``recover()`` / ``restore_from_disk()`` fan out and aggregate, keeping
  the :class:`~repro.faults.checker.RecoveryEquivalenceChecker` contract.

Every coordinator↔worker exchange increments ``ipc_roundtrips`` in the
coordinator's local stats, which the net simulator charges at
``LatencyModel.ipc_us`` — the cost model's honest accounting of what the
process hop buys and costs.
"""

from __future__ import annotations

import pathlib
import pickle
import time
import weakref
from typing import Any

from repro.errors import (
    InjectedCrash,
    InjectedIOError,
    PartitionError,
    ReproError,
)
from repro.hstore.engine import HStoreEngine
from repro.hstore.executor import ResultSet
from repro.hstore.procedure import ProcedureResult, StoredProcedure
from repro.hstore.recovery import RecoveryReport
from repro.hstore.stats import EngineStats
from repro.obs.config import ObsConfig
from repro.obs.trace import NULL_TRACER
from repro.parallel import messages as msg
from repro.parallel.router import Router
from repro.parallel.worker import PartitionWorker, WorkerConfig

__all__ = ["ParallelHStoreEngine"]


class _ClusterCommandLog:
    """The facade's ``engine.command_log`` view over per-worker logs.

    Supports exactly what callers of the in-process attribute use: ``flush``,
    ``all_records``, ``enabled`` and ``len`` — each fanned out and
    aggregated.  Records come back ordered by worker id, then per-worker log
    order; cross-worker order is not meaningful (shards are independent
    histories) and nothing in the repo depends on it.
    """

    def __init__(self, engine: "ParallelHStoreEngine") -> None:
        self._engine = engine

    @property
    def enabled(self) -> bool:
        return self._engine._command_logging

    def flush(self) -> int:
        return sum(self._engine._broadcast(msg.OP_FLUSH_LOG))

    def all_records(self) -> list:
        records: list = []
        for chunk in self._engine._broadcast(msg.OP_LOG_RECORDS):
            records.extend(chunk)
        return records

    def __len__(self) -> int:
        return len(self.all_records())


class ParallelHStoreEngine:
    """N OS processes, one serial partition each, one engine facade."""

    #: which engine each worker process hosts (subclasses override)
    _ENGINE_KIND = "hstore"

    def __init__(
        self,
        workers: int = 2,
        *,
        log_group_size: int = 1,
        snapshot_interval: int | None = None,
        command_logging: bool = True,
        obs: ObsConfig | None = None,
    ) -> None:
        if workers < 1:
            raise PartitionError("cluster requires at least one worker")
        self.router = Router(workers)
        self._command_logging = command_logging
        #: observability: the coordinator traces client calls and IPC hops;
        #: workers trace their own txn/sql work and ship spans back with
        #: every reply, so the coordinator's collector holds the whole story
        self.obs = obs
        self.tracer = NULL_TRACER
        self.metrics = None
        if obs is not None:
            if obs.tracing:
                from repro.obs.trace import TraceCollector, Tracer

                self.tracer = Tracer(
                    process="coordinator",
                    collector=TraceCollector(),
                    sql_spans=obs.sql_spans,
                )
            if obs.metrics:
                from repro.obs.metrics import MetricsRegistry

                self.metrics = MetricsRegistry()
                self.metrics.read(self._read_metrics)
        self._call_hists: dict[str, Any] = {}
        #: local procedure instances, for routing metadata only — execution
        #: state lives in the workers
        self.procedures: dict[str, StoredProcedure] = {}
        #: coordinator-side counters (client round trips, IPC hops); the
        #: ``stats`` property folds the workers' counters in
        self.stats_local = EngineStats()
        self.command_log = _ClusterCommandLog(self)
        self.last_recovery_report: RecoveryReport | None = None
        self._crashed = False
        self._dead = False  # an injected crash killed the simulated node
        self._injector = None  # coordinator copy; plan is ground truth
        self._durability_root: pathlib.Path | None = None
        self.workers = [
            PartitionWorker(
                WorkerConfig(
                    worker_id=wid,
                    worker_count=workers,
                    log_group_size=log_group_size,
                    snapshot_interval=snapshot_interval,
                    command_logging=command_logging,
                    obs=obs,
                    engine_kind=self._ENGINE_KIND,
                )
            )
            for wid in range(workers)
        ]
        self._finalizer = weakref.finalize(
            self, _stop_workers, list(self.workers)
        )
        self._config = (workers, log_group_size, snapshot_interval, command_logging)
        # fail fast if a worker never came up
        self._broadcast(msg.OP_PING)

    # ------------------------------------------------------------------
    # Mailbox plumbing
    # ------------------------------------------------------------------

    def _rpc(self, worker: PartitionWorker, op: str, payload: Any = None) -> Any:
        """One request/reply exchange; the unit ``ipc_roundtrips`` counts."""
        if self.tracer.enabled:
            with self.tracer.span("ipc", op, worker=worker.worker_id):
                seq = worker.send(op, payload, self.tracer.current_context())
                return self._collect(worker, seq, op)
        seq = worker.send(op, payload)
        return self._collect(worker, seq, op)

    def _collect(self, worker: PartitionWorker, seq: int, op: str) -> Any:
        self.stats_local.ipc_roundtrips += 1
        status, payload, fired, spans = worker.recv(seq)
        if spans and self.tracer.enabled:
            self.tracer.collector.absorb(spans)
        if fired:
            self._note_fired(fired, reinstall=op != msg.OP_INSTALL_FAULTS)
        if status == msg.STATUS_OK:
            return payload
        if status == msg.STATUS_FAULT:
            raise self._fault_exception(payload)
        raise msg.load_exception(*payload)

    def _broadcast(self, op: str, payload: Any = None) -> list[Any]:
        """Send to every worker sequentially, first fault/error wins.

        Used for fault-sensitive operations (durability, DDL, ad-hoc SQL)
        where stopping at the first failure mirrors the in-process engine's
        serial seams.
        """
        return [self._rpc(worker, op, payload) for worker in self.workers]

    def _scatter(self, requests: list[tuple[int, str, Any]]) -> list[Any]:
        """Post all requests first, then collect replies in worker order.

        This is the parallel path: while the coordinator waits on worker 0,
        workers 1..N-1 are already executing.  Raises the first failure
        *after* draining every posted reply (no mailbox desync).
        """
        if not requests:
            return []
        if self.tracer.enabled:
            # one span covers the whole fan-out (spans nest LIFO, so a span
            # per in-flight request would corrupt the tracer's stack); every
            # worker's spans parent under it via the shipped context
            with self.tracer.span(
                "ipc", f"scatter:{requests[0][1]}", fanout=len(requests)
            ):
                return self._scatter_body(requests)
        return self._scatter_body(requests)

    def _scatter_body(self, requests: list[tuple[int, str, Any]]) -> list[Any]:
        trace_ctx = (
            self.tracer.current_context() if self.tracer.enabled else None
        )
        posted: list[tuple[PartitionWorker, int, str]] = []
        for wid, op, payload in requests:
            worker = self.workers[wid]
            posted.append((worker, worker.send(op, payload, trace_ctx), op))
        results: list[Any] = []
        failure: Exception | None = None
        for worker, seq, op in posted:
            try:
                results.append(self._collect(worker, seq, op))
            except Exception as exc:  # noqa: BLE001 - re-raised after drain
                results.append(None)
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure
        return results

    def _note_fired(self, fired: tuple, *, reinstall: bool = True) -> None:
        """Sync worker-side fault firings into the coordinator's plan copy."""
        if self._injector is None:
            return
        plan = self._injector.plan
        changed = False
        for index, label in fired:
            spec = plan.specs[index]
            if not spec.fired:
                spec.fired = True
                self._injector.fired_log.append(label)
                changed = True
        if changed and reinstall and not self._dead:
            # one-shot specs must not re-fire on a sibling worker
            for worker in self.workers:
                if worker.alive:
                    self._rpc(worker, msg.OP_INSTALL_FAULTS, plan)

    def _fault_exception(self, payload: dict[str, Any]) -> Exception:
        if payload["kind"] == "io":
            return InjectedIOError(payload["errno"], payload["message"])
        # a crash-kind fault killed the simulated node: like the in-process
        # engine, the object is garbage — build a fresh one and restore
        self._dead = True
        return InjectedCrash(payload["message"])

    def _require_alive(self) -> None:
        if self._dead:
            raise ReproError(
                "an injected fault killed this cluster; build a fresh "
                "ParallelHStoreEngine and restore_from_disk()"
            )
        if self._crashed:
            raise ReproError("engine has crashed; call recover() first")

    # ------------------------------------------------------------------
    # Deployment (DDL, procedures, durability, faults)
    # ------------------------------------------------------------------

    def execute_ddl(self, sql: str) -> None:
        """Schema statements replicate to every worker (shared catalog)."""
        self._require_alive()
        self._broadcast(msg.OP_DDL, sql)

    def register_procedure(
        self, procedure_class: type[StoredProcedure]
    ) -> StoredProcedure:
        """Ship the procedure *class* to every worker.

        Classes pickle by reference, so the class must be importable in the
        worker process: defined at module level, not inside a function or
        test body.  The check here turns the obscure child-side
        ``AttributeError`` that would otherwise result into an actionable
        coordinator-side error.
        """
        self._require_alive()
        try:
            pickle.dumps(procedure_class)
        except Exception as exc:
            raise ReproError(
                f"procedure {procedure_class.__name__} cannot cross a process "
                f"boundary: {exc}. Define it at module level so workers can "
                f"import it by reference."
            ) from exc
        self._broadcast(msg.OP_REGISTER, procedure_class)
        instance = procedure_class()
        self.procedures[instance.name] = instance
        return instance

    def enable_durability(self, path: Any) -> pathlib.Path:
        """Give each worker its own log+snapshot directory under ``path``."""
        self._require_alive()
        if not self._command_logging:
            raise ReproError(
                "cannot enable durability: this engine was built with "
                "command_logging=False, so there is no history to persist"
            )
        root = pathlib.Path(path)
        root.mkdir(parents=True, exist_ok=True)
        for worker in self.workers:
            self._rpc(
                worker,
                msg.OP_ENABLE_DURABILITY,
                str(root / f"worker-{worker.worker_id}"),
            )
        self._durability_root = root
        return root

    def install_fault_injector(self, injector: Any) -> Any:
        """Arm every worker with the injector's plan.

        The coordinator keeps ``injector`` as the authoritative copy: specs
        that fire inside a worker are reported back in the reply and marked
        on this plan (and appended to ``injector.fired_log``), then the
        updated plan is re-broadcast so one-shot specs cannot re-fire on a
        sibling worker.  Occurrence counting is per worker.
        """
        self._injector = injector
        plan = injector.plan if injector is not None else None
        self._broadcast(msg.OP_INSTALL_FAULTS, plan)
        return injector

    # ------------------------------------------------------------------
    # Invocation paths
    # ------------------------------------------------------------------

    def call_procedure(self, name: str, *params: Any) -> ProcedureResult:
        """Client entry point: one client↔PE round trip per call."""
        self._require_alive()
        self.stats_local.client_pe_roundtrips += 1
        if self.tracer.enabled or self.metrics is not None:
            return self._call_observed(name, params)
        return self.invoke(name, params)

    def _call_observed(
        self, name: str, params: tuple[Any, ...]
    ) -> ProcedureResult:
        started_ns = time.perf_counter_ns() if self.metrics is not None else 0
        if self.tracer.enabled:
            with self.tracer.span("call", name) as span:
                result = self.invoke(name, params)
                span.set(success=result.success)
        else:
            result = self.invoke(name, params)
        if self.metrics is not None:
            histogram = self._call_hists.get(name)
            if histogram is None:
                histogram = self.metrics.histogram(
                    "call_latency_us",
                    "client call round-trip latency in microseconds",
                    procedure=name,
                )
                self._call_hists[name] = histogram
            histogram.observe((time.perf_counter_ns() - started_ns) / 1000.0)
            self.metrics.counter(
                "calls_total",
                "client calls by procedure and outcome",
                procedure=name,
                outcome="committed" if result.success else "aborted",
            ).inc()
        return result

    def invoke(self, name: str, params: tuple[Any, ...]) -> ProcedureResult:
        procedure = self._procedure(name)
        if procedure.run_everywhere:
            return self._invoke_everywhere(procedure, params)
        wid = self.router.route(procedure, params)
        return self._rpc(self.workers[wid], msg.OP_INVOKE, (name, tuple(params)))

    def _procedure(self, name: str) -> StoredProcedure:
        try:
            return self.procedures[name]
        except KeyError:
            from repro.errors import UnknownObjectError

            raise UnknownObjectError(f"no procedure named {name!r}") from None

    def _invoke_everywhere(
        self, procedure: StoredProcedure, params: tuple[Any, ...]
    ) -> ProcedureResult:
        """The fence protocol: prepare on all workers, then one decision.

        Phase 1 posts ``prepare`` to every worker in parallel; each runs the
        procedure and *holds its partition acquired* with the transaction
        open (the fence).  Phase 2 broadcasts commit if every prepare
        succeeded, abort otherwise.  A worker that failed to prepare has
        nothing held, so it receives no decide.
        """
        payload = (procedure.name, tuple(params))
        outcomes = self._scatter(
            [(wid, msg.OP_PREPARE, payload) for wid in range(len(self.workers))]
        )
        commit = all(result is not None and result.success for result in outcomes)
        decided: list[ProcedureResult | None] = self._scatter(
            [
                (wid, msg.OP_DECIDE, commit)
                for wid, result in enumerate(outcomes)
                if result is not None and result.success
            ]
        )
        # workers count their shard's commit/abort; the merged stats report
        # everywhere-txns per shard touched, so no coordinator-side count
        if commit:
            return ProcedureResult(
                success=True,
                data=[result.data for result in decided],
                txn_id=decided[0].txn_id if decided else -1,
            )
        failed = next(
            result for result in outcomes if result is not None and not result.success
        )
        return ProcedureResult(success=False, error=failed.error, txn_id=failed.txn_id)

    # ------------------------------------------------------------------
    # Ad-hoc SQL
    # ------------------------------------------------------------------

    def execute_sql(self, sql: str, *params: Any) -> ResultSet | int:
        """Broadcast DML, scatter-gather SELECT.

        DML replicates to every worker — matching how applications use
        ad-hoc SQL here: deployment-time seeding of reference tables that
        every partition needs (the in-process engine's partition 0 is this
        cluster's everywhere).  The reported rowcount is worker 0's.

        SELECT merges per-worker row sets.  Grouped, ordered or limited
        queries are refused on multi-worker clusters: each worker would
        apply the clause to its shard only, silently returning wrong
        answers — the same reason the in-process planner fences such
        queries onto one partition.
        """
        self._require_alive()
        self.stats_local.client_pe_roundtrips += 1
        replies = self._broadcast(msg.OP_SQL, (sql, tuple(params)))
        first = replies[0]
        if first["select"] is None:
            return first["result"]  # DML rowcount (identical on every worker)
        flags = first["select"]
        if len(self.workers) > 1 and any(flags.values()):
            clause = ", ".join(sorted(name for name, on in flags.items() if on))
            raise PartitionError(
                f"ad-hoc SELECT with {clause} clause(s) cannot scatter-gather "
                f"across {len(self.workers)} workers: each shard would apply "
                f"the clause locally and the merged answer would be wrong. "
                f"Run it via a stored procedure or a single-worker cluster."
            )
        merged = ResultSet(columns=list(first["result"].columns), rows=[])
        for reply in replies:
            merged.rows.extend(reply["result"].rows)
        return merged

    # ------------------------------------------------------------------
    # Durability / recovery
    # ------------------------------------------------------------------

    def take_snapshot(self) -> list[int]:
        """Checkpoint every worker; returns per-worker snapshot ids."""
        self._require_alive()
        return self._broadcast(msg.OP_SNAPSHOT)

    def crash(self) -> int:
        """Crash all workers (in-memory loss); returns total lost records."""
        if not self._command_logging:
            from repro.errors import RecoveryError

            raise RecoveryError(
                "cannot crash-and-recover: this engine was built with "
                "command_logging=False, so a crash would silently lose "
                "every transaction — enable command logging for durability"
            )
        self._require_alive()
        lost = sum(self._broadcast(msg.OP_CRASH))
        self._crashed = True
        return lost

    def recover(self) -> int:
        """Recover every worker; returns total replayed transactions."""
        if self._dead:
            raise ReproError(
                "an injected fault killed this cluster; build a fresh "
                "ParallelHStoreEngine and restore_from_disk()"
            )
        replayed = sum(self._broadcast(msg.OP_RECOVER))
        self._crashed = False
        return replayed

    def restore_from_disk(self, path: Any) -> int:
        """Restore each worker from its ``<path>/worker-<id>`` directory."""
        self._require_alive()
        root = pathlib.Path(path)
        totals = {"replayed": 0, "torn": 0, "snapshots_skipped": 0}
        had_snapshot = False
        for worker in self.workers:
            report = self._rpc(
                worker, msg.OP_RESTORE, str(root / f"worker-{worker.worker_id}")
            )
            totals["replayed"] += report["replayed"]
            totals["torn"] += report["torn"]
            totals["snapshots_skipped"] += report["snapshots_skipped"]
            had_snapshot = had_snapshot or report["had_snapshot"]
        self._durability_root = root
        self.last_recovery_report = RecoveryReport(
            lost_log_records=0,
            replayed_transactions=totals["replayed"],
            had_snapshot=had_snapshot,
            torn_records=totals["torn"],
            snapshots_skipped=totals["snapshots_skipped"],
        )
        return totals["replayed"]

    # command_log.all_records() fans out, so the in-process count applies
    durable_op_count = HStoreEngine.durable_op_count

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def _pull(self) -> list[tuple[EngineStats, Any, Any]]:
        """One ``OP_STATS`` per worker: its ``EngineStats``, hot-key sketch
        and ``partition.op_us`` histogram (the last two ``None`` with
        metrics off)."""
        return self._broadcast(msg.OP_STATS)

    def _read_metrics(self) -> list:
        """Export rows from one pull: ``partition.<counter>`` and
        ``partition.op_us`` per worker, and the merged ``engine.<counter>``."""
        from repro.obs.metrics import counter_rows, reading

        pulled = self._pull()
        rows = []
        for wid, (stats, _sketch, op_us) in enumerate(pulled):
            rows += counter_rows(
                "partition",
                stats.snapshot(),
                "per-partition EngineStats counter",
                partition=str(wid),
            )
            rows.append(reading(op_us, partition=str(wid)))
        merged = self.stats_local.copy().merge(*(stats for stats, _, _ in pulled))
        return rows + counter_rows("engine", merged.snapshot(), "EngineStats counter")

    def partition_skew(self) -> dict[str, Any]:
        """The coordinator's per-partition load + hot-key view.

        Built from one pull of every worker's counters and sketch: committed
        txn totals per partition, the resulting max/mean skew ratio, and
        each partition's Space-Saving top-K with its error bound.  This is
        the signal the ROADMAP's elastic-repartitioning item triggers on.
        """
        partitions: dict[int, dict[str, Any]] = {}
        committed: list[int] = []
        for wid, (stats, sketch, _op_us) in enumerate(self._pull()):
            committed.append(stats.txns_committed)
            partitions[wid] = {
                "txns_committed": stats.txns_committed,
                "ops": stats.snapshot(),
                "hot_keys": sketch.top(8) if sketch is not None else [],
                "hot_key_error_bound": (
                    sketch.error_bound if sketch is not None else 0.0
                ),
            }
        total = sum(committed)
        mean = total / len(committed) if committed else 0.0
        return {
            "partitions": partitions,
            "total_txns": total,
            "max_txns": max(committed, default=0),
            "skew_ratio": (max(committed, default=0) / mean) if mean else 0.0,
        }

    @property
    def stats(self) -> EngineStats:
        """Coordinator counters merged with every worker's counters."""
        return self.stats_local.copy().merge(*self.worker_stats())

    def worker_stats(self) -> list[EngineStats]:
        return [stats for stats, _sketch, _op_us in self._pull()]

    def observe(self) -> dict[int, dict[str, Any]]:
        """Every worker's own ``observe()``, keyed by worker id."""
        return dict(enumerate(self._broadcast(msg.OP_OBSERVE)))

    def table_rows(self, table_name: str, partition_id: int | None = None) -> list:
        """All rows of a table, cluster-wide or for one worker's shard."""
        self._require_alive()
        if partition_id is not None:
            return self._rpc(self.workers[partition_id], msg.OP_TABLE_ROWS, table_name)
        rows: list = []
        for chunk in self._broadcast(msg.OP_TABLE_ROWS, table_name):
            rows.extend(chunk)
        return rows

    def describe(self) -> str:
        header = (
            f"ParallelHStoreEngine: {len(self.workers)} worker processes, "
            f"command_logging={self._command_logging}\n"
        )
        body = self._rpc(self.workers[0], msg.OP_DESCRIBE)
        return header + body

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker process.  Idempotent; also runs at GC exit."""
        self._finalizer()

    def __enter__(self) -> "ParallelHStoreEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        alive = sum(1 for worker in self.workers if worker.alive)
        return (
            f"ParallelHStoreEngine(workers={len(self.workers)}, "
            f"alive={alive}, procedures={len(self.procedures)})"
        )


def _stop_workers(workers: list[PartitionWorker]) -> None:
    for worker in workers:
        try:
            worker.stop()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
