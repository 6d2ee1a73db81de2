"""The partition engine (PE): H-Store's transaction-processing brain.

The :class:`HStoreEngine` receives stored-procedure invocations from clients,
routes each to a partition, executes it serially inside a transaction, and
handles durability (command logging + snapshots) and recovery.  It is the
"base architecture directly inherited from H-Store" that the S-Store engine
(:class:`repro.core.engine.SStoreEngine`) extends with streams, windows,
triggers and workflows.

Extension points used by the streaming subclass:

* :meth:`_make_context` — wraps the transaction in a procedure context
  (S-Store substitutes a stream-aware context with ``emit``).
* :meth:`_after_commit` — fires after a successful commit (S-Store's PE
  triggers hang off this).
* :meth:`_snapshot_extra` / :meth:`_restore_extra` — piggyback streaming
  state on snapshots.
* :meth:`_replay_invocation` — how one command-log record is re-executed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.hstore.durability import DurabilityDirectory
    from repro.hstore.recovery import RecoveryReport
    from repro.obs.config import ObsConfig
    from repro.obs.metrics import Counter, Histogram, MetricsRegistry

from repro.errors import (
    CatalogError,
    ConstraintViolationError,
    PartitionError,
    ProcedureError,
    RecoveryError,
    ReproError,
    TransactionAborted,
    UnknownObjectError,
)
from repro.hstore.catalog import Catalog, IndexEntry, Schema, TableEntry, TableKind
from repro.hstore.clock import LogicalClock
from repro.hstore.cmdlog import CommandLog, LogRecord
from repro.hstore.executor import ResultSet
from repro.hstore.parser import (
    CreateIndexStmt,
    CreateStreamStmt,
    CreateTableStmt,
    CreateViewStmt,
    CreateWindowStmt,
    DropIndexStmt,
    DropTableStmt,
    DropViewStmt,
    TruncateStmt,
    parse,
)
from repro.hstore.partition import Partition, route_value
from repro.hstore.plancache import PlanCache
from repro.hstore.planner import DdlPlan, Planner, SelectPlan
from repro.hstore.procedure import ProcedureContext, ProcedureResult, StoredProcedure
from repro.hstore.snapshot import Snapshot, SnapshotStore
from repro.hstore.stats import EngineStats
from repro.hstore.txn import TransactionContext
from repro.obs.trace import NULL_TRACER

__all__ = ["HStoreEngine", "PreparedInvocation", "ADHOC_RECORD"]

#: pseudo-procedure name for command-logged ad-hoc DML statements
ADHOC_RECORD = "<adhoc>"
#: pending txn latency samples are folded into the histograms on the engine
#: thread once this many accumulate between metric exports
TXN_SAMPLE_BOUND = 4096


@dataclass
class PreparedInvocation:
    """A ran-but-undecided transaction holding its partitions fenced."""

    procedure: StoredProcedure
    params: tuple[Any, ...]
    #: one open context per held partition
    txns: list[TransactionContext]
    result: ProcedureResult


class HStoreEngine:
    """A single-process, multi-partition, main-memory NewSQL engine."""

    def __init__(
        self,
        partitions: int = 1,
        *,
        log_group_size: int = 1,
        snapshot_interval: int | None = None,
        clock: LogicalClock | None = None,
        stats: EngineStats | None = None,
        command_logging: bool = True,
        obs: "ObsConfig | None" = None,
        plan_cache_size: int = 128,
    ) -> None:
        if partitions < 1:
            raise PartitionError("engine requires at least one partition")
        self.stats = stats if stats is not None else EngineStats()
        #: observability (repro.obs): no-op tracer + no registry by default,
        #: so every instrumentation site costs one branch when disabled
        self.obs = obs
        self.tracer = NULL_TRACER
        self.metrics: "MetricsRegistry | None" = None
        if obs is not None:
            if obs.tracing:
                from repro.obs.trace import TraceCollector, Tracer

                self.tracer = Tracer(
                    process="engine",
                    collector=TraceCollector(),
                    sql_spans=obs.sql_spans,
                )
            if obs.metrics:
                from repro.obs.metrics import MetricsRegistry

                self.metrics = MetricsRegistry()
                self.metrics.read(self._read_metrics)
        #: per-procedure instrument caches — the registry's labeled lookup
        #: (sort + string keys) is too slow to repeat on every transaction
        self._txn_hists: dict[str, "Histogram"] = {}
        self._txn_counters: dict[tuple[str, bool], "Counter"] = {}
        #: ``(proc, duration_us, committed)`` per observed transaction: a
        #: list append is all the txn path pays; the samples reach the
        #: histograms when an export reads them or the list hits its bound
        self._txn_samples: list[tuple[str, float, bool]] = []
        self.clock = clock if clock is not None else LogicalClock()
        self.catalog = Catalog()
        self.planner = Planner(self.catalog)
        #: LRU of ad-hoc statement plans; 0 disables caching entirely
        self.plan_cache = PlanCache(plan_cache_size) if plan_cache_size > 0 else None
        self.partitions = [
            Partition(pid, self.catalog, self.stats) for pid in range(partitions)
        ]
        self.procedures: dict[str, StoredProcedure] = {}
        self.command_log = CommandLog(log_group_size, self.stats)
        self.command_log.tracer = self.tracer
        #: False = run without durability (the A3 no-logging baseline);
        #: such an engine cannot crash-and-recover and says so loudly
        self.command_log.enabled = command_logging
        self.snapshots = SnapshotStore()
        #: take a snapshot automatically every N committed txns (None = manual)
        self.snapshot_interval = snapshot_interval
        self._txns_since_snapshot = 0
        self._next_txn_id = 0
        self._replaying = False
        self._crashed = False
        #: deterministic fault injection (repro.faults); None = no faults
        self.fault_injector: "FaultInjector | None" = None
        #: what the most recent recover() did (torn records etc.)
        self.last_recovery_report: "RecoveryReport | None" = None
        #: the durability directory this engine opened (and closes), if any
        self._directory: "DurabilityDirectory | None" = None

    def set_tracer_identity(self, process: str, origin: int) -> None:
        """Re-label this engine's tracer for multi-process deployments.

        A partition worker calls this right after building its engine shard
        so its spans carry the worker's process label and an id ``origin``
        that cannot collide with the coordinator's or a sibling's ids.
        No-op when tracing is disabled.
        """
        if not self.tracer.enabled:
            return
        from repro.obs.trace import Tracer

        self.tracer = Tracer(
            process=process,
            origin=origin,
            collector=self.tracer.collector,
            sql_spans=self.tracer.sql_spans,
        )
        self.command_log.tracer = self.tracer
        if self.command_log.directory is not None:
            self.command_log.directory.tracer = self.tracer

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def execute_ddl(self, sql: str) -> None:
        """Apply a DDL statement (CREATE TABLE / INDEX; S-Store adds more)."""
        statement = parse(sql)
        if isinstance(statement, CreateTableStmt):
            entry = TableEntry(
                name=statement.name,
                schema=Schema(list(statement.columns)),
                kind=TableKind.TABLE,
                primary_key=statement.primary_key,
                partition_column=statement.partition_column,
            )
            self._install_table(entry)
            return
        if isinstance(statement, CreateIndexStmt):
            entry = IndexEntry(
                name=statement.name,
                table_name=statement.table,
                column_names=statement.columns,
                unique=statement.unique,
                ordered=statement.ordered,
            )
            self.catalog.add_index(entry)
            for partition in self.partitions:
                partition.ee.table(entry.table_name).add_index(
                    entry.name,
                    entry.column_names,
                    unique=entry.unique,
                    ordered=entry.ordered,
                )
            return
        if isinstance(statement, DropTableStmt):
            entry = self.catalog.table(statement.name)
            if entry.kind is not TableKind.TABLE:
                raise CatalogError(
                    f"cannot DROP {entry.kind.value} {entry.name!r}; stream "
                    f"and window state is managed by the streaming layer"
                )
            self.catalog.drop_table(entry.name)
            for partition in self.partitions:
                partition.ee.drop_storage(entry.name)
            return
        if isinstance(statement, DropIndexStmt):
            entry = self.catalog.drop_index(statement.name)
            for partition in self.partitions:
                partition.ee.table(entry.table_name).drop_index(entry.name)
            return
        if isinstance(statement, TruncateStmt):
            entry = self.catalog.table(statement.table)
            if entry.kind is not TableKind.TABLE:
                raise CatalogError(
                    f"cannot TRUNCATE {entry.kind.value} {entry.name!r}"
                )
            for partition in self.partitions:
                partition.ee.table(entry.name).truncate()
            return
        if isinstance(
            statement, (CreateStreamStmt, CreateWindowStmt, CreateViewStmt, DropViewStmt)
        ):
            raise CatalogError(
                f"{type(statement).__name__.replace('Stmt', '')} requires the "
                f"S-Store engine (repro.SStoreEngine); plain H-Store has no "
                f"native streams, windows or delta views — that is the "
                f"paper's point"
            )
        raise CatalogError(f"not a DDL statement: {sql!r}")

    def _install_table(self, entry: TableEntry) -> TableEntry:
        """Register a table in the catalog and create storage everywhere.

        Partitioned tables get per-partition slices; replicated tables (no
        partition column) get a full copy on every partition — both cases
        are one storage instance per partition here.
        """
        self.catalog.add_table(entry)
        for partition in self.partitions:
            partition.ee.create_storage(entry)
        return entry

    # ------------------------------------------------------------------
    # Procedure registration
    # ------------------------------------------------------------------

    def register_procedure(
        self, procedure: StoredProcedure | type[StoredProcedure]
    ) -> StoredProcedure:
        """Register and pre-plan a stored procedure (H-Store deployment step)."""
        if isinstance(procedure, type):
            procedure = procedure()
        if procedure.name in self.procedures:
            raise ProcedureError(f"procedure {procedure.name!r} already registered")
        for statement_name, sql in procedure.statements.items():
            try:
                procedure.plans[statement_name] = self._plan_statement(
                    sql, f"{procedure.name}.{statement_name}"
                )
            except ReproError as exc:
                raise ProcedureError(
                    f"procedure {procedure.name!r} statement "
                    f"{statement_name!r} failed to plan: {exc}"
                ) from exc
        self.procedures[procedure.name] = procedure
        return procedure

    def _plan_statement(self, sql: str, label: str):
        """Parse + plan + compile one statement's kernel, observed.

        Every planning site goes through here so ``repro.obs`` sees one
        ``compile`` span and one ``plan_compile_us`` observation per
        statement — the cost the PlanCache amortizes away for ad-hoc SQL
        and registration pays exactly once for stored procedures.
        """
        started_ns = time.perf_counter_ns() if self.metrics is not None else 0
        if self.tracer.enabled:
            with self.tracer.span("compile", label, sql=sql[:120]):
                plan = self.planner.plan(parse(sql))
        else:
            plan = self.planner.plan(parse(sql))
        if self.metrics is not None:
            self.metrics.histogram(
                "plan_compile_us",
                "statement parse+plan+kernel-compile time in microseconds",
            ).observe((time.perf_counter_ns() - started_ns) / 1000.0)
        return plan

    def procedure(self, name: str) -> StoredProcedure:
        try:
            return self.procedures[name]
        except KeyError:
            raise UnknownObjectError(f"no procedure named {name!r}") from None

    # ------------------------------------------------------------------
    # Invocation paths
    # ------------------------------------------------------------------

    def call_procedure(self, name: str, *params: Any) -> ProcedureResult:
        """Client entry point: one client↔PE round trip per call."""
        self._require_alive()
        self.stats.client_pe_roundtrips += 1
        if self.tracer.enabled:
            with self.tracer.span("call", name) as span:
                result = self.invoke(name, params)
                span.set(success=result.success)
                return result
        return self.invoke(name, params)

    def invoke(self, name: str, params: tuple[Any, ...]) -> ProcedureResult:
        """Engine-internal invocation (no client round trip charged).

        This is the path PE triggers use in S-Store — the saving the paper's
        push-based workflows buy over client-driven polling.  A run-everywhere
        procedure is the same transaction over every partition,
        all-or-nothing.
        """
        procedure = self.procedure(name)
        partition_id = (
            None if procedure.run_everywhere else self._route(procedure, params)
        )
        if self.tracer.enabled or self.metrics is not None:
            attrs = (
                {"everywhere": True}
                if partition_id is None
                else {"partition": partition_id}
            )
            result = self._observed(
                name, attrs, self._invoke_now, procedure, params, partition_id
            )
        else:
            result = self._invoke_now(procedure, params, partition_id)
        if result.success:
            # partition=-1 marks a fenced/everywhere transaction in the log
            self._log_commit(
                procedure, params, result, -1 if partition_id is None else partition_id
            )
        return result

    def _route(self, procedure: StoredProcedure, params: tuple[Any, ...]) -> int:
        if procedure.partition_param is None:
            return 0
        if procedure.partition_param >= len(params):
            raise PartitionError(
                f"procedure {procedure.name!r} routes on parameter "
                f"#{procedure.partition_param}, got only {len(params)} params"
            )
        return route_value(params[procedure.partition_param], len(self.partitions))

    def _invoke_now(
        self,
        procedure: StoredProcedure,
        params: tuple[Any, ...],
        partition_id: int | None,
    ) -> ProcedureResult:
        """A direct invoke is a prepare that commits immediately."""
        result, prepared = self._prepare(procedure, params, partition_id)
        if prepared is not None:
            self._commit(prepared)
        return result

    # ------------------------------------------------------------------
    # The transaction funnel: begin -> run -> resolve, written once
    # ------------------------------------------------------------------
    #
    # Every transaction the engine runs — stored procedures (direct, fenced,
    # run-everywhere), ad-hoc DML, stream TEs and the streaming layer's
    # system transactions — begins in `_transact` and ends in `_resolve`.
    # Callers keep only their own pre/post steps.

    def _transact(
        self,
        name: str,
        partition_ids: Any,
        body: Any,
        *args: Any,
        hold: bool = False,
        counted: bool = True,
    ) -> tuple[list[TransactionContext], list[Any], Exception | None]:
        """Begin one transaction and run ``body(txn, *args)`` per partition.

        Allocates the txn id; for each partition acquires it, builds its
        context and runs the body.  The exception policy lives here and only
        here: a business abort (``TransactionAborted``, a constraint
        violation) rolls back and is *returned*; anything else — a
        ``ReproError``, an injected fault, a bug in the body — rolls back
        and propagates unchanged.  Returns ``(txns, data, error)``.  On
        success the transaction is committed, or with ``hold`` left open
        with its partitions fenced for a later :meth:`_resolve`.
        """
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        txns: list[TransactionContext] = []
        data: list[Any] = []
        try:
            for partition_id in partition_ids:
                partition = self.partitions[partition_id]
                partition.acquire()
                txn = TransactionContext(
                    txn_id, partition.ee, name, partition_id=partition_id
                )
                txns.append(txn)
                data.append(body(txn, *args))
        except (TransactionAborted, ConstraintViolationError) as exc:
            self._resolve(txns, False, counted)
            return txns, data, exc
        except BaseException:
            self._resolve(txns, False, counted)
            raise
        if not hold:
            self._resolve(txns, True, counted)
        return txns, data, None

    def _resolve(
        self, txns: list[TransactionContext], commit: bool, counted: bool = True
    ) -> None:
        """Commit or roll back each partition's context and release it."""
        for txn in txns:
            try:
                if commit:
                    txn.commit()
                else:
                    txn.abort()
            finally:
                self.partitions[txn.partition_id].release()
        if not counted:
            return
        if commit:
            self.stats.txns_committed += 1
        else:
            self.stats.txns_aborted += 1

    def _observed(
        self, name: str, attrs: dict[str, Any], run: Any, *args: Any
    ) -> ProcedureResult:
        """Span and latency sample around one whole transaction.

        ``run(*args)`` covers begin to post-commit dispatch (so trigger
        spans nest under the ``txn`` span) and returns the outcome.
        """
        started_ns = time.perf_counter_ns() if self.metrics is not None else 0
        if self.tracer.enabled:
            with self.tracer.span("txn", name, **attrs) as span:
                result = run(*args)
                # direct attrs stores — the span's dict already exists, and
                # set(**kwargs) would build a second dict per transaction
                span.attrs["txn_id"] = result.txn_id
                span.attrs["outcome"] = "committed" if result.success else "aborted"
        else:
            result = run(*args)
        if self.metrics is not None:
            samples = self._txn_samples
            samples.append(
                (name, (time.perf_counter_ns() - started_ns) / 1000.0, result.success)
            )
            if len(samples) >= TXN_SAMPLE_BOUND:
                self._drain_txn_samples()
        return result

    def _read_metrics(self) -> list:
        """Export rows: the pending latency samples first, then every
        ``EngineStats`` counter as ``engine.<name>``."""
        from repro.obs.metrics import counter_rows

        self._drain_txn_samples()
        return counter_rows("engine", self.stats.snapshot(), "EngineStats counter")

    def _drain_txn_samples(self) -> None:
        """Fold the pending txn samples into ``txn_latency_us`` / ``txns_total``."""
        samples = self._txn_samples
        # copy-then-delete: an append racing an off-thread export survives
        entries = samples[:]
        del samples[: len(entries)]
        # a run of samples is usually one procedure over and over: cache the
        # instruments across iterations and batch the counter increments
        hists = self._txn_hists
        last_key: str | None = None
        hist = None
        counts: dict[tuple[str, bool], int] = {}
        for procedure_name, duration_us, committed in entries:
            if procedure_name != last_key:
                last_key = procedure_name
                hist = hists.get(procedure_name)
                if hist is None:
                    hist = self.metrics.histogram(
                        "txn_latency_us",
                        "transaction latency in microseconds",
                        procedure=procedure_name,
                    )
                    hists[procedure_name] = hist
            hist.observe(duration_us)
            key = (procedure_name, committed)
            counts[key] = counts.get(key, 0) + 1
        for (procedure_name, committed), n in counts.items():
            counter = self._txn_counters.get((procedure_name, committed))
            if counter is None:
                counter = self.metrics.counter(
                    "txns_total",
                    "transactions by procedure and outcome",
                    procedure=procedure_name,
                    outcome="committed" if committed else "aborted",
                )
                self._txn_counters[procedure_name, committed] = counter
            counter.inc(n)

    # ------------------------------------------------------------------
    # Stored-procedure transactions: prepare, then commit or abort
    # ------------------------------------------------------------------
    #
    # A multi-partition transaction spanning OS processes must run the
    # procedure on each worker, report the outcome to the coordinator, and
    # *hold the partition fenced* until every sibling has prepared, so the
    # commit/abort decision is atomic across the cluster.  `prepare_invoke`
    # runs the procedure and leaves the transaction open with the partition
    # still acquired; `commit_prepared` / `abort_prepared` resolve it.  The
    # in-process paths are the same steps taken back to back.

    def _prepare(
        self,
        procedure: StoredProcedure,
        params: tuple[Any, ...],
        partition_id: int | None,
    ) -> tuple[ProcedureResult, "PreparedInvocation | None"]:
        """Run ``procedure`` on one partition, or on all (``None``), and hold."""
        everywhere = partition_id is None
        txns, data, error = self._transact(
            procedure.name,
            range(len(self.partitions)) if everywhere else (partition_id,),
            self._run_procedure,
            procedure,
            params,
            hold=True,
        )
        txn_id = txns[0].txn_id
        if error is not None:
            return (
                ProcedureResult(
                    success=False, error=str(error), txn_id=txn_id, partition=partition_id
                ),
                None,
            )
        result = ProcedureResult(
            success=True,
            data=data if everywhere else data[0],
            txn_id=txn_id,
            partition=partition_id,
        )
        return result, PreparedInvocation(procedure, params, txns, result)

    def _run_procedure(
        self,
        txn: TransactionContext,
        procedure: StoredProcedure,
        params: tuple[Any, ...],
    ) -> Any:
        return procedure.run(
            self._make_context(procedure, txn, txn.partition_id), *params
        )

    def _commit(self, prepared: "PreparedInvocation") -> None:
        self._resolve(prepared.txns, True)
        for txn in prepared.txns:
            self._after_commit(txn)

    def prepare_invoke(
        self, name: str, params: tuple[Any, ...]
    ) -> tuple[ProcedureResult, "PreparedInvocation | None"]:
        """Run a procedure but defer the commit/abort decision.

        Returns ``(result, prepared)``.  On success ``prepared`` holds the
        open transaction (and the acquired partition — the fence); the
        caller must resolve it with :meth:`commit_prepared` or
        :meth:`abort_prepared`.  On a procedure abort the transaction is
        already rolled back and ``prepared`` is ``None``.
        """
        self._require_alive()
        procedure = self.procedure(name)
        partition_id = self._route(procedure, params)
        with self.tracer.span("txn", name, phase="prepare") as span:
            result, prepared = self._prepare(procedure, params, partition_id)
            span.set(
                txn_id=result.txn_id,
                outcome="aborted" if prepared is None else "prepared",
            )
        return result, prepared

    def commit_prepared(self, prepared: "PreparedInvocation") -> ProcedureResult:
        """Commit a held invocation: release the fence, fire hooks, log."""
        with self.tracer.span(
            "txn",
            prepared.procedure.name,
            phase="commit",
            txn_id=prepared.result.txn_id,
        ):
            self._commit(prepared)
            self._log_commit(
                prepared.procedure, prepared.params, prepared.result, -1
            )
        return prepared.result

    def abort_prepared(self, prepared: "PreparedInvocation") -> None:
        """Roll back a held invocation and release the fence."""
        self._resolve(prepared.txns, False)

    def shutdown(self) -> None:
        """Release external resources: the command log's append handle.

        Exists so harnesses can dispose any engine uniformly — the
        multi-process facade overrides this to stop its worker processes.
        The engine stays usable; the next flush reopens the log.
        """
        if self._directory is not None:
            self._directory.close_log()

    # ------------------------------------------------------------------
    # Ad-hoc SQL (testing / examples / interactive use)
    # ------------------------------------------------------------------

    def execute_sql(self, sql: str, *params: Any) -> ResultSet | int:
        """Plan and run one ad-hoc statement in an auto-commit transaction.

        Counts as a client request.  SELECTs against a multi-partition engine
        are scatter-gathered (rows concatenated); ad-hoc DML and grouped /
        ordered / limited scatter-gather SELECTs require a single partition.
        """
        self._require_alive()
        self.stats.client_pe_roundtrips += 1
        if self.tracer.enabled:
            with self.tracer.span("sql", "<adhoc>", sql=sql[:120]):
                return self._execute_sql(sql, params)
        return self._execute_sql(sql, params)

    def _execute_sql(self, sql: str, params: tuple[Any, ...]) -> ResultSet | int:
        """The ad-hoc execution body, without the client round-trip charge.

        The multi-process deployment calls this inside a worker: the client
        round trip was already charged once at the coordinator, and charging
        it again per worker would inflate the E4 counters.
        """
        self._require_alive()
        plan = self._plan_adhoc(sql)
        self._check_adhoc_plan(plan)

        if isinstance(plan, SelectPlan):
            if len(self.partitions) == 1:
                self.stats.pe_ee_roundtrips += 1
                return self.partitions[0].ee.execute(plan, params)
            if plan.grouped or plan.order_by or plan.limit is not None:
                raise PartitionError(
                    "ad-hoc aggregated/ordered SELECT needs a single partition"
                )
            rows: list[tuple[Any, ...]] = []
            columns: list[str] = plan.output_names
            for partition in self.partitions:
                self.stats.pe_ee_roundtrips += 1
                result = partition.ee.execute(plan, params)
                assert isinstance(result, ResultSet)
                rows.extend(result.rows)
            return ResultSet(columns=list(columns), rows=rows)

        if len(self.partitions) != 1:
            raise PartitionError("ad-hoc DML requires a single-partition engine")
        txns, data, error = self._transact(
            ADHOC_RECORD, (0,), self._run_adhoc, plan, params
        )
        if error is not None:
            # no result object to carry a failure: the statement raises
            raise error
        # Ad-hoc DML is a write command like any other: it must reach the
        # command log or recovery could not rebuild state written this way.
        if not self._replaying:
            self.command_log.append(
                txn_id=txns[0].txn_id,
                procedure=ADHOC_RECORD,
                params=(sql, tuple(params)),
                partition=0,
                logical_time=self.clock.now,
            )
            self._note_logged_command()
        return data[0]

    def _run_adhoc(
        self, txn: TransactionContext, plan: Any, params: tuple[Any, ...]
    ) -> ResultSet | int:
        self.stats.pe_ee_roundtrips += 1
        return txn.ee.execute(plan, params, txn)

    def _plan_adhoc(self, sql: str):
        """Plan one ad-hoc statement through the engine's PlanCache.

        Each distinct (whitespace-normalized) statement text is parsed and
        planned once per catalog version; repeat executions bind parameters
        against the cached plan.  DDL never reaches this path
        (:meth:`execute_ddl` has its own parse), and any DDL bumps
        ``catalog.version``, which lazily invalidates stale entries.
        """
        cache = self.plan_cache
        if cache is None:
            return self._plan_statement(sql, ADHOC_RECORD)
        version = self.catalog.version
        plan = cache.get(sql, version)
        if plan is not None:
            self.stats.plan_cache_hits += 1
            return plan
        self.stats.plan_cache_misses += 1
        plan = self._plan_statement(sql, ADHOC_RECORD)
        if not isinstance(plan, DdlPlan):
            cache.put(sql, version, plan)
        return plan

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def _log_commit(
        self,
        procedure: StoredProcedure,
        params: tuple[Any, ...],
        result: ProcedureResult,
        partition: int,
    ) -> None:
        if procedure.read_only or self._replaying:
            return
        assert result.txn_id is not None
        self.command_log.append(
            txn_id=result.txn_id,
            procedure=procedure.name,
            params=params,
            partition=partition,
            logical_time=self.clock.now,
        )
        self._note_logged_command()

    def _note_logged_command(self) -> None:
        """Advance the auto-snapshot counter (one durable command recorded)."""
        self._txns_since_snapshot += 1
        if (
            self.snapshot_interval is not None
            and self._txns_since_snapshot >= self.snapshot_interval
        ):
            self.take_snapshot()

    def take_snapshot(self) -> Snapshot:
        """Flush the log and capture a transaction-consistent checkpoint."""
        with self.tracer.span("snapshot", "take") as span:
            self.command_log.flush()
            snapshot = self.snapshots.take(
                through_lsn=self.command_log.durable_lsn,
                logical_time=self.clock.now,
                partition_state={
                    partition.partition_id: partition.ee.dump_state()
                    for partition in self.partitions
                },
                extra=self._snapshot_extra(),
            )
            self.stats.snapshots_taken += 1
            self._txns_since_snapshot = 0
            span.set(
                snapshot_id=snapshot.snapshot_id,
                through_lsn=snapshot.through_lsn,
            )
            return snapshot

    # ------------------------------------------------------------------
    # Deterministic fault injection (repro.faults)
    # ------------------------------------------------------------------

    def install_fault_injector(
        self, injector: "FaultInjector | None"
    ) -> "FaultInjector | None":
        """Thread a fault injector through every durability seam.

        Covers the group-commit flush path (``log.flush``), per-record disk
        appends (``log.append``), snapshot persistence (``snapshot.write``,
        ``snapshot.fsync``) and log replay (``recovery.replay``).  Pass
        ``None`` to remove injection.  Install *before*
        :meth:`enable_durability` / :meth:`restore_from_disk` so the
        directory they create inherits the seam.
        """
        self.fault_injector = injector
        self.command_log.fault_injector = injector
        if self.command_log.directory is not None:
            self.command_log.directory.fault_injector = injector
        return injector

    # ------------------------------------------------------------------
    # File-backed durability (survives process restarts, not just crash())
    # ------------------------------------------------------------------

    def enable_durability(
        self, path: Any, *, fsync_log: bool = False
    ) -> "DurabilityDirectory":
        """Persist the command log and snapshots under ``path``.

        From now on the directory is the only durable store: flushed log
        records are appended to ``<path>/command.log`` and retained nowhere
        else, and every snapshot is a file.  Records already in the
        in-memory log (e.g., application seed DML executed during setup) are
        written out first so the durable history is complete from LSN 0 (an
        in-memory snapshot taken earlier is dropped: the log covers it).

        With ``fsync_log=True`` every append ends in one ``fsync`` — acked
        means on-disk, and the per-flush syscall becomes the fixed cost the
        group-commit batcher (``log_group_size``, the network coalescer)
        amortizes across concurrent transactions.
        """
        if not self.command_log.enabled:
            raise ReproError(
                "cannot enable durability: this engine was built with "
                "command_logging=False, so there is no history to persist"
            )
        directory = self._open_directory(path, fsync_log)
        if directory.load_log_records():
            raise ReproError(
                f"durability directory {directory.path} already holds a log; "
                f"use restore_from_disk() to resume from it"
            )
        self.command_log.flush()
        directory.append_log_records(self.command_log.all_records())
        self.command_log.attach(directory)
        self.snapshots.attach(directory)
        return directory

    def _open_directory(self, path: Any, fsync_log: bool) -> "DurabilityDirectory":
        from repro.hstore.durability import DurabilityDirectory

        self.shutdown()  # a directory attached earlier gives up its handle
        directory = self._directory = DurabilityDirectory(path, fsync_log=fsync_log)
        directory.fault_injector = self.fault_injector
        directory.tracer = self.tracer
        return directory

    def restore_from_disk(self, path: Any) -> int:
        """Rebuild state from a durability directory after a restart.

        The engine must already have the same schema and procedures
        registered (DDL and code are deployment artifacts, not data).  Any
        data the fresh engine wrote during setup (e.g., seed rows inserted
        by an application constructor) is discarded: the disk history *is*
        the database, and recovery replays it from scratch — deterministic
        setup writes are at the head of that history anyway.  Returns the
        number of replayed transactions.

        Hardened against crash debris: a torn trailing log record is
        dropped (and truncated off the file), and a damaged newest snapshot
        falls back to the previous valid one — both surfaced through
        :attr:`last_recovery_report`.
        """
        with self.tracer.span("recovery", "restore_from_disk") as span:
            # attach, then the one recovery path; persisting resumes from here
            directory = self._open_directory(path, fsync_log=False)
            self.command_log.attach(directory)
            self.snapshots.attach(directory)
            replayed = self.recover()
            span.set(
                replayed=replayed, torn=self.last_recovery_report.torn_records
            )
        return replayed

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> int:
        """Simulate a node crash.

        In-memory state is considered lost; un-flushed (group-commit pending)
        log records are lost too, exactly as with a real command log.  The
        engine refuses further work until :meth:`recover` runs.  Returns the
        number of lost log records.
        """
        if not self.command_log.enabled:
            raise RecoveryError(
                "cannot crash-and-recover: this engine was built with "
                "command_logging=False, so a crash would silently lose "
                "every transaction — enable command logging for durability"
            )
        lost = self.command_log.lose_pending()
        self.shutdown()  # a dead process holds no file open
        self._crashed = True
        return lost

    def recover(self) -> int:
        """Rebuild state: load the newest valid snapshot, replay the log suffix.

        Both come from whichever durable store is attached (memory or a
        directory), so this sees what a restarted process would see.  Works
        with or without a snapshot (without one, replay starts from an empty
        database at LSN 0).  Returns the number of replayed transactions and
        fills :attr:`last_recovery_report`.

        The snapshot is chosen first, so the log is read from its
        ``log_offset`` on: a restore parses the records it replays and not
        the checkpointed prefix before them.
        """
        from repro.hstore.recovery import RecoveryReport

        with self.tracer.span("recovery", "replay") as span:
            found, skipped = self.snapshots.newest()
            # no checkpoint = an empty one at LSN 0 (load_state({}) empties tables)
            snapshot = found or Snapshot(-1, 0, self.clock.now, {})
            records, torn = self.command_log.reload(
                snapshot.through_lsn, snapshot.log_offset
            )
            span.set(log_offset=snapshot.log_offset, records_scanned=len(records))
            replayed = self._replay_from(snapshot, records)
            span.set(replayed=replayed)
        self.last_recovery_report = RecoveryReport(
            lost_log_records=0,
            replayed_transactions=replayed,
            had_snapshot=found is not None,
            torn_records=torn,
            snapshots_skipped=skipped,
        )
        return replayed

    def durable_op_count(self, procedures: frozenset[str]) -> int:
        """Durable command-log records naming one of ``procedures``: how many
        client ops survived a crash, for exactly-once resumption."""
        return sum(
            1
            for record in self.command_log.all_records()
            if record.procedure in procedures
        )

    def _replay_from(self, snapshot: Snapshot, records: list[LogRecord]) -> int:
        """Load ``snapshot``, then replay the ``records`` past it."""
        for partition in self.partitions:
            partition.ee.load_state(
                snapshot.partition_state.get(partition.partition_id, {})
            )
        self.clock.advance_to(snapshot.logical_time)
        self._restore_extra(snapshot.extra)

        self._crashed = False
        self._replaying = True
        replayed = 0
        try:
            for record in records:
                if record.lsn < snapshot.through_lsn:
                    continue
                if self.fault_injector is not None:
                    self.fault_injector.fire("recovery.replay", record=record)
                self.clock.advance_to(record.logical_time)
                self._replay_invocation(record)
                replayed += 1
        finally:
            self._replaying = False
        return replayed

    def _replay_invocation(self, record: LogRecord) -> None:
        if record.procedure == ADHOC_RECORD:
            sql, params = record.params
            self.execute_sql(sql, *params)
            return
        result = self.invoke(record.procedure, record.params)
        if not result.success:
            # A command that committed before the crash must commit again —
            # determinism is the engine contract.  Surfacing loudly beats
            # silently diverging.
            raise ReproError(
                f"replay of {record.procedure!r} (lsn={record.lsn}) aborted: "
                f"{result.error}"
            )

    def _require_alive(self) -> None:
        if self._crashed:
            raise ReproError("engine has crashed; call recover() first")

    # ------------------------------------------------------------------
    # Extension points for the streaming layer
    # ------------------------------------------------------------------

    def _make_context(
        self,
        procedure: StoredProcedure,
        txn: TransactionContext,
        partition_id: int,
    ) -> ProcedureContext:
        return ProcedureContext(self, procedure, txn, partition_id)

    def _after_commit(self, txn: TransactionContext) -> None:
        """Post-commit hook; plain H-Store does nothing here."""

    def _snapshot_extra(self) -> dict[str, Any]:
        return {}

    def _restore_extra(self, extra: dict[str, Any]) -> None:
        pass

    def _check_adhoc_plan(self, plan: Any) -> None:
        """Veto hook for ad-hoc statements (S-Store enforces scoping here)."""

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def table_rows(self, table_name: str, partition_id: int = 0) -> list[tuple[Any, ...]]:
        """All rows of a table on one partition (test/debug helper)."""
        return self.partitions[partition_id].ee.table(table_name).rows()

    def observe(self) -> dict[str, Any]:
        """Committed state as the referees compare it
        (:mod:`repro.core.recovery`): each partition's sorted table rows as
        ``p<id>:<table>``, and ``clock``."""
        observation: dict[str, Any] = {
            f"p{partition.partition_id}:{name}": sorted(table.rows())
            for partition in self.partitions
            for name, table in partition.ee.tables().items()
        }
        observation["clock"] = self.clock.now
        return observation

    def describe(self) -> str:
        """A text summary of the catalog: tables, streams, windows, indexes,
        procedures — the deployment at a glance."""
        lines: list[str] = []
        for entry in sorted(self.catalog.tables(), key=lambda e: (e.kind.value, e.name)):
            columns = ", ".join(
                f"{column.name} {column.sql_type}"
                + ("" if column.nullable else " NOT NULL")
                for column in entry.schema
            )
            suffix = ""
            if entry.primary_key:
                suffix += f" PRIMARY KEY ({', '.join(entry.primary_key)})"
            if entry.partition_column:
                suffix += f" PARTITION ON {entry.partition_column}"
            rows = self.partitions[0].ee.table(entry.name).row_count()
            lines.append(
                f"{entry.kind.value} {entry.name} ({columns}){suffix} "
                f"[{rows} rows]"
            )
            for index in self.catalog.indexes_on(entry.name):
                flavor = "TREE" if index.ordered else "HASH"
                unique = "UNIQUE " if index.unique else ""
                lines.append(
                    f"  {unique}INDEX {index.name} "
                    f"({', '.join(index.column_names)}) USING {flavor}"
                )
        if self.procedures:
            lines.append("")
            for name in sorted(self.procedures):
                procedure = self.procedures[name]
                lines.append(
                    f"PROCEDURE {name} ({len(procedure.plans)} statements)"
                )
        return "\n".join(lines)

    def explain(self, sql: str) -> str:
        """Plan a statement the way execution would (same lowering, same
        lane) and render the physical plan as text."""
        from repro.hstore.explain import explain_plan

        return explain_plan(self._plan_statement(sql, "<explain>"))

    def explain_procedure(self, name: str) -> str:
        """Render every pre-planned statement of a registered procedure."""
        from repro.hstore.explain import explain_plan

        procedure = self.procedure(name)
        sections = []
        for statement_name in sorted(procedure.plans):
            plan = procedure.plans[statement_name]
            sections.append(f"-- {statement_name}")
            sections.append(explain_plan(plan, indent="   "))
        return "\n".join(sections)
