"""The S-Store engine: streaming OLTP on top of H-Store.

:class:`SStoreEngine` extends :class:`repro.hstore.engine.HStoreEngine` with
the four constructs the paper adds — streams, windows, triggers, workflows —
plus the stream-oriented transaction model (batch-defined TEs, ordering
guarantees, TE scoping) and upstream-backup fault tolerance.

Client-facing flow::

    engine = SStoreEngine()
    engine.execute_ddl("CREATE STREAM votes_in (...)")
    engine.execute_ddl("CREATE WINDOW trending ON validated ROWS 100 SLIDE 1 OWNED BY update_leaderboard")
    engine.register_procedure(ValidateVote)       # border SP
    engine.register_procedure(UpdateLeaderboard)  # interior SP

    wf = WorkflowSpec("leaderboard")
    wf.add_node("validate_vote", input_stream="votes_in", batch_size=1,
                output_streams=("validated",))
    wf.add_node("update_leaderboard", input_stream="validated")
    engine.deploy_workflow(wf)

    engine.ingest("votes_in", [(phone, contestant_id), ...])  # push!

``ingest`` is the only client call a pure streaming workload needs: one
client↔PE round trip delivers a whole batch of tuples, and PE triggers drive
every downstream transaction engine-side.  The H-Store baseline needs one
client call *per procedure per tuple* — that difference is the paper's
throughput result (experiments E3/E4).
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.config import ObsConfig

from repro.core.batch import Batch, BatchFactory
from repro.core.gc import StreamGarbageCollector
from repro.core.latency import LatencyTracker
from repro.core.scheduler import StreamScheduler, StreamTask
from repro.core.scope import WindowScopes
from repro.core.stream import StreamInfo, StreamRegistry
from repro.core.transaction import HISTORY_RING, TERecord
from repro.core.triggers import EETrigger
from repro.core.window import (
    WindowKind,
    WindowSpec,
    WindowState,
    timestamp_offset_of,
)
from repro.core.workflow import WorkflowNode, WorkflowSpec, plan_table_access
from repro.errors import (
    CatalogError,
    StreamingError,
    UnknownObjectError,
    WorkflowError,
)
from repro.hstore.catalog import Schema, TableEntry, TableKind
from repro.hstore.clock import LogicalClock
from repro.hstore.cmdlog import LogRecord
from repro.hstore.engine import HStoreEngine
from repro.hstore.executor import ResultSet
from repro.hstore.parser import (
    CreateStreamStmt,
    CreateViewStmt,
    CreateWindowStmt,
    DropViewStmt,
    SelectStmt,
    parse,
)
from repro.hstore.planner import Plan, SelectPlan, SeqScan
from repro.ivm import DeltaView, ViewRead, derive_view_shape, match_plan
from repro.hstore.procedure import (
    ProcedureContext,
    ProcedureResult,
    StoredProcedure,
)
from repro.hstore.stats import EngineStats
from repro.hstore.txn import TransactionContext

__all__ = ["SStoreEngine", "StreamContext", "StreamProcedure"]

#: pseudo-procedure names of the command log's streaming records
_INGEST_RECORD = "<ingest>"
_TICK_RECORD = "<tick>"


def _select_stages(plan: Plan) -> list[SelectPlan]:
    """The scan+aggregate stages a delta view could serve: a SELECT plan
    itself and, when it is lowered group-before-join, its outer side."""
    if not isinstance(plan, SelectPlan):
        return []
    group_first = plan.compiled.group_first
    return [plan] if group_first is None else [plan, group_first.outer]


class StreamProcedure(StoredProcedure):
    """Base class for workflow stored procedures.

    A stream procedure's ``run`` receives no client parameters — its input
    is the batch, available as ``ctx.batch`` — and it reports results by
    emitting to output streams and/or writing tables.
    """

    def run(self, ctx: "StreamContext", *params: Any) -> Any:  # type: ignore[override]
        raise NotImplementedError


class StreamContext(ProcedureContext):
    """Procedure context with streaming extensions.

    Adds the input ``batch`` and :meth:`emit`, and enforces the S-Store
    access rules on every statement: window scoping, and no direct DML on
    stream/window state (streams are written via ``emit``; windows only by
    the engine's native maintenance).
    """

    def __init__(
        self,
        engine: "SStoreEngine",
        procedure: StoredProcedure,
        txn: TransactionContext,
        partition_id: int,
        batch: Batch | None = None,
        emits: frozenset[str] = frozenset(),
    ) -> None:
        super().__init__(engine, procedure, txn, partition_id)
        self._sstore = engine
        self._batch = batch
        #: output streams the deployment already authorised this TE to emit to
        self._emits = emits
        # no DDL or re-scoping runs inside a transaction, so what decides a
        # statement's access check is fixed for the life of this context
        self._plans = procedure.plans
        self._access_token = engine.access_token(procedure.name)

    @property
    def batch(self) -> Batch:
        if self._batch is None:
            raise StreamingError(
                f"procedure {self.procedure_name!r} was not invoked with an "
                f"input batch (it is not running as a workflow TE)"
            )
        return self._batch

    @property
    def has_batch(self) -> bool:  # noqa: D401 - see base class
        return self._batch is not None

    # -- statement execution with S-Store access rules ------------------------

    def execute(self, statement_name: str, *params: Any) -> ResultSet | int:
        plan = self._plans.get(statement_name)
        if plan is None:
            return super().execute(statement_name, *params)  # raises
        if plan.access_pass != self._access_token:
            self._sstore.check_plan_access(plan, self._procedure.name)
        engine = self._engine
        if engine.tracer.sql_spans:
            return self._run_plan(statement_name, plan, params)
        engine.stats.pe_ee_roundtrips += 1
        txn = self._txn
        return txn.ee.execute(plan, params, txn)

    # -- streaming -------------------------------------------------------------

    def emit(self, stream_name: str, rows: list[tuple[Any, ...]]) -> int:
        """Append tuples to an output stream, inside this transaction.

        The tuples become part of this TE's output batch: when the TE
        commits, PE triggers hand exactly these tuples to the downstream
        stored procedure(s).  Costs one PE↔EE round trip for the insert;
        any windows over the stream are maintained in-EE for free.
        """
        if not rows:
            return 0
        if self._partition_id != 0:
            # Stream state lives on partition 0 (the paper demonstrates the
            # single-sited case); an emit from another partition would write
            # stream tuples the scheduler never sees.
            raise StreamingError(
                f"emit into {stream_name!r} from partition "
                f"{self._partition_id}; streaming state is single-sited on "
                f"partition 0 — route emitting procedures there"
            )
        if stream_name not in self._emits:
            self._sstore.authorize_emit(self._procedure, stream_name)
        self._engine.stats.pe_ee_roundtrips += 1
        txn = self._txn
        rowids, stored = txn.ee.store_rows(txn, stream_name, rows)
        emissions = txn.notes.setdefault("emissions", {})
        record = emissions.setdefault(
            stream_name.lower(), {"rows": [], "high_rowid": -1}
        )
        record["rows"].extend(stored)
        record["high_rowid"] = max(record["high_rowid"], rowids[-1])
        self._engine.stats.bump("stream_tuples_emitted", len(rowids))
        return len(rowids)

    def insert_rows(
        self, table_name: str, rows: list[tuple[Any, ...]] | list[list[Any]]
    ) -> list[int]:
        """Bulk insert, with S-Store write protection for stream state."""
        entry = self._sstore.catalog.table(table_name)
        if entry.kind is TableKind.STREAM:
            raise StreamingError(
                f"direct insert into stream {table_name!r}; use ctx.emit(...)"
            )
        if entry.kind is TableKind.WINDOW:
            raise StreamingError(
                f"direct insert into window {table_name!r}; windows are "
                f"maintained natively by the EE"
            )
        return super().insert_rows(table_name, rows)


class _BoundNode:
    """One deployed workflow node with what each of its TEs needs — the
    procedure object, the input stream's cursor registry, the streams it may
    emit to — resolved once at ``deploy_workflow``."""

    __slots__ = ("procedure", "name", "node", "workflow", "info", "emits")

    def __init__(
        self,
        procedure: StoredProcedure,
        node: WorkflowNode,
        workflow: str,
        info: StreamInfo,
    ) -> None:
        self.procedure = procedure
        self.name = procedure.name
        self.node = node
        self.workflow = workflow
        self.info = info
        self.emits = frozenset(node.output_streams)


class SStoreEngine(HStoreEngine):
    """H-Store plus native stream processing — the paper's system."""

    def __init__(
        self,
        partitions: int = 1,
        *,
        log_group_size: int = 1,
        snapshot_interval: int | None = None,
        clock: LogicalClock | None = None,
        stats: EngineStats | None = None,
        eager: bool = True,
        command_logging: bool = True,
        obs: "ObsConfig | None" = None,
        plan_cache_size: int = 128,
    ) -> None:
        super().__init__(
            partitions,
            log_group_size=log_group_size,
            snapshot_interval=snapshot_interval,
            clock=clock,
            stats=stats,
            command_logging=command_logging,
            obs=obs,
            plan_cache_size=plan_cache_size,
        )
        self.streams = StreamRegistry()
        self.windows: dict[str, WindowState] = {}
        self.scopes = WindowScopes()
        #: delta views by name (repro.ivm), and by backing window table for
        #: plan lowering — empty dicts keep the no-view path zero-cost
        self.delta_views: dict[str, DeltaView] = {}
        self._views_of_table: dict[str, list[DeltaView]] = {}
        self.batch_factory = BatchFactory()
        self.scheduler = StreamScheduler()
        self.workflows: dict[str, WorkflowSpec] = {}
        self.gc = StreamGarbageCollector(
            self.streams, self.partitions[0].ee, self.stats
        )
        #: the most recent committed TEs, for the schedule validator (E9);
        #: ``_commit_seq`` is the true count
        self.schedule_history: deque[TERecord] = deque(maxlen=HISTORY_RING)
        self._commit_seq = 0
        #: input stream → (batches committed, rolling crc32 over their rows):
        #: ``observe()`` reports it as ``commits:<stream>``, so every referee
        #: compares commit order across deployments, processes and restarts
        self.stream_commits: dict[str, tuple[int, int]] = {}
        #: (procedure, stream, origin batch id) of the TE whose failure is
        #: currently propagating — lets the cluster worker loop attribute a
        #: serialized error to the batch that caused it
        self._failed_te: tuple[str, str, int] | None = None
        #: procedure name → its bound node, for deployed workflow members
        self._bound: dict[str, _BoundNode] = {}
        #: stream → the nodes that consume it (None = on another cluster
        #: worker); rebuilt by every deployment, see _bind_consumers
        self._stream_consumers: dict[str, tuple[_BoundNode, ...] | None] = {}
        #: border stream → consuming BSP node
        self._border_consumer: dict[str, _BoundNode] = {}
        #: border stream → tuples awaiting batch formation
        self._ingest_buffers: dict[str, list[tuple[Any, ...]]] = {}
        self._ee_triggers: dict[str, list[EETrigger]] = {}
        #: run TEs immediately on ingest (False = manual run_until_quiescent)
        self.eager = eager
        self._in_drain = False
        #: batch_id → high rowid of the emitted tuples backing the batch
        #: (consumer cursor advances to it when the consuming TE finishes)
        self._batch_high_rowids: dict[int, int] = {}
        #: wall-clock pipeline latency per origin batch (observational)
        self.latency = LatencyTracker()

    # ------------------------------------------------------------------
    # DDL: streams and windows
    # ------------------------------------------------------------------

    def execute_ddl(self, sql: str) -> None:
        statement = parse(sql)
        if isinstance(statement, CreateStreamStmt):
            entry = TableEntry(
                name=statement.name,
                schema=Schema(list(statement.columns)),
                kind=TableKind.STREAM,
            )
            self._install_table(entry)
            self.streams.add(entry.name)
            self._ingest_buffers.setdefault(entry.name, [])
            return
        if isinstance(statement, CreateWindowStmt):
            self.create_window(
                statement.name,
                statement.stream,
                kind=statement.kind,
                size=statement.size,
                slide=statement.slide,
                owner=statement.owner,
            )
            return
        if isinstance(statement, CreateViewStmt):
            self.create_delta_view(statement.name, statement.select, sql=sql)
            return
        if isinstance(statement, DropViewStmt):
            self.drop_delta_view(statement.name)
            return
        super().execute_ddl(sql)

    def create_window(
        self,
        name: str,
        source: str,
        *,
        kind: str = "ROWS",
        size: int,
        slide: int | None = None,
        owner: str | None = None,
    ) -> WindowState:
        """Define a window over a stream (or over another window).

        The window's backing table shares the source's schema and is
        maintained natively by the EE: tuple arrival on the source inserts /
        expires window rows inside the same transaction.
        """
        source_entry = self.catalog.table(source)
        if source_entry.kind is TableKind.TABLE:
            raise CatalogError(
                f"windows are defined over streams, not regular tables "
                f"({source!r} is a TABLE)"
            )
        window_kind = WindowKind.TUPLE if kind.upper() == "ROWS" else WindowKind.TIME
        spec = WindowSpec(
            name=name.lower(),
            stream=source_entry.name,
            kind=window_kind,
            size=size,
            slide=slide if slide is not None else size,
        )
        entry = TableEntry(
            name=spec.name,
            schema=source_entry.schema,
            kind=TableKind.WINDOW,
        )
        self._install_table(entry)

        ts_offset = timestamp_offset_of(
            [(col.name, col.sql_type) for col in source_entry.schema]
        )
        state = WindowState(
            spec,
            self.partitions[0].ee,
            self.stats,
            timestamp_offset=ts_offset,
        )
        self.windows[spec.name] = state

        def _maintain(txn: TransactionContext, table_name: str, rowids: list[int]) -> None:
            if not self._hooks_active(spec.stream):
                return
            table = self.partitions[0].ee.table(table_name)
            rows = [table.get(rowid) for rowid in rowids]
            # window maintenance is per-EE-event granularity, like per-
            # statement sql spans — both live behind the microscope flag
            if self.tracer.sql_spans:
                with self.tracer.span("window", spec.name, tuples=len(rows)):
                    state.on_stream_insert(txn, rows, self.clock.now)
            else:
                state.on_stream_insert(txn, rows, self.clock.now)

        self.partitions[0].ee.add_insert_hook(spec.stream, _maintain)
        if owner is not None:
            self.scopes.assign(spec.name, owner)
        return state

    def assign_window_owner(self, window_name: str, procedure_name: str) -> None:
        """Scope a window to its owning stored procedure (paper's TE scope)."""
        if window_name.lower() not in self.windows:
            raise UnknownObjectError(f"no window named {window_name!r}")
        self.scopes.assign(window_name, procedure_name)

    # ------------------------------------------------------------------
    # Delta views (repro.ivm): incrementally maintained window aggregates
    # ------------------------------------------------------------------

    def create_delta_view(
        self, name: str, select: "SelectStmt | str", *, sql: str = ""
    ) -> DeltaView:
        """Register an incrementally maintained view over a window.

        The definition must be a plain grouped aggregate over one window
        (``SELECT cols..., aggs... FROM window GROUP BY cols...``).  From
        registration on, the window folds its admit/expire deltas into the
        view inside the maintaining transaction, and eligible compiled
        SELECTs are lowered to O(groups) view reads.  Registration bumps the
        catalog version, so cached ad-hoc plans re-plan and pick the view
        up lazily — the same DDL invalidation discipline compiled plans use.
        """
        name = name.lower()
        if name in self.delta_views:
            raise CatalogError(f"view {name!r} already exists")
        if isinstance(select, str):
            statement = parse(select)
            if not isinstance(statement, SelectStmt):
                raise CatalogError("a view is defined by a SELECT statement")
            select = statement
        plan = self.planner.plan(select)
        table_name, group_offsets, specs = derive_view_shape(plan)
        entry = self.catalog.table(table_name)
        if entry.kind is not TableKind.WINDOW:
            raise CatalogError(
                f"delta views are maintained over windows; {table_name!r} "
                f"is a {entry.kind.value}"
            )
        window = self.windows[table_name]
        view = DeltaView(
            name, table_name, group_offsets, specs, self.stats, sql=sql
        )
        if self.metrics is not None:
            view.bind_metrics(self.metrics)
        # seed from whatever the window already holds, then ride the deltas
        view.rebuild(self.partitions[0].ee.table(table_name))
        window.views.append(view)
        self.delta_views[name] = view
        self._views_of_table.setdefault(table_name, []).append(view)
        # invalidate cached ad-hoc plans and re-lower pre-planned procedure
        # statements so existing aggregate scans pick the view up
        self.catalog.bump_version()
        for procedure in self.procedures.values():
            for proc_plan in procedure.plans.values():
                self._attach_view_read(proc_plan)
        return view

    def drop_delta_view(self, name: str) -> None:
        """Unregister a delta view and detach every plan lowered onto it."""
        name = name.lower()
        view = self.delta_views.pop(name, None)
        if view is None:
            raise UnknownObjectError(f"no view named {name!r}")
        self.windows[view.table_name].views.remove(view)
        table_views = self._views_of_table.get(view.table_name, [])
        if view in table_views:
            table_views.remove(view)
        if not table_views:
            self._views_of_table.pop(view.table_name, None)
        self.catalog.bump_version()
        for procedure in self.procedures.values():
            for proc_plan in procedure.plans.values():
                for plan in _select_stages(proc_plan):
                    if plan.view_read is not None and plan.view_read.view is view:
                        plan.view_read = None

    def _attach_view_read(self, plan: Plan) -> None:
        """Lower an eligible aggregate SELECT onto a delta view.

        Eligibility: a SeqScan over a viewed window, no joins or WHERE,
        grouped, group keys and aggregates matching what the view maintains.
        """
        if not self._views_of_table:
            return
        for stage in _select_stages(plan):
            if stage.view_read is not None:
                continue
            if stage.joins or stage.where is not None or not stage.grouped:
                continue
            if not isinstance(stage.access, SeqScan):
                continue
            for view in self._views_of_table.get(stage.access.table, ()):
                agg_map = match_plan(view, stage)
                if agg_map is not None:
                    stage.view_read = ViewRead(view, agg_map)
                    break

    def _plan_statement(self, sql: str, label: str):
        plan = super()._plan_statement(sql, label)
        self._attach_view_read(plan)
        return plan

    # ------------------------------------------------------------------
    # EE triggers (SQL-level)
    # ------------------------------------------------------------------

    def create_ee_trigger(
        self,
        name: str,
        on_stream: str,
        sql: str,
        param_columns: list[str] | tuple[str, ...] = (),
    ) -> EETrigger:
        """Attach a SQL statement that fires in-EE per tuple inserted into
        ``on_stream``, with ``param_columns`` of the new tuple bound to the
        statement's ``?`` parameters."""
        source_entry = self.catalog.table(on_stream)
        if source_entry.kind is TableKind.TABLE:
            raise CatalogError(
                "EE triggers attach to streams/windows, not regular tables"
            )
        plan = self.planner.plan(parse(sql))
        offsets = tuple(
            source_entry.schema.offset_of(column) for column in param_columns
        )
        trigger = EETrigger(
            name=name.lower(),
            on_table=source_entry.name,
            plan=plan,
            param_offsets=offsets,
            sql=sql,
        )
        self._ee_triggers.setdefault(source_entry.name, []).append(trigger)

        def _fire(txn: TransactionContext, table_name: str, rowids: list[int]) -> None:
            if not self._hooks_active(source_entry.name):
                return
            table = self.partitions[0].ee.table(table_name)
            rows = [table.get(rowid) for rowid in rowids]
            # EE triggers fire inside the EE like individual statements, so
            # their spans ride the same microscope flag as sql spans
            if self.tracer.sql_spans:
                with self.tracer.span(
                    "trigger", f"ee:{trigger.name}", tuples=len(rows)
                ):
                    trigger.fire(self.partitions[0].ee, self.stats, txn, rows)
            else:
                trigger.fire(self.partitions[0].ee, self.stats, txn, rows)

        self.partitions[0].ee.add_insert_hook(source_entry.name, _fire)
        return trigger

    # ------------------------------------------------------------------
    # Workflow deployment
    # ------------------------------------------------------------------

    def deploy_workflow(self, spec: WorkflowSpec) -> WorkflowSpec:
        if spec.name in self.workflows:
            raise WorkflowError(f"workflow {spec.name!r} already deployed")
        spec.finalize(self.catalog, self.procedures)

        for node in spec.nodes.values():
            if not self.streams.has(node.input_stream):
                raise WorkflowError(
                    f"workflow {spec.name!r}: input stream "
                    f"{node.input_stream!r} does not exist"
                )
            for stream in node.output_streams:
                if not self.streams.has(stream):
                    raise WorkflowError(
                        f"workflow {spec.name!r}: output stream {stream!r} "
                        f"does not exist"
                    )
            if node.procedure_name in self._bound:
                raise WorkflowError(
                    f"procedure {node.procedure_name!r} already belongs to a "
                    f"deployed workflow"
                )

        for node in spec.nodes.values():
            bound = self._bound[node.procedure_name] = _BoundNode(
                self.procedures[node.procedure_name],
                node,
                spec.name,
                self.streams.get(node.input_stream),
            )
            # A node placed on another cluster worker keeps no local cursor:
            # its input stream's local copy then has no consumers, so GC
            # reclaims producer-side tuples immediately after each drain.
            if self._node_runs_locally(node):
                bound.info.add_consumer(node.procedure_name)
            for stream in node.output_streams:
                self.streams.set_producer(stream, node.procedure_name)

        for name in spec.border_procedures:
            node = spec.nodes[name]
            existing = self._border_consumer.get(node.input_stream)
            if existing is not None:
                raise WorkflowError(
                    f"border stream {node.input_stream!r} already feeds "
                    f"{existing.name!r}; one BSP per border stream"
                )
            self._border_consumer[node.input_stream] = self._bound[name]
            self._ingest_buffers.setdefault(node.input_stream, [])

        self.workflows[spec.name] = spec
        self._bind_consumers()
        return spec

    def _bind_consumers(self) -> None:
        """Resolve every stream's consuming nodes, across all workflows.

        Run again by each deployment (a later workflow may consume an
        earlier one's stream) and by the cluster shard once it knows the
        placement, so commit-time dispatch only reads the answer.
        """
        self._stream_consumers = {
            info.name: tuple(self._consumers_of(info.name))
            if self._stream_consumed_locally(info.name)
            else None
            for info in self.streams.all()
        }

    # ------------------------------------------------------------------
    # Ingestion (the push-based client path)
    # ------------------------------------------------------------------

    def ingest(self, stream_name: str, rows: list[tuple[Any, ...]]) -> int:
        """Push tuples into a border stream: ONE client↔PE round trip.

        Tuples are made durable (upstream backup: the command log records the
        raw input), buffered, cut into batches of the consuming BSP's batch
        size, and — in eager mode — processed to quiescence before returning.
        Returns the number of tuples accepted.
        """
        self._require_alive()
        stream_name = stream_name.lower()
        # (an unknown stream raises UnknownObjectError from the registry)
        if self.streams.get(stream_name).producer is not None:
            raise StreamingError(
                f"stream {stream_name!r} is produced by a workflow procedure; "
                f"clients cannot ingest into interior streams"
            )
        if not rows:
            return 0
        # the one copy: the log record, the buffer and the batch share it
        rows = tuple(map(tuple, rows))

        if self.tracer.enabled:
            # root span of the whole pipeline instance: in eager mode every
            # downstream TE/trigger span nests under it via the span stack
            with self.tracer.span(
                "workflow", f"ingest:{stream_name}", tuples=len(rows)
            ):
                self._ingest_body(stream_name, rows)
        else:
            self._ingest_body(stream_name, rows)
        return len(rows)

    def _ingest_body(self, stream_name: str, rows: tuple[tuple[Any, ...], ...]) -> None:
        if not self._replaying:
            self.stats.client_pe_roundtrips += 1
            self.command_log.append(
                txn_id=self._next_txn_id,
                procedure=_INGEST_RECORD,
                params=(stream_name, rows),
                partition=0,
                logical_time=self.clock.now,
            )
            self._next_txn_id += 1

        self.stats.stream_tuples_ingested += len(rows)
        self._buffer_and_cut(stream_name, rows)
        if self.eager:
            self.run_until_quiescent()
        if not self._replaying:
            # counted after the work so an auto-snapshot covers this ingest
            self._note_logged_command()

    def _buffer_and_cut(
        self, stream_name: str, rows: Iterable[tuple[Any, ...]]
    ) -> None:
        buffer = self._ingest_buffers.setdefault(stream_name, [])
        buffer.extend(rows)
        bound = self._border_consumer.get(stream_name)
        if bound is None:
            return  # no workflow deployed yet; tuples wait in the buffer
        node = bound.node
        # border TEs join the ingest's trace even when they run later
        # (non-eager mode drains the scheduler outside the ingest span)
        trace_ctx = (
            self.tracer.current_context() if self.tracer.enabled else None
        )
        while len(buffer) >= node.batch_size:
            batch_rows = buffer[: node.batch_size]
            del buffer[: node.batch_size]
            batch = self.batch_factory.origin_batch(stream_name, batch_rows)
            self.latency.record_enqueue(batch.origin_batch_id)
            self.scheduler.enqueue(
                StreamTask(bound.name, batch, node.depth, bound.workflow, trace_ctx)
            )

    # ------------------------------------------------------------------
    # The scheduler loop
    # ------------------------------------------------------------------

    def run_until_quiescent(self) -> int:
        """Process pending TEs (in the S-Store serializable order) until none
        remain, then garbage-collect whatever stream input the consuming TEs
        could not expire themselves.  Returns TEs executed."""
        if self._in_drain:
            return 0
        self._in_drain = True
        executed = 0
        try:
            while self.scheduler.has_pending:
                task = self.scheduler.pop_next()
                self._execute_stream_te(task)
                executed += 1
        finally:
            self._in_drain = False
        if executed:
            self.latency.finalize()
            if self.gc.has_garbage():
                self._system_txn("<gc>", self.gc.collect)
                self.stats.bump("gc_passes")
        return executed

    def _system_txn(self, name: str, body: Any, *args: Any) -> Any:
        """Run an engine-internal maintenance transaction on partition 0.

        ``<gc>``, ``<tick>`` and the cluster's ``<task>`` insert are not
        client work, so they stay out of ``txns_committed``; and with no
        caller to hand a failed result to, an abort propagates.
        """
        _txns, data, error = self._transact(name, (0,), body, *args, counted=False)
        if error is not None:
            raise error
        return data[0]

    def workflow_status(self) -> dict[str, Any]:
        """Operational snapshot of the streaming layer.

        Pending TEs, per-stream buffered tuples and consumer cursors, live
        stream/window tuple counts, and pipeline latency so far — what an
        operator dashboard for the engine would poll.
        """
        streams = {}
        for info in self.streams.all():
            streams[info.name] = {
                "live_tuples": self.partitions[0].ee.table(info.name).row_count(),
                "buffered": len(self._ingest_buffers.get(info.name, [])),
                "producer": info.producer,
                "cursors": dict(info.cursors),
            }
        windows = {
            name: {
                "live_tuples": self.partitions[0].ee.table(name).row_count(),
                "staged": state.staged_count,
                "spec": (
                    state.spec.kind.value,
                    state.spec.size,
                    state.spec.slide,
                ),
                "owner": self.scopes.windows().get(name),
            }
            for name, state in self.windows.items()
        }
        return {
            "pending_tes": self.scheduler.pending_count,
            "committed_tes": self._commit_seq,
            "workflows": {
                name: {
                    "border": spec.border_procedures,
                    "interior": spec.interior_procedures,
                    "serial_required": spec.serial_required,
                }
                for name, spec in self.workflows.items()
            },
            "streams": streams,
            "windows": windows,
            "latency": self.latency.summary(),
        }

    def observe(self) -> dict[str, Any]:
        """Tables and clock, plus each window's bookkeeping as
        ``window:<name>`` (what the next slide depends on) and each input
        stream's ``(batches, crc32)`` commit digest as ``commits:<stream>``."""
        observation = super().observe()
        for name, state in self.windows.items():
            observation[f"window:{name}"] = state.dump_state()
        for stream, commits in self.stream_commits.items():
            observation[f"commits:{stream}"] = commits
        return observation

    # ------------------------------------------------------------------
    # Stream TE execution
    # ------------------------------------------------------------------

    def _execute_stream_te(self, task: StreamTask) -> None:
        tracer = self.tracer
        if not (tracer.enabled or self.metrics is not None):
            self._run_stream_te(task)
            return
        # a TE popped outside its ingest's span (non-eager drain, replay)
        # re-joins the originating trace via the context the task carries
        activated = tracer.enabled and tracer.depth == 0 and task.trace_ctx is not None
        if activated:
            tracer.activate(task.trace_ctx)
        try:
            self._observed(
                task.procedure_name,
                {
                    "batch_id": task.batch.batch_id,
                    "depth": task.depth,
                    "workflow": task.workflow_name,
                },
                self._run_stream_te,
                task,
            )
        finally:
            if activated:
                tracer.deactivate()

    def _run_stream_te(self, task: StreamTask) -> ProcedureResult:
        bound = self._bound[task.procedure_name]
        batch = task.batch
        # an interior batch's rows end at the rowid its emission recorded; a
        # border TE inserts its own and notes where they end
        high = self._batch_high_rowids.pop(batch.batch_id, -1)
        try:
            (txn,), _data, error = self._transact(
                bound.name, (0,), self._stream_te_body, bound, batch, high
            )
        except BaseException:
            self._failed_te = (bound.name, batch.stream, batch.origin_batch_id)
            raise
        # The batch is consumed even on abort (it will never be retried),
        # so the cursor still advances and GC can reclaim the tuples.
        notes = txn.notes
        high = notes.get("input_high", high)
        if high >= 0:
            bound.info.advance_cursor(bound.name, high)
        if error is not None:
            self.stats.bump("stream_te_aborts")
            return ProcedureResult(success=False, error=str(error), txn_id=txn.txn_id)
        self.latency.record_commit(batch.origin_batch_id)
        self.schedule_history.append(
            TERecord(
                self._commit_seq,
                bound.name,
                batch.origin_batch_id,
                task.depth,
                task.workflow_name,
            )
        )
        self._commit_seq += 1
        input_stream = bound.info.name
        batches, digest = self.stream_commits.get(input_stream, (0, 0))
        self.stream_commits[input_stream] = (
            batches + 1,
            zlib.crc32(repr(batch.rows).encode(), digest),
        )
        emissions = notes.get("emissions")
        if emissions:
            self._dispatch_emissions(emissions, batch)
        return ProcedureResult(success=True, txn_id=txn.txn_id)

    def _stream_te_body(
        self, txn: TransactionContext, bound: _BoundNode, batch: Batch, high: int
    ) -> None:
        info = bound.info
        if bound.node.depth == 0 and info.name == batch.stream:
            # The border batch enters stream state transactionally at TE
            # start; EE hooks (windows, SQL triggers) fire inside this txn.
            self.stats.pe_ee_roundtrips += 1
            high = txn.ee.insert_rows(txn, info.name, batch.rows)[-1]
            txn.notes["input_high"] = high
        procedure = bound.procedure
        procedure.run(StreamContext(self, procedure, txn, 0, batch, bound.emits))
        if len(info.cursors) == 1:
            # Sole consumer: the input expires with the TE that read it (the
            # paper's "lifespan determined by the queries accessing it").  An
            # abort restores the rows; the quiescence pass collects them.
            rowids = txn.ee.table(info.name).rowids()
            expired = [rowid for rowid in rowids if rowid <= high]
            if expired:
                txn.ee.delete_rows(txn, info.name, expired)
                self.stats.stream_tuples_gced += len(expired)

    # ------------------------------------------------------------------
    # PE triggers: commit-time dispatch of emitted batches
    # ------------------------------------------------------------------

    def _dispatch_emissions(
        self, emissions: dict[str, dict[str, Any]], origin: Batch | None
    ) -> None:
        tracer = self.tracer
        for stream_name, record in emissions.items():
            rows = record["rows"]
            if not rows:
                continue
            consumers = self._stream_consumers.get(stream_name, ())
            if consumers is None:
                # the consuming node lives on another cluster worker: hand
                # the batch to the dispatch buffer instead of the scheduler
                self._dispatch_remote(stream_name, rows)
                continue
            for bound in consumers:
                if origin is not None:
                    batch = self.batch_factory.derived_batch(
                        origin, stream_name, rows
                    )
                else:
                    batch = self.batch_factory.origin_batch(stream_name, rows)
                self._batch_high_rowids[batch.batch_id] = record["high_rowid"]
                self.stats.pe_trigger_firings += 1
                trace_ctx = trigger_span = None
                if tracer.enabled:
                    # the trigger span is the causal hinge: the downstream
                    # TE parents under it, tying the pipeline into one trace
                    trigger_span = tracer.start_span(
                        "trigger",
                        f"pe:{stream_name}->{bound.name}",
                        {"tuples": len(rows)},
                    )
                    trace_ctx = tracer.current_context()
                self.scheduler.enqueue(
                    StreamTask(
                        bound.name, batch, bound.node.depth, bound.workflow, trace_ctx
                    )
                )
                if trigger_span is not None:
                    tracer.end_span(trigger_span)

    def _consumers_of(self, stream_name: str) -> list[_BoundNode]:
        """The deployed nodes reading ``stream_name`` — deploy-time work:
        TEs read the answer from ``_stream_consumers``."""
        return [
            bound
            for bound in self._bound.values()
            if bound.node.input_stream == stream_name
        ]

    # ------------------------------------------------------------------
    # Distribution hooks (repro.dstream overrides these)
    # ------------------------------------------------------------------
    # In a single-process engine every workflow node, stream and hook is
    # local, so these are constants.  StreamShardEngine overrides them with
    # placement-aware versions so one engine instance per cluster worker can
    # run just its share of a workflow.

    def _node_runs_locally(self, node: WorkflowNode) -> bool:
        return True

    def _stream_consumed_locally(self, stream_name: str) -> bool:
        return True

    def _hooks_active(self, stream_name: str) -> bool:
        """Whether window/EE-trigger hooks on ``stream_name`` fire here."""
        return True

    def _dispatch_remote(
        self, stream_name: str, rows: list[tuple[Any, ...]]
    ) -> None:
        raise StreamingError(
            f"stream {stream_name!r} has no local consumer and this engine "
            f"cannot dispatch remotely"
        )

    # ------------------------------------------------------------------
    # Emission / access authorization
    # ------------------------------------------------------------------

    def authorize_emit(self, procedure: StoredProcedure, stream_name: str) -> None:
        stream_name = stream_name.lower()
        info = self.streams.get(stream_name)  # raises for an unknown stream
        bound = self._bound.get(procedure.name)
        if bound is not None:
            if stream_name not in bound.emits:
                raise StreamingError(
                    f"procedure {procedure.name!r} did not declare "
                    f"{stream_name!r} as an output stream"
                )
            return
        # Non-workflow (OLTP) procedures may emit into client-style border
        # streams only — they act as in-engine data sources.
        if info.producer is not None:
            raise StreamingError(
                f"stream {stream_name!r} is produced by "
                f"{info.producer!r}; {procedure.name!r} cannot emit into it"
            )

    def check_plan_access(self, plan: Plan, procedure_name: str | None) -> None:
        """Enforce window scoping and stream/window write protection.

        A pass is remembered on the plan under what decided it, so the full
        check runs the first time and again after any DDL
        (``catalog.version``) or re-scoping (``scopes.epoch``).
        """
        token = self.access_token(procedure_name)
        if plan.access_pass == token:
            return
        reads, writes = plan_table_access(plan)
        self.scopes.check_access(reads | writes, procedure_name)
        for table_name in writes:
            if not self.catalog.has_table(table_name):
                continue
            kind = self.catalog.table(table_name).kind
            if kind is TableKind.STREAM:
                raise StreamingError(
                    f"direct DML on stream {table_name!r}; streams are "
                    f"written with ctx.emit(...) so the engine can batch and "
                    f"trigger downstream work"
                )
            if kind is TableKind.WINDOW:
                raise StreamingError(
                    f"direct DML on window {table_name!r}; window contents "
                    f"are maintained natively by the EE"
                )
        plan.access_pass = token

    def access_token(self, procedure_name: str | None) -> tuple:
        """What a passed access check is remembered under: the scope table,
        the procedure, and the two counters DDL and re-scoping advance."""
        return (self.scopes, procedure_name, self.catalog.version, self.scopes.epoch)

    def _check_adhoc_plan(self, plan: Any) -> None:
        self.check_plan_access(plan, None)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    def advance_time(self, ticks: int = 1) -> int:
        """Advance the logical clock; time-based windows slide accordingly.

        Durable: a tick record lands in the command log so recovery replays
        the same timeline.
        """
        self._require_alive()
        now = self.clock.advance(ticks)
        if not self._replaying:
            self.command_log.append(
                txn_id=self._next_txn_id,
                procedure=_TICK_RECORD,
                params=(ticks,),
                partition=0,
                logical_time=now,
            )
            self._next_txn_id += 1
        self._slide_time_windows()
        if not self._replaying:
            self._note_logged_command()
        return now

    def _slide_time_windows(self) -> None:
        time_windows = [
            state
            for state in self.windows.values()
            if state.spec.kind is WindowKind.TIME
        ]
        if not time_windows:
            return
        self._system_txn(_TICK_RECORD, self._advance_time_windows, time_windows)

    def _advance_time_windows(
        self, txn: TransactionContext, time_windows: list[WindowState]
    ) -> None:
        for state in time_windows:
            state.advance_time(txn, self.clock.now)

    # ------------------------------------------------------------------
    # OLTP entry points (drain stream work around them)
    # ------------------------------------------------------------------

    def call_procedure(self, name: str, *params: Any) -> ProcedureResult:
        self.run_until_quiescent()
        result = super().call_procedure(name, *params)
        self.run_until_quiescent()
        return result

    def _make_context(
        self,
        procedure: StoredProcedure,
        txn: TransactionContext,
        partition_id: int,
    ) -> ProcedureContext:
        return StreamContext(self, procedure, txn, partition_id, batch=None)

    def _after_commit(self, txn: TransactionContext) -> None:
        # An OLTP procedure that emitted into a border stream starts a fresh
        # pipeline instance (its own origin batch).
        emissions = txn.notes.get("emissions")
        if emissions:
            self._dispatch_emissions(emissions, None)

    # ------------------------------------------------------------------
    # Durability: snapshots + upstream-backup replay
    # ------------------------------------------------------------------

    def take_snapshot(self):
        self.run_until_quiescent()
        return super().take_snapshot()

    def _snapshot_extra(self) -> dict[str, Any]:
        return {
            "streams": self.streams.dump_state(),
            "windows": {
                name: state.dump_state() for name, state in self.windows.items()
            },
            "batch_factory": self.batch_factory.dump_state(),
            "ingest_buffers": {
                name: [list(row) for row in rows]
                for name, rows in self._ingest_buffers.items()
            },
            # the per-stream (batches, digest) and the TE count, not
            # a per-TE ledger: the snapshot stays O(streams) however long the
            # run, and a restart resumes the numbering replay then extends
            "commit_digests": dict(self.stream_commits),
            "commit_seq": self._commit_seq,
        }

    def _restore_extra(self, extra: dict[str, Any]) -> None:
        self.scheduler.clear()
        self._batch_high_rowids.clear()
        # per-TE observations restart with the state: counts resume from the
        # snapshot, the rings empty, and replay re-records the suffix
        self.stream_commits = {
            str(stream): (int(batches), int(digest))
            for stream, (batches, digest) in extra.get("commit_digests", {}).items()
        }
        self._commit_seq = int(extra.get("commit_seq", 0))
        self.schedule_history.clear()
        self.latency.reset()
        self.streams.load_state(extra.get("streams", {}))
        window_states = extra.get("windows", {})
        for name, state in self.windows.items():
            if name in window_states:
                state.load_state(window_states[name])
            else:
                state.reset()
        self.batch_factory.load_state(extra.get("batch_factory", {}))
        buffers = extra.get("ingest_buffers", {})
        for name in self._ingest_buffers:
            restored = buffers.get(name, [])
            self._ingest_buffers[name] = [tuple(row) for row in restored]

    def _replay_invocation(self, record: LogRecord) -> None:
        if record.procedure == _INGEST_RECORD:
            stream_name, rows = record.params
            self.stats.stream_tuples_ingested += len(rows)
            self._buffer_and_cut(stream_name, [tuple(row) for row in rows])
            self.run_until_quiescent()
            return
        if record.procedure == _TICK_RECORD:
            # clock was already advanced to record.logical_time by recover()
            self._slide_time_windows()
            return
        super()._replay_invocation(record)
        self.run_until_quiescent()
