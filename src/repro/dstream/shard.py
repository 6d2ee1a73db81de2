"""One cluster worker's share of the streaming layer.

:class:`StreamShardEngine` is a full single-partition :class:`SStoreEngine`
that knows which workflow nodes, streams and tables it owns.  The base
engine's distribution hooks are overridden so that:

* workflow nodes placed on other workers register no local stream cursor
  (their input's local copy is garbage-collected after every drain);
* window maintenance and EE triggers fire only on the stream's
  *authoritative* worker (the consumer's worker), never on the producer's
  local copy of a remote stream;
* emissions into a remotely-consumed stream land in :attr:`outbound` as
  ``(stream, token, rows)`` dispatches instead of the local scheduler.

The ordering token is a per-stream monotone counter.  It is regenerated
deterministically by command-log replay (the producer's ``<ingest>`` /
``<task>`` records drive the same cascade), and the receiving worker
dedups on a per-stream watermark — that pair is the cluster's
exactly-once mechanism; there is no acknowledgement protocol.
"""

from __future__ import annotations

from typing import Any

from repro.core.engine import SStoreEngine, _TICK_RECORD
from repro.core.scheduler import StreamTask
from repro.hstore.txn import TransactionContext
from repro.core.workflow import WorkflowNode, WorkflowSpec, plan_table_access
from repro.errors import StreamingError, WorkflowError
from repro.hstore.catalog import TableKind
from repro.hstore.cmdlog import LogRecord

__all__ = ["StreamShardEngine", "_TASK_RECORD"]

#: pseudo-procedure name for a received cross-worker stream task
_TASK_RECORD = "<task>"


class StreamShardEngine(SStoreEngine):
    """The engine a ``dstream`` cluster runs inside each worker process."""

    def __init__(self, worker_id: int, worker_count: int, **kwargs: Any) -> None:
        super().__init__(partitions=1, **kwargs)
        self.worker_id = worker_id
        self.worker_count = worker_count
        #: workflow node name → worker id (every deployed node, all workers)
        self._node_worker: dict[str, int] = {}
        #: stream name → authoritative worker (the consumer's worker)
        self._stream_worker: dict[str, int] = {}
        #: table name → owning worker (union of workflow-node write sets)
        self._owned_tables: dict[str, int] = {}
        #: producer side: next ordering token per remotely-consumed stream
        self._stream_seq: dict[str, int] = {}
        #: receiver side: highest token applied per stream (exactly-once)
        self._watermarks: dict[str, int] = {}
        #: dispatches awaiting pickup by the coordinator pump
        self.outbound: list[tuple[str, int, tuple[tuple[Any, ...], ...]]] = []
        #: number of cluster-wide clock ticks applied (broadcast dedup)
        self._ticks_applied = 0

    # ------------------------------------------------------------------
    # Placement-aware deployment
    # ------------------------------------------------------------------

    def deploy_placed_workflow(
        self, spec: WorkflowSpec, node_placement: dict[str, int]
    ) -> dict[str, Any]:
        """Deploy ``spec`` with an explicit node → worker placement.

        Every worker receives the same call; each registers only its local
        share for execution but learns the full placement for routing.
        Validation is deterministic, so an invalid placement fails
        identically on every worker.  Returns the routing info the
        coordinator caches (border streams, stream authority, owned tables).
        """
        for name, wid in node_placement.items():
            self._node_worker[name.lower()] = wid
        deployed = self.deploy_workflow(spec)

        def worker_of(node_name: str) -> int:
            return self._node_worker[node_name]

        if deployed.serial_required:
            placed_on = {worker_of(name) for name in deployed.nodes}
            if len(placed_on) > 1:
                raise WorkflowError(
                    f"workflow {deployed.name!r} has shared writable tables "
                    f"(serial execution required) but is placed on workers "
                    f"{sorted(placed_on)}; co-locate all of its nodes"
                )

        stream_worker: dict[str, int] = {}
        for node in deployed.nodes.values():
            consumers = {
                worker_of(consumer.procedure_name)
                for consumer in deployed.consumers_of_stream(node.input_stream)
            }
            if len(consumers) > 1:
                raise WorkflowError(
                    f"stream {node.input_stream!r} is consumed on workers "
                    f"{sorted(consumers)}; all consumers of a stream must be "
                    f"co-located (one authoritative worker per stream)"
                )
            stream_worker[node.input_stream] = consumers.pop()
        for node in deployed.nodes.values():
            # sink streams (no consumer): authority defaults to the producer
            for stream in node.output_streams:
                stream_worker.setdefault(
                    stream, worker_of(node.procedure_name)
                )

        owned: dict[str, int] = {}
        for node in deployed.nodes.values():
            wid = worker_of(node.procedure_name)
            writes: set[str] = set()
            for plan in self.procedures[node.procedure_name].plans.values():
                _reads, plan_writes = plan_table_access(plan)
                writes |= plan_writes
            for table in writes:
                if not self.catalog.has_table(table):
                    continue
                if self.catalog.table(table).kind is not TableKind.TABLE:
                    continue
                previous = owned.get(table, self._owned_tables.get(table))
                if previous is not None and previous != wid:
                    raise WorkflowError(
                        f"table {table!r} is written by workflow nodes on "
                        f"workers {previous} and {wid}; split-placed nodes "
                        f"need disjoint table write sets"
                    )
                owned[table] = wid
        for table, wid in owned.items():
            if (
                wid != self.worker_id
                and self.partitions[0].ee.table(table).row_count()
            ):
                raise WorkflowError(
                    f"table {table!r} is owned by worker {wid} but already "
                    f"holds rows on worker {self.worker_id}; seed "
                    f"workflow-written tables *after* deploy_workflow so DML "
                    f"routes to the owner only"
                )

        self._stream_worker.update(stream_worker)
        self._owned_tables.update(owned)
        self._bind_consumers()  # again, now that stream authority is known
        return {
            "workflow": deployed.name,
            "border_streams": {
                deployed.nodes[name].input_stream: worker_of(name)
                for name in deployed.border_procedures
            },
            "stream_worker": stream_worker,
            "owned_tables": owned,
            "serial_required": deployed.serial_required,
        }

    # ------------------------------------------------------------------
    # Distribution hooks
    # ------------------------------------------------------------------

    def _node_runs_locally(self, node: WorkflowNode) -> bool:
        return (
            self._node_worker.get(node.procedure_name, self.worker_id)
            == self.worker_id
        )

    def _stream_consumed_locally(self, stream_name: str) -> bool:
        return (
            self._stream_worker.get(stream_name, self.worker_id)
            == self.worker_id
        )

    def _hooks_active(self, stream_name: str) -> bool:
        return self._stream_consumed_locally(stream_name)

    def _dispatch_remote(
        self, stream_name: str, rows: list[tuple[Any, ...]]
    ) -> None:
        token = self._stream_seq.get(stream_name, 0) + 1
        self._stream_seq[stream_name] = token
        self.outbound.append(
            (stream_name, token, tuple(tuple(row) for row in rows))
        )
        self.stats.bump("stream_tasks_dispatched")

    def take_outbound(self) -> list[tuple[str, int, tuple]]:
        """Drain the dispatch buffer (called after every worker op)."""
        taken, self.outbound = self.outbound, []
        return taken

    # ------------------------------------------------------------------
    # Receiving side: cross-worker stream tasks and cluster ticks
    # ------------------------------------------------------------------

    def apply_stream_task(
        self, stream_name: str, token: int, rows: list[tuple[Any, ...]]
    ) -> bool:
        """Apply one dispatched batch; returns False if already applied.

        Watermark discipline: ``token <= watermark`` is a re-delivery (the
        producer replayed its log after a crash) and is skipped; exactly
        ``watermark + 1`` applies; anything later means a task was lost,
        which the no-ack design makes impossible — so it raises.
        """
        self._require_alive()
        stream_name = stream_name.lower()
        watermark = self._watermarks.get(stream_name, 0)
        if token <= watermark:
            self.stats.bump("stream_tasks_deduped")
            return False
        if token != watermark + 1:
            raise StreamingError(
                f"stream task gap on {stream_name!r}: token {token} arrived "
                f"with watermark {watermark}"
            )
        rows = [tuple(row) for row in rows]
        if not self._replaying:
            self.command_log.append(
                txn_id=self._next_txn_id,
                procedure=_TASK_RECORD,
                params=(stream_name, token, tuple(rows)),
                partition=0,
                logical_time=self.clock.now,
            )
            self._next_txn_id += 1
        self._watermarks[stream_name] = token
        self._enqueue_received_batch(stream_name, rows)
        if self.eager:
            self.run_until_quiescent()
        if not self._replaying:
            self._note_logged_command()
        return True

    def _enqueue_received_batch(
        self, stream_name: str, rows: list[tuple[Any, ...]]
    ) -> None:
        consumers = self._consumers_of(stream_name)
        if not consumers:
            raise StreamingError(
                f"worker {self.worker_id} received a task for stream "
                f"{stream_name!r} but consumes nothing from it (misrouted)"
            )
        for bound in consumers:
            if not self._node_runs_locally(bound.node):
                raise StreamingError(
                    f"stream task for {stream_name!r} routed to worker "
                    f"{self.worker_id}, but consumer "
                    f"{bound.name!r} lives on worker "
                    f"{self._node_worker.get(bound.name)}"
                )
        interior = [bound for bound in consumers if bound.node.depth > 0]
        if interior and len(interior) != len(consumers):
            raise StreamingError(
                f"stream {stream_name!r} mixes border and interior consumers "
                f"across workflows; that shape is not supported on a cluster"
            )
        high_rowid: int | None = None
        if interior:
            # The producer's emit-insert happened on the remote worker,
            # against a doomed local copy of this stream.  Re-create the
            # physical batch here ONCE — EE hooks (windows, SQL triggers)
            # fire now, on the authoritative worker — and let every consumer
            # share it, exactly like a locally-emitted batch.  Border
            # consumers (depth 0) instead insert inside their own TE, like
            # a local ingest would.
            high_rowid = self._system_txn(
                _TASK_RECORD, self._insert_received_rows, stream_name, rows
            )
        trace_ctx = (
            self.tracer.current_context() if self.tracer.enabled else None
        )
        for bound in consumers:
            batch = self.batch_factory.origin_batch(stream_name, rows)
            self.latency.record_enqueue(batch.origin_batch_id)
            if high_rowid is not None:
                self._batch_high_rowids[batch.batch_id] = high_rowid
            self.stats.pe_trigger_firings += 1
            self.scheduler.enqueue(
                StreamTask(
                    bound.name, batch, bound.node.depth, bound.workflow, trace_ctx
                )
            )

    def _insert_received_rows(
        self,
        txn: TransactionContext,
        stream_name: str,
        rows: list[tuple[Any, ...]],
    ) -> int:
        """Insert a received batch into its stream's backing, hooks and all."""
        self.stats.pe_ee_roundtrips += 1
        return txn.ee.insert_rows(txn, stream_name, rows)[-1]

    def apply_tick(self, ticks: int, seq: int) -> int:
        """Apply a cluster-wide clock tick exactly once (broadcast dedup)."""
        self._require_alive()
        if seq <= self._ticks_applied:
            return self.clock.now
        self._ticks_applied = seq
        return self.advance_time(ticks)

    # ------------------------------------------------------------------
    # Ad-hoc SQL authority (owned tables live on one worker)
    # ------------------------------------------------------------------

    def adhoc_authority(self, plan: Any) -> bool:
        """Whether this worker is authoritative for an ad-hoc statement.

        A statement touching a workflow-owned table is authoritative only on
        the owner (other workers hold stale/empty replicas); statements over
        unowned tables are authoritative everywhere (classic broadcast DML).
        Windows and streams resolve to the worker that consumes the stream:
        window maintenance (and so any attached delta view) fires only
        there, so only that worker's window contents are real.
        """
        reads, writes = plan_table_access(plan)
        return all(
            self._table_authoritative(table) for table in reads | writes
        )

    def _table_authoritative(self, table: str) -> bool:
        # walk window-over-window chains down to the root stream: a window
        # materializes wherever its root stream is consumed
        source = table
        while source in self.windows:
            source = self.windows[source].spec.stream
        if source != table or self.streams.has(source):
            return self._stream_consumed_locally(source)
        return self._owned_tables.get(table, self.worker_id) == self.worker_id

    # ------------------------------------------------------------------
    # Coordinator-facing state
    # ------------------------------------------------------------------

    def dstream_state(self, history: bool = False) -> dict[str, Any]:
        """O(streams) status for health polls; ``history`` adds the bounded
        committed-TE ring the E9 validator reads."""
        state = {
            "worker_id": self.worker_id,
            "ticks_applied": self._ticks_applied,
            "watermarks": dict(self._watermarks),
            "stream_seq": dict(self._stream_seq),
            "commit_digests": dict(self.stream_commits),
            "pending_tes": self.scheduler.pending_count,
            "outbound": len(self.outbound),
        }
        if history:
            state["schedule_history"] = list(self.schedule_history)
        return state

    # ------------------------------------------------------------------
    # Durability: the dstream state rides the snapshot extra
    # ------------------------------------------------------------------

    def _snapshot_extra(self) -> dict[str, Any]:
        extra = super()._snapshot_extra()
        extra["dstream"] = {
            "stream_seq": dict(self._stream_seq),
            "watermarks": dict(self._watermarks),
            # undelivered dispatches are part of durable state: re-delivery
            # after restore is safe (receiver watermarks dedup), losing one
            # is not
            "outbound": [
                [stream, token, [list(row) for row in rows]]
                for stream, token, rows in self.outbound
            ],
            "ticks_applied": self._ticks_applied,
        }
        return extra

    def _restore_extra(self, extra: dict[str, Any]) -> None:
        super()._restore_extra(extra)
        state = extra.get("dstream", {})
        self._stream_seq = {
            str(k): int(v) for k, v in state.get("stream_seq", {}).items()
        }
        self._watermarks = {
            str(k): int(v) for k, v in state.get("watermarks", {}).items()
        }
        self.outbound = [
            (stream, int(token), tuple(tuple(row) for row in rows))
            for stream, token, rows in state.get("outbound", [])
        ]
        self._ticks_applied = int(state.get("ticks_applied", 0))

    def _replay_invocation(self, record: LogRecord) -> None:
        if record.procedure == _TASK_RECORD:
            stream_name, token, rows = record.params
            watermark = self._watermarks.get(stream_name, 0)
            if token <= watermark:
                return  # applied before the snapshot this replay starts from
            if token != watermark + 1:
                raise StreamingError(
                    f"replay gap on {stream_name!r}: logged token {token} "
                    f"with watermark {watermark}"
                )
            self._watermarks[stream_name] = token
            self._enqueue_received_batch(
                stream_name, [tuple(row) for row in rows]
            )
            self.run_until_quiescent()
            return
        if record.procedure == _TICK_RECORD:
            self._ticks_applied += 1
        super()._replay_invocation(record)
