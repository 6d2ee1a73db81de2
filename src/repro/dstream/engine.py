"""The distributed streaming coordinator.

:class:`DStreamEngine` extends the multi-process OLTP facade with the
paper's streaming surface: deploy workflows with a node → worker placement,
push batches into border streams, advance the cluster-wide logical clock,
and drain workflow work to quiescence — while enforcing the S-Store
guarantees across processes:

* **TE order within a workflow** — each worker's shard engine schedules its
  local TEs with the standard S-Store scheduler; cross-worker edges are
  sequenced by the per-stream ordering token.
* **Stream order across batches** — the producer stamps every dispatched
  batch with a monotone per-stream token, and the coordinator pump forwards
  dispatches to the stream's single authoritative worker in token order.
* **Exactly-once on crash/recover** — dispatched tasks are *re-derived*
  from the producer's command log (upstream backup, the paper's §4
  mechanism) and deduplicated by the receiver's watermark; there is no
  acknowledgement protocol to lose.

``log_group_size`` is forced to 1: every applied cross-worker task must be
durable on its receiver before the next client op completes, otherwise a
crash could lose a task that the producer will never re-send (its own log
already covered it with an earlier token).
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.engine import _TICK_RECORD
from repro.core.workflow import WorkflowSpec
from repro.dstream.shard import _TASK_RECORD
from repro.errors import (
    PartitionError,
    ReproError,
    StreamingError,
    UnknownObjectError,
    WorkflowError,
)
from repro.hstore.executor import ResultSet
from repro.hstore.partition import route_value
from repro.hstore.procedure import ProcedureResult
from repro.obs.config import ObsConfig
from repro.parallel import messages as msg
from repro.parallel.engine import ParallelHStoreEngine

__all__ = ["DStreamEngine"]


class DStreamEngine(ParallelHStoreEngine):
    """N worker processes, each running a :class:`StreamShardEngine`."""

    _ENGINE_KIND = "dstream"

    def __init__(
        self,
        workers: int = 2,
        *,
        log_group_size: int = 1,
        snapshot_interval: int | None = None,
        command_logging: bool = True,
        obs: ObsConfig | None = None,
    ) -> None:
        if log_group_size != 1:
            raise ReproError(
                f"DStreamEngine requires log_group_size=1 (got "
                f"{log_group_size}): a group-buffered log could lose an "
                f"applied cross-worker stream task that its producer will "
                f"never re-send"
            )
        super().__init__(
            workers,
            log_group_size=1,
            snapshot_interval=snapshot_interval,
            command_logging=command_logging,
            obs=obs,
        )
        #: workflow name → the (unfinalized, coordinator-side) spec
        self.workflows: dict[str, WorkflowSpec] = {}
        #: workflow name → routing info gathered at deploy time
        self._workflow_info: dict[str, dict[str, Any]] = {}
        #: border stream → worker running its border procedure
        self._border_worker: dict[str, int] = {}
        #: stream → authoritative worker (the consumer's worker)
        self._stream_worker: dict[str, int] = {}
        #: cluster-wide tick sequence number (broadcast dedup)
        self._tick_seq = 0
        #: ingest→commit latency histograms per border stream (metrics on)
        self._stream_e2e_hists: dict[str, Any] = {}
        if self.metrics is not None:
            self.metrics.read(self._read_stream_health)

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy_workflow(
        self, spec: WorkflowSpec, placement: dict[str, int] | None = None
    ) -> WorkflowSpec:
        """Deploy a workflow across the cluster.

        Default placement co-locates every node on the workflow's *home
        worker* (hash of the workflow name — the routing rule the OLTP
        router uses for keys).  ``placement`` overrides per node; workers
        validate that split placements are legal (no shared writable
        tables, one worker per stream's consumers).
        """
        self._require_alive()
        if spec.name in self.workflows:
            raise WorkflowError(f"workflow {spec.name!r} already deployed")
        home = route_value(spec.name, len(self.workers))
        node_placement: dict[str, int] = {}
        for name in spec.nodes:
            wid = home if placement is None else placement.get(name, home)
            if not 0 <= wid < len(self.workers):
                raise WorkflowError(
                    f"workflow {spec.name!r}: node {name!r} placed on "
                    f"worker {wid}, cluster has {len(self.workers)}"
                )
            node_placement[name] = wid
        # every worker receives (a pickled copy of) the unfinalized spec and
        # finalizes locally; the reply carries the routing info
        infos = self._broadcast(msg.OP_DEPLOY_WORKFLOW, (spec, node_placement))
        info = infos[0]
        self.workflows[info["workflow"]] = spec
        self._workflow_info[info["workflow"]] = {
            "placement": dict(node_placement),
            **info,
        }
        self._border_worker.update(info["border_streams"])
        self._stream_worker.update(info["stream_worker"])
        return spec

    def workflow_placement(self, name: str) -> dict[str, Any]:
        try:
            return self._workflow_info[name.lower()]
        except KeyError:
            raise UnknownObjectError(f"no workflow named {name!r}") from None

    # ------------------------------------------------------------------
    # Streaming client surface
    # ------------------------------------------------------------------

    def ingest(self, stream_name: str, rows: list[tuple[Any, ...]]) -> int:
        """Push tuples into a border stream (routed to its border worker)."""
        self._require_alive()
        stream_name = stream_name.lower()
        if not rows:
            return 0
        wid = self._border_worker.get(stream_name)
        if wid is None:
            raise StreamingError(
                f"no deployed workflow consumes border stream "
                f"{stream_name!r}; deploy the workflow before ingesting "
                f"(the cluster does not buffer unconsumed ingests)"
            )
        self.stats_local.client_pe_roundtrips += 1
        started_ns = time.perf_counter_ns() if self.metrics is not None else 0
        reply = self._rpc(
            self.workers[wid],
            msg.OP_INGEST,
            (stream_name, [tuple(row) for row in rows]),
        )
        self._pump(reply["dispatches"])
        if self.metrics is not None:
            # ingest() returns only after _pump has chased every dispatch to
            # a committed downstream TE, so this histogram really is the
            # ingest→downstream-commit end-to-end latency
            histogram = self._stream_e2e_hists.get(stream_name)
            if histogram is None:
                histogram = self.metrics.histogram(
                    "stream.e2e_us",
                    "ingest→downstream-commit end-to-end latency (µs)",
                    stream=stream_name,
                )
                self._stream_e2e_hists[stream_name] = histogram
            histogram.observe((time.perf_counter_ns() - started_ns) / 1000.0)
        return reply["accepted"]

    def advance_time(self, ticks: int = 1) -> int:
        """Advance every worker's logical clock by the same ticks.

        The broadcast carries a sequence number so a retried tick (client
        resumption after a mid-broadcast crash) applies exactly once per
        worker.
        """
        self._require_alive()
        self._tick_seq += 1
        replies = self._broadcast(msg.OP_TICK, (ticks, self._tick_seq))
        for reply in replies:
            self._pump(reply["dispatches"])
        return replies[0]["now"]

    def run_until_quiescent(self) -> int:
        """Drain every worker and pump cross-worker dispatches until the
        whole cluster is quiescent.  Returns total TEs executed."""
        self._require_alive()
        executed = 0
        while True:
            replies = self._broadcast(msg.OP_WF_DRAIN)
            round_executed = sum(reply["executed"] for reply in replies)
            executed += round_executed
            dispatches = [
                task for reply in replies for task in reply["dispatches"]
            ]
            if dispatches:
                self._pump(dispatches)
                continue
            if round_executed == 0:
                return executed

    def _pump(self, dispatches: list[tuple[str, int, tuple]]) -> int:
        """Forward dispatched stream tasks until no new ones appear.

        Each task goes to its stream's authoritative worker; applying one
        may produce further dispatches (deeper workflow levels), which chain
        through the same loop.  FIFO order preserves per-stream token order
        because each stream has a single producing worker.
        """
        forwarded = 0
        pending = list(dispatches)
        while pending:
            stream_name, token, rows = pending.pop(0)
            wid = self._stream_worker.get(stream_name)
            if wid is None:
                raise StreamingError(
                    f"dispatch for stream {stream_name!r} with no "
                    f"authoritative worker (workflow not deployed?)"
                )
            self.stats_local.bump("stream_tasks_forwarded")
            reply = self._rpc(
                self.workers[wid], msg.OP_STREAM_TASK, (stream_name, token, rows)
            )
            forwarded += 1
            pending.extend(reply["dispatches"])
        return forwarded

    # ------------------------------------------------------------------
    # OLTP entry points drain streaming work around them (like SStoreEngine)
    # ------------------------------------------------------------------

    def invoke(self, name: str, params: tuple[Any, ...]) -> ProcedureResult:
        result = super().invoke(name, params)
        if self.workflows:
            # an OLTP procedure may have emitted into a border stream; its
            # cascade (and any cross-worker dispatches) drains here
            self.run_until_quiescent()
        return result

    # ------------------------------------------------------------------
    # Ad-hoc SQL: owned-table authority routing
    # ------------------------------------------------------------------

    def execute_sql(self, sql: str, *params: Any) -> ResultSet | int:
        """Broadcast SQL with workflow-owned-table authority.

        Tables written by workflow nodes live on one worker; the other
        workers' replicas are skipped for DML and ignored for SELECT.  A
        SELECT answered by exactly one authoritative worker may use ORDER
        BY / GROUP BY / LIMIT (no scatter-gather to corrupt the clauses).
        """
        self._require_alive()
        self.stats_local.client_pe_roundtrips += 1
        replies = self._broadcast(msg.OP_SQL, (sql, tuple(params)))
        authoritative = [
            reply for reply in replies if reply.get("authoritative", True)
        ]
        if not authoritative:
            raise PartitionError(
                "no single worker is authoritative for this statement: it "
                "touches workflow-owned tables living on different workers; "
                "query them separately"
            )
        first = authoritative[0]
        if first["select"] is None:
            # DML rowcount: identical on every authoritative worker
            return first["result"]
        flags = first["select"]
        if len(authoritative) > 1 and any(flags.values()):
            clause = ", ".join(sorted(name for name, on in flags.items() if on))
            raise PartitionError(
                f"ad-hoc SELECT with {clause} clause(s) cannot "
                f"scatter-gather across {len(authoritative)} workers: each "
                f"shard would apply the clause locally and the merged answer "
                f"would be wrong. Run it via a stored procedure or a "
                f"single-worker cluster."
            )
        merged = ResultSet(columns=list(first["result"].columns), rows=[])
        for reply in authoritative:
            merged.rows.extend(reply["result"].rows)
        return merged

    # ------------------------------------------------------------------
    # Durability / recovery
    # ------------------------------------------------------------------

    def take_snapshot(self) -> list[int]:
        # quiesce first so every worker checkpoints a consistent cut (any
        # undelivered dispatch still rides the snapshot's outbound buffer)
        self.run_until_quiescent()
        return super().take_snapshot()

    def recover(self) -> int:
        replayed = super().recover()
        self._reconcile()
        return replayed

    def restore_from_disk(self, path: Any) -> int:
        replayed = super().restore_from_disk(path)
        # the tick sequence resumes from the slowest worker: a partially
        # broadcast tick is then retried, and workers that already applied
        # it dedup on their per-worker counter
        states = self._broadcast(msg.OP_DSTREAM_STATE)
        self._tick_seq = min(
            (state["ticks_applied"] for state in states), default=0
        )
        self._reconcile()
        return replayed

    def _reconcile(self) -> None:
        """Deliver dispatches regenerated by replay, then drain."""
        for chunk in self._broadcast(msg.OP_TAKE_DISPATCHES):
            self._pump(chunk)
        self.run_until_quiescent()

    def durable_op_count(self, logged_procedures: frozenset[str]) -> int:
        """Durable client-op records, for exactly-once resumption.

        Ingests and calls log one record on one worker; ticks log one
        record on *every* worker, so a tick only counts once it is durable
        everywhere (min across workers) — a partially-broadcast tick is
        retried and deduplicated by sequence number.  ``<task>`` records
        are interior bookkeeping, not client ops, and never count.
        """
        count = 0
        tick_counts: list[int] = []
        for records in self._broadcast(msg.OP_LOG_RECORDS):
            ticks = 0
            for record in records:
                if record.procedure == _TICK_RECORD:
                    ticks += 1
                elif record.procedure == _TASK_RECORD:
                    continue
                elif record.procedure in logged_procedures:
                    count += 1
            tick_counts.append(ticks)
        if _TICK_RECORD in logged_procedures and tick_counts:
            count += min(tick_counts)
        return count

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def schedule_histories(self) -> list[list]:
        """Per-worker recent committed-TE rings (for the E9 validator)."""
        return [
            state["schedule_history"]
            for state in self._broadcast(msg.OP_DSTREAM_STATE, True)
        ]

    def dstream_status(self) -> list[dict[str, Any]]:
        """Raw per-worker streaming state (watermarks, tokens, pending)."""
        return self._broadcast(msg.OP_DSTREAM_STATE)

    def stream_health(self) -> dict[str, Any]:
        """Per-stream watermark lag + per-worker queue depths.

        Watermark lag is the number of dispatched-but-not-yet-applied
        batches on a cross-worker stream: the producer's ordering token
        (``stream_seq``) minus the consumer's watermark.  At quiescence
        every lag is zero — a persistent nonzero lag means a consumer is
        falling behind its producer, the streaming half of the skew signal.
        With metrics on, every registry export reads it afresh as the
        ``stream.watermark_lag{stream=}``, ``stream.outbound_depth{worker=}``
        and ``stream.pending_tes{worker=}`` gauges.
        """
        states = self.dstream_status()
        produced: dict[str, int] = {}
        applied: dict[str, int] = {}
        for state in states:
            for stream_name, token in state["stream_seq"].items():
                produced[stream_name] = max(produced.get(stream_name, 0), token)
            for stream_name, watermark in state["watermarks"].items():
                applied[stream_name] = max(applied.get(stream_name, 0), watermark)
        streams = {
            stream_name: {
                "produced": token,
                "applied": applied.get(stream_name, 0),
                "lag": token - applied.get(stream_name, 0),
            }
            for stream_name, token in sorted(produced.items())
        }
        workers = {
            state["worker_id"]: {
                "outbound_depth": state["outbound"],
                "pending_tes": state["pending_tes"],
            }
            for state in states
        }
        return {"streams": streams, "workers": workers}

    def _read_stream_health(self) -> list:
        """Export rows: the ``stream_health()`` report as gauges."""
        from repro.obs.metrics import Gauge, reading

        health = self.stream_health()
        rows = [
            reading(
                Gauge("stream.watermark_lag", "dispatched, unapplied batches", info["lag"]),
                stream=stream_name,
            )
            for stream_name, info in health["streams"].items()
        ]
        for wid, info in health["workers"].items():
            for name, help in (
                ("outbound_depth", "undelivered cross-worker dispatches"),
                ("pending_tes", "scheduled-but-unexecuted TEs"),
            ):
                rows.append(
                    reading(Gauge(f"stream.{name}", help, info[name]), worker=str(wid))
                )
        return rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        alive = sum(1 for worker in self.workers if worker.alive)
        return (
            f"DStreamEngine(workers={len(self.workers)}, alive={alive}, "
            f"workflows={sorted(self.workflows)})"
        )
