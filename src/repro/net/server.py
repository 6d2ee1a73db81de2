"""The asyncio TCP server: thousands of clients, one engine, one log.

Architecture (one process, two threads)::

    event-loop thread                      engine thread (1 worker)
    ─────────────────                      ────────────────────────
    accept → read loop ─┐
    accept → read loop ─┼─► commit queue ─► batch: run each request,
    accept → read loop ─┘   (coalescer)      ONE command-log flush
            ▲                                    │
            └── writer loops ◄── responses ◄─────┘  (ack after flush)

* **Framing off the event loop.** Each connection has a read loop feeding a
  :class:`~repro.net.protocol.FrameDecoder`; a malformed frame gets one
  ``RESP_PROTOCOL_ERROR`` frame and the connection is closed.  Malformed
  *semantics* on a well-formed frame (missing field, bad param type) are a
  typed ``RESP_ERROR`` response instead — only framing failures cost the
  connection.

* **Engine affinity.** The engines are not thread-safe, so every engine
  operation — requests, log flushes, stats snapshots, tracer spans — runs
  on a single dedicated executor thread.  That is also what stitches server
  spans to engine txn spans: the tracer is strictly single-threaded, and
  all its use happens on the engine thread, so engine spans nest under the
  server's ``net`` spans.

* **Group commit without timers.** The coalescer drains *everything*
  currently queued into one batch, executes the batch on the engine thread
  and flushes the command log once, then acks every response.  One idle
  client gets a batch of 1 (no added latency); 100 concurrent clients get
  large batches whose log flush is amortized across all of them — batch
  size adapts to load with no tuning knob and no timer.  An acked response
  implies the txn is in the flushed log (acked ⇒ durable).

* **Admission control, two levels.**  Globally, at most ``max_inflight``
  admitted requests exist at once; past that, requests are fast-rejected
  with ``RESP_BUSY`` *without queueing*, which is what keeps p99 bounded
  under overload.  Per connection, at most ``max_pipeline`` responses may
  be pending; past that the read loop stops dispatching *and reading*
  (frames already parsed are held back), so a slow client that stops
  reading its responses exerts TCP backpressure instead of ballooning
  server memory.  ``PING`` is admission-exempt (liveness must work under
  overload); ``STATS`` rides the normal admitted path.

* **Graceful shutdown.** ``stop()`` stops accepting, fast-fails newly
  arriving requests with a shutting-down error, waits for every admitted
  request to execute + flush + write its response, then closes sockets.

* **Telemetry plane.**  A request carrying a ``"trace"`` context is run
  with that context activated, so the client's call span, the server's
  ``net.<op>`` span, the engine/worker txn spans *and* a per-trace
  ``net.commit_batch`` span (the group-commit window the request shared)
  all land in one trace.  Requests *without* client context are head-
  sampled: 1 in ``trace_sample`` roots a server-side trace, the rest run
  with the tracer suspended and cost what an untraced engine costs — which
  is what keeps default-on telemetry cheap while every client-requested
  trace stays complete.  Every request also feeds the
  :class:`~repro.obs.recorder.FlightRecorder` (bounded ring + slow log,
  auto-dumped on errors when ``flight_dir`` is set), and ``http_port``
  mounts a stdlib HTTP sidecar with ``/metrics`` (Prometheus text),
  ``/metrics.json``, ``/healthz``, ``/statsz`` and ``/flight``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.errors import ConnectionClosedError, ProtocolError, ReproError
from repro.hstore.cmdlog import CommandLog
from repro.net import protocol as proto
from repro.obs.http import HttpError, ObsHttpServer
from repro.obs.metrics import Gauge, counter_rows, reading
from repro.obs.recorder import DEFAULT_SLOW_US, FlightRecorder
from repro.obs.trace import NULL_TRACER, TraceCollector, TraceContext, now_us

__all__ = ["NetServer", "main"]


def _json(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"), default=str)

_CLOSE = object()  # writer-loop sentinel: flush what's queued, then exit
_STOP = object()   # coalescer sentinel


class _Connection:
    """Per-connection state shared by the read loop and the writer loop."""

    __slots__ = ("id", "writer", "outbox", "inflight", "resume", "closing", "task")

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter) -> None:
        self.id = conn_id
        self.writer = writer
        #: (bytes | _CLOSE, counts_toward_pipeline) items, written in order
        self.outbox: asyncio.Queue = asyncio.Queue()
        #: dispatched requests whose response has not been written yet
        self.inflight = 0
        #: set by the writer when ``inflight`` drops below the pipeline cap
        self.resume = asyncio.Event()
        self.closing = False
        #: the writer-loop task, awaited on close so queued responses land
        self.task: asyncio.Task | None = None


class _Request:
    __slots__ = (
        "conn",
        "frame_type",
        "payload",
        "submitted",
        "start_us",
        "trace_ctx",
        "trace_id",
        "span_id",
        "ok",
        "error",
    )

    def __init__(
        self,
        conn: _Connection,
        frame_type: int,
        payload: dict[str, Any],
        trace_ctx: TraceContext | None = None,
    ) -> None:
        self.conn = conn
        self.frame_type = frame_type
        self.payload = payload
        #: perf_counter at admission; ``net.request_us`` measures from here
        #: to the commit batch returning, so it includes queueing under load
        #: *and* the group-commit window the ack implies
        self.submitted = time.perf_counter()
        self.start_us = now_us()
        #: the client's ``[trace_id, span_id]`` pair, already validated
        self.trace_ctx = trace_ctx
        #: this request's server-side span, filled in by ``_run_request`` so
        #: the batch runner can hang the shared commit window under it
        self.trace_id: int | None = None
        self.span_id: int | None = None
        #: outcome, filled in by ``_run_request``; the per-request accounting
        #: (flight record, counters, latency histogram) happens on the
        #: event-loop thread afterwards, keeping the engine thread lean
        self.ok = True
        self.error: str | None = None


class NetServer:
    """Serve one engine backend over TCP to many concurrent clients.

    ``engine`` is any of the four backends (``HStoreEngine``,
    ``SStoreEngine``, ``ParallelHStoreEngine``, ``DStreamEngine``) — the
    server only needs ``call_procedure``/``execute_sql`` (and ``ingest``
    for streaming backends) plus an optional ``command_log``.

    ``group_commit_size`` raises the engine's in-process command-log group
    size so individual appends stop auto-flushing and the coalescer's
    per-batch flush is the only durability barrier.  Cluster backends keep
    their own log discipline (``_ClusterCommandLog`` is left alone —
    ``DStreamEngine`` *requires* ``log_group_size=1``); their per-batch
    flush is then a cheap no-op broadcast.
    """

    def __init__(
        self,
        engine: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 256,
        max_pipeline: int = 32,
        max_frame: int = proto.MAX_FRAME_BYTES,
        group_commit_size: int = 64,
        http_port: int | None = None,
        slow_us: float = DEFAULT_SLOW_US,
        flight_dir: str | pathlib.Path | None = None,
        trace_sample: int = 64,
    ) -> None:
        if max_inflight < 1 or max_pipeline < 1:
            raise ReproError("max_inflight and max_pipeline must be >= 1")
        if trace_sample < 1:
            raise ReproError("trace_sample must be >= 1")
        self.engine = engine
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.max_pipeline = max_pipeline
        self.max_frame = max_frame
        self.group_commit_size = group_commit_size

        #: admitted requests not yet answered (global admission budget)
        self.inflight = 0
        #: always-on plain counters (the metrics registry reads them at export)
        self.counters: dict[str, int] = {
            "connections_total": 0,
            "frames_in": 0,
            "frames_out": 0,
            "bytes_in": 0,
            "bytes_out": 0,
            "requests": 0,
            "busy_rejected": 0,
            "protocol_errors": 0,
            "read_pauses": 0,
            "batches": 0,
            "log_flushes": 0,
            "flushed_records": 0,
        }

        self._conns: dict[int, _Connection] = {}
        self._next_conn_id = 0
        self._handlers: set[asyncio.Task] = set()
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._coalescer: asyncio.Task | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-net-engine"
        )
        self._draining = False
        self._drained: asyncio.Event | None = None

        #: always on — recording is one dict append; the span join is lazy
        self.flight = FlightRecorder(slow_us=slow_us)
        self._flight_dir = (
            pathlib.Path(flight_dir) if flight_dir is not None else None
        )
        self._flight_dumps_left = 5  # auto-dump budget; operator dumps are free
        self.http: ObsHttpServer | None = None
        self._http_port = http_port

        #: head-based sampling of *locally rooted* traces: a request that
        #: carries client trace context is always traced (the upstream
        #: sampling decision is honored), a request without one roots a
        #: server-side trace only every ``trace_sample``-th time.  Unsampled
        #: requests run with the tracer suspended, so the engine's spans
        #: skip too — the request costs what an untraced engine costs.
        self.trace_sample = trace_sample
        self._sample_clock = 0

        self._tracer = getattr(engine, "tracer", NULL_TRACER)
        #: stable tracing-on flag for threads other than the engine thread:
        #: ``tracer.enabled`` flickers during sampling suspends, so the
        #: event-loop and HTTP threads must not branch on it directly
        self._tracing = self._tracer.enabled
        metrics = getattr(engine, "metrics", None)
        self._h_request = self._h_batch = None
        if metrics is not None:
            self._h_request = metrics.histogram(
                "net.request_us", "admission-to-commit latency (µs)"
            )
            self._h_batch = metrics.histogram(
                "net.commit_batch", "requests coalesced per commit batch"
            )
            metrics.read(self._read_metrics)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind, start accepting, and start the commit coalescer."""
        log = getattr(self.engine, "command_log", None)
        if isinstance(log, CommandLog) and self.group_commit_size > log.group_size:
            # raise the auto-flush threshold so the coalescer's explicit
            # per-batch flush is the only flush (the group-commit mechanism)
            log.group_size = self.group_commit_size
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._drained = asyncio.Event()
        self._draining = False
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, backlog=2048
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._coalescer = self._loop.create_task(self._commit_loop())
        if self._http_port is not None:
            self.http = ObsHttpServer(
                self._http_routes(), host=self.host, port=self._http_port
            ).start()

    async def stop(self) -> None:
        """Graceful shutdown: drain in-flight txns, then close sockets."""
        if self._server is None:
            return
        if self.http is not None:
            # stop the scrape sidecar first: its engine-hopping routes must
            # not race the executor shutdown below
            self.http.stop()
            self.http = None
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        if self.inflight > 0:
            await self._drained.wait()
        assert self._queue is not None
        self._queue.put_nowait(_STOP)
        if self._coalescer is not None:
            await self._coalescer
        self._executor.shutdown(wait=True)
        # every admitted response is now sitting in an outbox; flush the
        # writers before tearing the sockets down
        for conn in list(self._conns.values()):
            conn.outbox.put_nowait((_CLOSE, False))
            if conn.task is not None:
                try:
                    # a wedged client that never reads could block its
                    # writer in drain() forever; don't let it wedge shutdown
                    await asyncio.wait_for(asyncio.shield(conn.task), timeout=5.0)
                except Exception:
                    conn.task.cancel()
            conn.writer.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._server = None

    # ------------------------------------------------------------------
    # per-connection loops (event-loop thread)
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._draining:
            writer.close()
            return
        self._next_conn_id += 1
        conn = _Connection(self._next_conn_id, writer)
        self._conns[conn.id] = conn
        self._handlers.add(asyncio.current_task())
        self.counters["connections_total"] += 1
        conn.task = asyncio.get_running_loop().create_task(self._writer_loop(conn))
        try:
            await self._read_loop(reader, conn)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            conn.closing = True
            conn.outbox.put_nowait((_CLOSE, False))
            try:
                await conn.task
            except (Exception, asyncio.CancelledError):
                conn.task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._conns.pop(conn.id, None)
            self._handlers.discard(asyncio.current_task())

    async def _read_loop(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> None:
        decoder = proto.FrameDecoder(self.max_frame)
        pending: deque[tuple[int, dict[str, Any]]] = deque()
        while True:
            try:
                while pending and conn.inflight < self.max_pipeline:
                    frame_type, payload = pending.popleft()
                    self._dispatch(conn, frame_type, payload)
            except ProtocolError as exc:
                self._protocol_error(conn, exc)
                return
            if pending:
                # pipeline cap reached with frames still parsed: pause both
                # dispatching and reading until the writer drains responses
                # (conn.inflight only changes inside this event loop, so the
                # check-clear-wait sequence cannot race)
                self.counters["read_pauses"] += 1
                conn.resume.clear()
                await conn.resume.wait()
                if conn.closing:
                    return
                continue
            data = await reader.read(65536)
            if not data:
                return
            self.counters["bytes_in"] += len(data)
            try:
                frames = decoder.feed(data)
            except ProtocolError as exc:
                self._protocol_error(conn, exc)
                return
            self.counters["frames_in"] += len(frames)
            pending.extend(frames)

    def _protocol_error(self, conn: _Connection, exc: ProtocolError) -> None:
        self.counters["protocol_errors"] += 1
        self._send(conn, proto.RESP_PROTOCOL_ERROR, {"message": str(exc)}, counts=False)

    async def _writer_loop(self, conn: _Connection) -> None:
        writer = conn.writer
        try:
            while True:
                items = [await conn.outbox.get()]
                while True:
                    try:
                        items.append(conn.outbox.get_nowait())
                    except asyncio.QueueEmpty:
                        break
                closing = False
                completed = 0
                frames = 0
                chunk = bytearray()
                for data, counts in items:
                    if data is _CLOSE:
                        closing = True
                        break
                    chunk += data
                    frames += 1
                    if counts:
                        completed += 1
                if chunk:
                    writer.write(bytes(chunk))
                    self.counters["bytes_out"] += len(chunk)
                    self.counters["frames_out"] += frames
                    # a slow client blocks here once its socket buffer
                    # fills; inflight stays pinned, so its read loop pauses
                    await writer.drain()
                if completed:
                    conn.inflight -= completed
                    if conn.inflight < self.max_pipeline:
                        conn.resume.set()
                if closing:
                    return
        except (ConnectionResetError, BrokenPipeError, OSError):
            return
        finally:
            # the peer may be gone with the read loop paused at the
            # pipeline cap — wake it so the handler can finish
            conn.closing = True
            conn.resume.set()

    # ------------------------------------------------------------------
    # dispatch + admission control (event-loop thread)
    # ------------------------------------------------------------------

    def _dispatch(
        self, conn: _Connection, frame_type: int, payload: dict[str, Any]
    ) -> None:
        rid = payload.get("id")
        if rid is None:
            raise ProtocolError(
                f"request frame {proto.frame_name(frame_type)!r} has no 'id'"
            )
        if frame_type == proto.REQ_PING:
            # admission-exempt liveness probe: answered inline, even when
            # the engine is saturated
            self._send(
                conn,
                proto.RESP_PONG,
                {"id": rid, "echo": payload.get("echo")},
                counts=False,
            )
            return
        if self._draining:
            error = proto.dump_error(
                ConnectionClosedError("server is shutting down"),
                where=f"net conn {conn.id}",
            )
            self._send(
                conn, proto.RESP_ERROR, {"id": rid, "error": error}, counts=False
            )
            return
        if self.inflight >= self.max_inflight:
            # fast-reject: the request is NOT queued and NOT executed, so
            # overload cannot build an unbounded backlog (bounded p99)
            self.counters["busy_rejected"] += 1
            self._send(conn, proto.RESP_BUSY, {"id": rid}, counts=False)
            return
        self.inflight += 1
        conn.inflight += 1
        trace_ctx = None
        if self._tracing:
            # advisory field: malformed values are dropped, not rejected
            trace = payload.get("trace")
            if (
                isinstance(trace, list)
                and len(trace) == 2
                and all(isinstance(part, int) and part >= 0 for part in trace)
            ):
                trace_ctx = TraceContext(trace[0], trace[1])
        assert self._queue is not None
        self._queue.put_nowait(_Request(conn, frame_type, payload, trace_ctx))

    def _send(
        self, conn: _Connection, frame_type: int, payload: dict[str, Any], counts: bool
    ) -> None:
        self._send_bytes(
            conn,
            proto.encode_frame(frame_type, payload, max_frame=self.max_frame),
            counts,
        )

    def _send_bytes(self, conn: _Connection, data: bytes, counts: bool) -> None:
        if conn.closing:
            return
        conn.outbox.put_nowait((data, counts))

    # ------------------------------------------------------------------
    # commit coalescer (event-loop thread) + batch runner (engine thread)
    # ------------------------------------------------------------------

    async def _commit_loop(self) -> None:
        assert self._queue is not None and self._loop is not None
        stop = False
        while not stop:
            item = await self._queue.get()
            if item is _STOP:
                break
            batch = [item]
            while True:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP:
                    stop = True
                    break
                batch.append(nxt)
            try:
                responses = await self._loop.run_in_executor(
                    self._executor, self._run_batch, batch
                )
            except Exception as exc:  # engine thread died — answer anyway
                responses = []
                for req in batch:
                    error = proto.dump_error(
                        exc, where=f"net conn {req.conn.id}, commit batch"
                    )
                    responses.append(
                        (
                            req.conn,
                            proto.encode_frame(
                                proto.RESP_ERROR,
                                {"id": req.payload.get("id"), "error": error},
                                max_frame=self.max_frame,
                            ),
                        )
                    )
                self.flight.record(
                    kind="batch",
                    name=f"{len(batch)} request(s)",
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
                self._auto_dump("crash")
            else:
                self._account_batch(batch)
            for conn, data in responses:
                self._send_bytes(conn, data, counts=True)
            self.inflight -= len(batch)
            if self._draining and self.inflight == 0:
                assert self._drained is not None
                self._drained.set()

    def _account_batch(self, batch: list[_Request]) -> None:
        """Per-request accounting, deliberately OFF the engine thread.

        The engine thread is the partition executor — the scarce resource —
        so the flight record, request counter, and latency histogram are
        written here on the event-loop thread, after the commit batch
        returns and before the responses go out (a client that has its
        response is guaranteed to find its flight record).  Measured from
        admission to commit-batch return, ``net.request_us`` covers the
        group-commit window the ack implies.
        """
        self.counters["requests"] += len(batch)
        perf = time.perf_counter()
        for req in batch:
            duration_us = (perf - req.submitted) * 1e6
            if self._h_request is not None:
                self._h_request.observe(duration_us)
            payload = req.payload
            self.flight.record(
                kind=proto.frame_name(req.frame_type),
                name=payload.get("proc")
                or payload.get("stream")
                or payload.get("sql"),
                conn=req.conn.id,
                trace_id=req.trace_id,
                start_us=req.start_us,
                duration_us=duration_us,
                ok=req.ok,
                error=req.error,
            )
            if not req.ok:
                self._auto_dump("error")

    def _run_batch(
        self, batch: list[_Request]
    ) -> list[tuple[_Connection, bytes]]:
        """Execute one coalesced batch on the engine thread, flush once."""
        self.counters["batches"] += 1
        out = []
        if not self._tracing:
            for req in batch:
                out.append((req.conn, self._run_request(req)))
            self._flush_log()
        else:
            # the batch is shared by requests from *different* traces, so it
            # cannot be one stack-nested span; run the requests, then record
            # one out-of-band commit-window span per distinct trace
            batch_start = now_us()
            for req in batch:
                out.append((req.conn, self._run_request(req)))
            flush_start = now_us()
            flushed = self._flush_log()
            batch_end = now_us()
            self._record_batch_spans(batch, batch_start, flush_start, batch_end, flushed)
        if self._h_batch is not None:
            self._h_batch.observe(len(batch))
        return out

    def _flush_log(self) -> int:
        """The group-commit barrier: one log flush for the whole batch."""
        log = getattr(self.engine, "command_log", None)
        if log is not None and getattr(log, "enabled", False):
            flushed = log.flush()
            if flushed:
                self.counters["log_flushes"] += 1
                self.counters["flushed_records"] += flushed
            return flushed
        return 0

    def _record_batch_spans(
        self,
        batch: list[_Request],
        start_us: int,
        flush_start_us: int,
        end_us: int,
        flushed: int,
    ) -> None:
        """One ``net.commit_batch`` span per distinct trace in the batch.

        Every request in the batch shared the same commit window (its ack
        implies the shared flush), so each trace gets the full-window span,
        parented under that request's server span.
        """
        seen: set[int] = set()
        for req in batch:
            if req.span_id is None or req.trace_id in seen:
                continue
            seen.add(req.trace_id)
            self._tracer.record_span(
                "net",
                "net.commit_batch",
                trace_id=req.trace_id,
                parent_id=req.span_id,
                start_us=start_us,
                end_us=end_us,
                attrs={
                    "requests": len(batch),
                    "flushed_records": flushed,
                    "flush_us": end_us - flush_start_us,
                },
            )

    def _run_request(self, req: _Request) -> bytes:
        """Run one request on the engine thread; always returns a frame."""
        rid = req.payload.get("id")
        name = proto.frame_name(req.frame_type)
        tracer = self._tracer
        suspended = False
        traced = tracer.enabled
        if traced:
            if req.trace_ctx is None:
                # no upstream decision: sample locally rooted traces
                sampled = self._sample_clock % self.trace_sample == 0
                self._sample_clock += 1
                if not sampled:
                    # inline Tracer.suspend() — this runs per unsampled
                    # request, the single hottest telemetry branch
                    tracer.enabled = False
                    suspended = True
                    traced = False
            if traced:
                # adopt the client's context (or clear a predecessor's): the
                # ``net.<op>`` span then roots under the client's call span,
                # and every engine span nests inside it via the tracer stack
                tracer.activate(req.trace_ctx)
        try:
            if traced:
                with tracer.span("net", f"net.{name}", conn=req.conn.id) as span:
                    req.trace_id = span.trace_id
                    req.span_id = span.span_id
                    frame_type, payload = self._execute(req, rid)
            else:
                frame_type, payload = self._execute(req, rid)
            data = proto.encode_frame(frame_type, payload, max_frame=self.max_frame)
        except Exception as exc:
            req.ok = False
            req.error = f"{type(exc).__name__}: {exc}"
            error = proto.dump_error(
                exc, where=f"net conn {req.conn.id}, {name} {req.payload.get('proc') or req.payload.get('sql') or req.payload.get('stream') or ''!r}"
            )
            data = proto.encode_frame(
                proto.RESP_ERROR,
                {"id": rid, "error": error},
                max_frame=self.max_frame,
            )
        finally:
            if traced:
                tracer.deactivate()
            elif suspended:
                tracer.enabled = True  # inline Tracer.resume()
        return data

    def _execute(self, req: _Request, rid: Any) -> tuple[int, dict[str, Any]]:
        payload = req.payload
        engine = self.engine
        if req.frame_type == proto.REQ_CALL:
            proc = payload.get("proc")
            params = payload.get("params", [])
            if not isinstance(proc, str) or not isinstance(params, list):
                raise ProtocolError("call needs a string 'proc' and array 'params'")
            result = engine.call_procedure(proc, *params)
            return proto.RESP_RESULT, {
                "id": rid,
                "success": result.success,
                "data": proto.to_wire(result.data),
                "error": result.error,
                "txn_id": result.txn_id,
                "partition": result.partition,
            }
        if req.frame_type == proto.REQ_SQL:
            sql = payload.get("sql")
            params = payload.get("params", [])
            if not isinstance(sql, str) or not isinstance(params, list):
                raise ProtocolError("sql needs a string 'sql' and array 'params'")
            # statement router: the engines keep DDL on a separate entry
            # point (execute_ddl), so route on the leading keyword the way
            # a real server's statement dispatcher would
            head = sql.split(maxsplit=1)[0].upper() if sql.split() else ""
            if head in ("CREATE", "DROP", "TRUNCATE"):
                engine.execute_ddl(sql)
                result: Any = None
            else:
                result = engine.execute_sql(sql, *params)
            return proto.RESP_RESULT, {"id": rid, "result": proto.to_wire(result)}
        if req.frame_type == proto.REQ_INGEST:
            stream = payload.get("stream")
            rows = payload.get("rows", [])
            if not isinstance(stream, str) or not isinstance(rows, list):
                raise ProtocolError("ingest needs a string 'stream' and array 'rows'")
            ingest = getattr(engine, "ingest", None)
            if ingest is None:
                raise ReproError(
                    f"backend {type(engine).__name__} does not support stream "
                    f"ingest (not a streaming engine)"
                )
            count = ingest(stream, [tuple(row) for row in rows])
            return proto.RESP_RESULT, {"id": rid, "result": count}
        if req.frame_type == proto.REQ_STATS:
            stats = self._stats_payload(flight=bool(payload.get("flight")))
            stats["id"] = rid
            return proto.RESP_STATS, stats
        raise ProtocolError(f"unexpected request frame {proto.frame_name(req.frame_type)!r}")

    def _read_metrics(self) -> list:
        """Export rows: ``net.<counter>`` plus the two live levels."""
        return counter_rows("net", self.counters, "network front door counter") + [
            reading(Gauge("net.connections", "open client connections", len(self._conns))),
            reading(
                Gauge("net.inflight", "admitted requests awaiting a response", self.inflight)
            ),
        ]

    def server_stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = dict(self.counters)
        stats["connections_open"] = len(self._conns)
        stats["inflight"] = self.inflight
        stats["max_inflight"] = self.max_inflight
        stats["max_pipeline"] = self.max_pipeline
        stats["group_commit_size"] = self.group_commit_size
        return stats

    # ------------------------------------------------------------------
    # telemetry plane: stats scrape, flight recorder, HTTP sidecar
    # ------------------------------------------------------------------

    def _stats_payload(self, *, flight: bool = False) -> dict[str, Any]:
        """The full observability scrape.  Engine thread only."""
        stats = self.engine.stats  # cluster backends broadcast here
        snap = stats.snapshot() if hasattr(stats, "snapshot") else dict(stats)
        metrics = getattr(self.engine, "metrics", None)
        telemetry: dict[str, Any] = {"flight": self.flight.summary()}
        if metrics is not None:
            skew = getattr(self.engine, "partition_skew", None)
            if skew is not None:
                telemetry["partition_skew"] = skew()
            health = getattr(self.engine, "stream_health", None)
            if health is not None:
                telemetry["stream_health"] = health()
        out: dict[str, Any] = {
            "server": self.server_stats(),
            "engine": snap,
            "metrics": metrics.to_json() if metrics is not None else None,
            "telemetry": telemetry,
        }
        if flight:
            out["flight_records"] = self.flight.to_payload(
                collector=self._collector()
            )
        return out

    def _collector(self) -> TraceCollector | None:
        return self._tracer.collector if self._tracing else None

    def _auto_dump(self, reason: str) -> None:
        """Bounded error/crash flight dump (operator dumps don't count)."""
        if self._flight_dir is None or self._flight_dumps_left <= 0:
            return
        self._flight_dumps_left -= 1
        try:
            seq = 5 - self._flight_dumps_left
            self.flight.dump(
                self._flight_dir / f"flight-{reason}-{seq:02d}.jsonl",
                collector=self._collector(),
                reason=reason,
            )
        except OSError:
            pass  # a full disk must not take the data path down with it

    def _hop(self, fn: Callable[[], Any], timeout: float = 5.0) -> Any:
        """Run ``fn`` on the engine thread (routes must not touch it directly)."""
        return self._executor.submit(fn).result(timeout)

    def _http_routes(self) -> dict[str, Any]:
        def metrics_registry() -> Any:
            registry = getattr(self.engine, "metrics", None)
            if registry is None:
                raise HttpError(
                    404, "metrics are off; start the server with --obs"
                )
            return registry

        def metrics_text() -> tuple[str, str]:
            registry = metrics_registry()
            return (
                "text/plain; version=0.0.4; charset=utf-8",
                self._hop(registry.to_prometheus),
            )

        def metrics_json() -> tuple[str, str]:
            registry = metrics_registry()
            return "application/json", _json(self._hop(registry.to_json))

        def healthz() -> tuple[str, str]:
            # answered from plain counters, never hops to the engine: the
            # liveness probe must work even when the engine is wedged
            return "application/json", _json(
                {
                    "ok": True,
                    "draining": self._draining,
                    "inflight": self.inflight,
                    "connections": len(self._conns),
                }
            )

        def statsz() -> tuple[str, str]:
            return "application/json", _json(self._hop(self._stats_payload))

        def flight() -> tuple[str, str]:
            records = self._hop(
                lambda: self.flight.to_payload(collector=self._collector())
            )
            return "application/json", _json(
                {"flight": self.flight.summary(), "records": records}
            )

        return {
            "/metrics": metrics_text,
            "/metrics.json": metrics_json,
            "/healthz": healthz,
            "/statsz": statsz,
            "/flight": flight,
        }


# ---------------------------------------------------------------------------
# CLI: python -m repro.net.server
# ---------------------------------------------------------------------------


def _build_engine(args: argparse.Namespace) -> Any:
    obs = None
    if args.obs:
        from repro.obs.config import ObsConfig

        obs = ObsConfig(tracing=True, metrics=True)
    durability = not args.no_durability
    if args.backend == "hstore":
        from repro.hstore.engine import HStoreEngine

        return HStoreEngine(command_logging=durability, obs=obs)
    if args.backend == "sstore":
        from repro.core.engine import SStoreEngine

        return SStoreEngine(command_logging=durability, obs=obs)
    if args.backend == "parallel":
        from repro.parallel.engine import ParallelHStoreEngine

        return ParallelHStoreEngine(
            args.workers,
            log_group_size=args.group_commit,
            command_logging=durability,
            obs=obs,
        )
    if args.backend == "dstream":
        from repro.dstream.engine import DStreamEngine

        return DStreamEngine(
            args.workers, command_logging=durability, obs=obs
        )
    raise ReproError(f"unknown backend {args.backend!r}")


async def _serve(engine: Any, args: argparse.Namespace) -> None:
    server = NetServer(
        engine,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_pipeline=args.max_pipeline,
        group_commit_size=args.group_commit,
        http_port=args.http_port,
        slow_us=args.slow_us,
        flight_dir=args.flight_dir,
        trace_sample=args.trace_sample,
    )
    await server.start()
    if not args.quiet:
        print(
            f"repro.net: serving {args.backend} on {server.host}:{server.port} "
            f"(max_inflight={server.max_inflight}, "
            f"group_commit={server.group_commit_size})",
            flush=True,
        )
        if server.http is not None:
            print(
                f"repro.net: telemetry at {server.http.url}/metrics "
                f"(/metrics.json /healthz /statsz /flight)",
                flush=True,
            )
    try:
        await asyncio.Event().wait()
    finally:
        await server.stop()
        engine.shutdown()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.server",
        description="Serve a repro engine over TCP with the repro.net protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7077, help="0 picks a free port")
    parser.add_argument(
        "--backend",
        choices=("hstore", "sstore", "parallel", "dstream"),
        default="sstore",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="cluster size (parallel/dstream)"
    )
    parser.add_argument(
        "--group-commit",
        type=int,
        default=64,
        help="group-commit batch ceiling (command-log group size)",
    )
    parser.add_argument("--max-inflight", type=int, default=256)
    parser.add_argument("--max-pipeline", type=int, default=32)
    parser.add_argument(
        "--no-durability", action="store_true", help="disable command logging"
    )
    parser.add_argument(
        "--obs", action="store_true", help="enable repro.obs tracing + metrics"
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="mount the HTTP telemetry sidecar on this port (0 picks a free one)",
    )
    parser.add_argument(
        "--slow-us",
        type=float,
        default=DEFAULT_SLOW_US,
        help="flight-recorder slow-request threshold in microseconds",
    )
    parser.add_argument(
        "--flight-dir",
        default=None,
        help="auto-dump flight-recorder JSONL here on errors/crashes",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=64,
        help="root a server-side trace for 1 in N requests that carry no "
        "client trace context (client-traced requests are always traced)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    engine = _build_engine(args)
    try:
        asyncio.run(_serve(engine, args))
    except KeyboardInterrupt:
        if not args.quiet:
            print("repro.net: interrupted — stopped", flush=True)


if __name__ == "__main__":
    main()
