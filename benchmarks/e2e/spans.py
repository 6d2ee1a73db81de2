"""The benchmark's own span recorder: wrap, record, dump, join, attribute.

The program is not edited.  ``install`` replaces the public entry points of
each layer with wrappers that note ``(name, start, end, parent, request id)``
on ``time.perf_counter_ns`` — one system-wide monotonic clock, so spans from
the load generator, the server and its forked workers share a time line.
Spans stay in memory until ``dump`` writes one JSONL file per process.

Joining: inside one thread the wrapper knows its parent (a stack).  Across
threads and processes a span hangs under the innermost span that contains
it in time, which is exact when one request is in flight — the reason the
traced run is a depth-1 closed loop.  The wire request id rides along and
``analyse`` counts the spans whose id disagrees with the request they landed
under, as a check on the join.

A span's name is ``<layer>.<what>``; its layer is the name minus the last
component.  Self time is duration minus the time its children cover.

The analysis half (``Span``, ``link``, ``self_times``, ``analyse``) imports
nothing of the program, so the selftest can run it on a hand-built tree.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from loadgen import percentile

now_ns = time.perf_counter_ns

PHASE = "load.phase"


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


class Recorder:
    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        #: id of the request this process is working on (set from the wire)
        self.rid: int | None = None
        self._local = threading.local()
        self._threads: list[list] = []
        self._lock = threading.Lock()
        self._rpc_started: dict[tuple[int, int], tuple[int, int]] = {}
        self._undo: list[tuple[Any, str, Any]] = []

    def _mine(self) -> tuple[list, list]:
        """This thread's (spans, stack)."""
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
            return local.spans, local.stack

    def forget(self) -> None:
        """Drop what a forked child inherited from its parent."""
        self._threads.clear()
        self._local = threading.local()
        self._rpc_started.clear()

    @contextlib.contextmanager
    def phase(self):
        """The root span of a measured phase, opened by the load generator."""
        spans, stack = self._mine()
        slot = len(spans)
        spans.append(None)
        stack.append((PHASE, slot))
        start = now_ns()
        try:
            yield
        finally:
            end = now_ns()
            stack.pop()
            spans[slot] = (PHASE, start, end, -1, None)

    def wrap(self, func: Callable, name: str, after: Callable | None = None) -> Callable:
        """A recording stand-in for the synchronous ``func``.

        A call made while a span of the same name is open on this thread
        (``super()`` chains, recursion) runs unrecorded: it is the same
        entry point, entered once.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            spans, stack = recorder._mine()
            if stack and stack[-1][0] == name:
                return func(*args, **kwargs)
            parent = stack[-1][1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append((name, slot))
            start = now_ns()
            try:
                result = func(*args, **kwargs)
                if after is not None:
                    after(recorder, result)
                return result
            finally:
                end = now_ns()
                stack.pop()
                spans[slot] = (name, start, end, parent, recorder.rid)

        wrapper.__wrapped__ = func
        return wrapper

    def patch(self, owner: Any, attr: str, name: str, after: Callable | None = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self) -> str:
        """Write this process's spans; the file is named after its pid."""
        pid = os.getpid()
        path = pathlib.Path(self.out_dir, f"spans-{pid}.jsonl")
        with self._lock:
            threads = list(self._threads)
        with path.open("w") as out:
            offset = 0
            for tid, spans in enumerate(threads):
                for record in spans:
                    if record is None:  # still open when the process stopped
                        record = ("open", 0, 0, -1, None)
                    name, start, end, parent, rid = record
                    out.write(json.dumps([
                        pid, tid, name, start, end,
                        parent + offset if parent >= 0 else -1, rid,
                    ]) + "\n")
                offset += len(spans)
        return str(path)


def install(out_dir: str) -> Recorder:
    """Wrap every layer's entry points.  Call before building an engine."""
    import sys

    from repro.core.engine import SStoreEngine
    from repro.dstream.engine import DStreamEngine
    from repro.hstore import parser
    from repro.hstore.cmdlog import CommandLog
    from repro.hstore.durability import DurabilityDirectory
    from repro.hstore.engine import HStoreEngine
    from repro.hstore.planner import Planner
    from repro.net import client as net_client
    from repro.net import protocol
    from repro.parallel import worker as parallel_worker

    recorder = Recorder(out_dir)
    patch = recorder.patch

    # net: the client call is a coroutine and the one span that pipelining
    # would interleave, so it is recorded flat (no stack), as a thread root
    original_request = net_client.NetClient.request

    async def traced_request(self, frame_type, payload):
        spans, _stack = recorder._mine()
        recorder.rid = rid = self._next_id + 1
        start = now_ns()
        try:
            return await original_request(self, frame_type, payload)
        finally:
            spans.append(("net.client.call", start, now_ns(), -1, rid))

    recorder._undo.append((net_client.NetClient, "request", original_request))
    net_client.NetClient.request = traced_request

    def note_request_id(rec: Recorder, frames: list) -> None:
        if frames:
            rec.rid = frames[-1][1].get("id")

    patch(protocol, "encode_frame", "net.protocol.encode")
    patch(protocol.FrameDecoder, "feed", "net.protocol.decode", note_request_id)
    patch(protocol, "to_wire", "net.protocol.to_wire")
    patch(net_client, "from_wire", "net.protocol.from_wire")

    # engine entry points (a subclass override and its base share one name)
    patch(SStoreEngine, "ingest", "core.ingest")
    patch(SStoreEngine, "advance_time", "core.tick")
    patch(DStreamEngine, "ingest", "dstream.ingest")
    for engine_class in (HStoreEngine, SStoreEngine):
        patch(engine_class, "call_procedure", "hstore.txn.call")
        patch(engine_class, "take_snapshot", "hstore.log.snapshot")
    patch(HStoreEngine, "execute_sql", "hstore.sql.execute")
    patch(HStoreEngine, "restore_from_disk", "hstore.log.restore")
    patch(CommandLog, "append", "hstore.log.append")
    patch(CommandLog, "flush", "hstore.log.flush")
    patch(DurabilityDirectory, "append_log_records", "hstore.log.disk_append")
    patch(DurabilityDirectory, "write_snapshot", "hstore.log.snapshot_write")
    patch(Planner, "plan", "hstore.sql.plan")

    # ``parse`` is imported by name, so every module holding it is patched
    original_parse = parser.parse
    traced_parse = recorder.wrap(original_parse, "hstore.sql.parse")
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro.") and (
            module.__dict__.get("parse") is original_parse
        ):
            recorder._undo.append((module, "parse", original_parse))
            module.parse = traced_parse

    # parallel: one span from posting a request to taking its reply
    original_send = parallel_worker.PartitionWorker.send
    original_recv = parallel_worker.PartitionWorker.recv

    def traced_send(self, op, payload=None, trace_ctx=None):
        start = now_ns()
        seq = original_send(self, op, payload, trace_ctx)
        _spans, stack = recorder._mine()
        parent = stack[-1][1] if stack else -1
        recorder._rpc_started[(id(self), seq)] = (start, parent)
        return seq

    def traced_recv(self, expect_seq):
        try:
            return original_recv(self, expect_seq)
        finally:
            started = recorder._rpc_started.pop((id(self), expect_seq), None)
            if started is not None:
                spans, _stack = recorder._mine()
                spans.append(
                    ("parallel.rpc", started[0], now_ns(), started[1], recorder.rid)
                )

    recorder._undo.append((parallel_worker.PartitionWorker, "send", original_send))
    recorder._undo.append((parallel_worker.PartitionWorker, "recv", original_recv))
    parallel_worker.PartitionWorker.send = traced_send
    parallel_worker.PartitionWorker.recv = traced_recv

    # a forked worker inherits the wrappers; make it write its spans on exit
    original_main = parallel_worker._worker_main

    def traced_worker_main(config, inbox, outbox):
        recorder.forget()
        try:
            original_main(config, inbox, outbox)
        finally:
            recorder.dump()

    recorder._undo.append((parallel_worker, "_worker_main", original_main))
    parallel_worker._worker_main = traced_worker_main
    return recorder


# ---------------------------------------------------------------------------
# analysis (no imports from the program)
# ---------------------------------------------------------------------------


@dataclass
class Span:
    pid: int
    tid: int
    name: str
    start: int
    end: int
    parent: "Span | None" = None
    rid: int | None = None
    children: list["Span"] = field(default_factory=list)
    self_ns: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.rsplit(".", 1)[0]


def load(trace_dir: str) -> list[Span]:
    spans: list[Span] = []
    for path in sorted(pathlib.Path(trace_dir).glob("spans-*.jsonl")):
        mine: list[Span] = []
        parents: list[int] = []
        with path.open() as lines:
            for line in lines:
                pid, tid, name, start, end, parent, rid = json.loads(line)
                mine.append(Span(pid, tid, name, start, end, rid=rid))
                parents.append(parent)
        for span, parent in zip(mine, parents):
            if parent >= 0:
                span.parent = mine[parent]
        spans.extend(span for span in mine if span.name != "open")
    return spans


def link(spans: list[Span]) -> None:
    """Give every parentless span the innermost span that contains it.

    One sweep in start order; ``active`` holds the spans still open at the
    sweep point.  Equal intervals resolve to the one sorted first, so the
    result is a forest.  A span the stack put directly under the phase root
    is placed again: the generator's own frames run on the thread that holds
    the phase open, inside a client call the stack does not know of.
    """
    order = sorted(spans, key=lambda s: (s.start, -s.end))
    active: list[Span] = []
    for span in order:
        active = [other for other in active if other.end >= span.start]
        floating = span.parent is None or span.parent.name == PHASE
        if floating and span.name != PHASE:
            holder = None
            for other in active:
                if other.end >= span.end and (
                    holder is None or other.duration < holder.duration
                ):
                    holder = other
            span.parent = holder
        active.append(span)
    for span in spans:
        span.children = []
    for span in spans:
        if span.parent is not None:
            span.parent.children.append(span)


def covered(span: Span) -> int:
    """Length of the part of ``span`` its children cover (their union)."""
    total = 0
    reach = span.start
    for child in sorted(span.children, key=lambda c: c.start):
        start = max(child.start, reach)
        end = min(child.end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> None:
    for span in spans:
        span.self_ns = span.duration - covered(span)


def under_phase(spans: list[Span]) -> list[Span]:
    """The spans that descend from a phase root (the roots included)."""
    kept = []
    for span in spans:
        top = span
        while top.parent is not None:
            top = top.parent
        if top.name == PHASE:
            kept.append(span)
    return kept


def analyse(spans: list[Span]) -> dict[str, Any]:
    """Link, attribute, and fold into the per-name self-time table."""
    link(spans)
    self_times(spans)
    inside = under_phase(spans)
    root_ns = sum(s.duration for s in inside if s.name == PHASE)
    by_name: dict[str, list[Span]] = {}
    for span in inside:
        by_name.setdefault(span.name, []).append(span)
    rows = []
    for name, group in sorted(by_name.items()):
        selfs = sorted(s.self_ns / 1e3 for s in group)
        total = sum(s.self_ns for s in group)
        rows.append({
            "name": name,
            "layer": group[0].layer,
            "count": len(group),
            "self_p50_us": percentile(selfs, 50),
            "self_p95_us": percentile(selfs, 95),
            "pct_of_root": 100.0 * total / root_ns if root_ns else 0.0,
        })
    mismatched = 0
    for span in inside:
        if span.rid is None or span.name == "net.client.call":
            continue
        top = span.parent
        while top is not None and top.name != "net.client.call":
            top = top.parent
        if top is not None and top.rid != span.rid:
            mismatched += 1
    return {
        "rows": rows,
        "inside": inside,
        "root_ms": root_ns / 1e6,
        "sum_pct": sum(row["pct_of_root"] for row in rows),
        "unattributed_pct": next(
            (row["pct_of_root"] for row in rows if row["name"] == PHASE), 0.0
        ),
        "request_id_mismatches": mismatched,
        "spans": len(inside),
    }


def values_us(spans: list[Span], name: str, of: str = "duration") -> list[float]:
    """Durations (or self times, after ``analyse``) of the spans named ``name``."""
    return [
        (s.self_ns if of == "self" else s.duration) / 1e3 for s in spans if s.name == name
    ]


def format_table(analysis: dict[str, Any]) -> str:
    lines = [
        f"{'span':<28}{'count':>8}{'self p50 us':>14}{'self p95 us':>14}{'% of root':>11}"
    ]
    for row in analysis["rows"]:
        label = "load.unattributed" if row["name"] == PHASE else row["name"]
        lines.append(
            f"{label:<28}{row['count']:>8}{row['self_p50_us']:>14.1f}"
            f"{row['self_p95_us']:>14.1f}{row['pct_of_root']:>11.2f}"
        )
    lines.append(
        f"{'sum':<28}{analysis['spans']:>8}{'':>14}{'':>14}{analysis['sum_pct']:>11.2f}"
        f"   (root {analysis['root_ms']:.1f} ms, "
        f"{analysis['request_id_mismatches']} request-id mismatches)"
    )
    return "\n".join(lines)
