"""``run.py --selftest``: the harness checks itself, with no engine, in < 5 s.

* percentile and chunk statistics on known samples;
* the open-loop scheduler against a fake SUT that stalls once for 50 ms:
  latency must be timed from the due instant (the requests queued behind
  the stall carry its cost), and lateness and backlog must be reported;
* span self-time arithmetic on a hand-built tree, cross-process join
  included;
* every name in ``BENCHMARK.json`` is one the workloads report and the
  reverse, and all of them are well formed.
"""

from __future__ import annotations

import asyncio
import pathlib
import re
import time

import loadgen
import report
import spans

HERE = pathlib.Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_statistics() -> None:
    ordered = list(range(1, 101))
    assert loadgen.percentile(ordered, 50) == 50
    assert loadgen.percentile(ordered, 95) == 95
    assert loadgen.percentile(ordered, 100) == 100
    assert loadgen.percentile([7.0], 95) == 7.0
    assert loadgen.percentile([], 50) == 0.0
    chunks = loadgen.chunked(list(range(25)), 10)
    assert [len(c) for c in chunks] == [10, 15], "a short tail joins the last chunk"
    # disturbed chunks, even most of them, must not move the quiet quartile
    samples = [1.0] * 20 + [100.0] * 30
    assert loadgen.quiet_percentile(samples, 10, 95) == 1.0
    assert loadgen.quiet_quartile([5, 1, 4, 2, 3, 6], "lower") == 2
    assert loadgen.quiet_quartile([5, 1, 4, 2, 3, 6], "higher") == 5
    assert loadgen.quiet_quartile([7.0], "higher") == 7.0
    assert loadgen.chunk_rates([1.0, 2.0, 3.0, 4.0], 0.0, 2) == [1.0, 1.0]
    assert report.spread([10.0] * 10) == 0.0
    q1, median, q3 = report.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, median, q3) == (1.5, 3.0, 4.5)
    assert report.verdict([100.0] * 5, [100.0] * 5, "lower", 0.1) == "same"
    assert report.verdict([100.0] * 5, [120.0] * 5, "lower", 0.1) == "worse"
    assert report.verdict([100.0] * 5, [120.0] * 5, "higher", 0.1) == "better"
    assert report.verdict([80, 90, 100, 110, 120], [100.0] * 5, "lower", 0.1) == "unresolved"


def check_open_loop() -> None:
    """A single-server fake SUT: instant service, but one 50 ms stall."""
    rate, count, stall_at, stall_s, service_s = 500.0, 300, 100, 0.050, 0.0

    async def scenario() -> loadgen.Phase:
        lock = asyncio.Lock()

        async def send(index: int, _item: int) -> bool:
            async with lock:  # one request at a time, in arrival order
                await asyncio.sleep(stall_s if index == stall_at else service_s)
            return True

        return await loadgen.open_loop(send, list(range(count)), rate)

    phase = asyncio.run(scenario())
    assert len(phase.latency_ms) == count and phase.failed == 0
    ordered = sorted(phase.latency_ms)
    # timed from the send instant, only the stalled request would be slow;
    # timed from the due instant, every request queued behind it is
    slow = sum(1 for ms in phase.latency_ms if ms >= 10.0)
    assert slow >= 15, f"only {slow} requests carry the 50 ms stall"
    assert 45.0 <= ordered[-1] <= 120.0, ordered[-1]
    assert loadgen.percentile(ordered, 50) < 10.0
    # the generator itself kept its schedule through the stall
    lateness = loadgen.percentile(sorted(phase.lateness_ms), 99)
    assert lateness < 5.0, f"generator ran {lateness:.1f} ms late"
    assert phase.backlog_end <= 5
    assert abs(phase.wall_s - count / rate) < 0.15

    async def never_acks() -> loadgen.Phase:
        gate = asyncio.Event()

        async def send(_index: int, _item: int) -> bool:
            await gate.wait()
            return True

        async def release() -> None:
            await asyncio.sleep(0.08)
            gate.set()

        releaser = asyncio.ensure_future(release())
        phase = await loadgen.open_loop(send, list(range(50)), 1000.0)
        await releaser
        return phase

    assert asyncio.run(never_acks()).backlog_end == 50, "unacked requests are the backlog"

    async def closed() -> loadgen.Phase:
        async def send(index: int, _item: int) -> bool:
            await asyncio.sleep(0.001)
            if index == 3:
                raise RuntimeError("boom")
            return index != 4  # a wrong result

        return await loadgen.closed_loop(send, list(range(40)), 4)

    phase = asyncio.run(closed())
    assert (len(phase.done_s), phase.failed) == (38, 2)


def check_spans() -> None:
    ms = 1_000_000
    S = spans.Span
    # process 1: the generator.  A phase of 100 ms holding two calls.
    phase = S(1, 0, spans.PHASE, 0, 100 * ms)
    call_a = S(1, 0, "net.client.call", 10 * ms, 40 * ms, rid=1)
    call_b = S(1, 0, "net.client.call", 50 * ms, 90 * ms, rid=2)
    # its own encode ran on the phase's thread, so the stack said "phase"
    encode = S(1, 0, "net.protocol.encode", 11 * ms, 12 * ms, parent=phase, rid=1)
    # process 2: the server.  No explicit parents across the socket.
    ingest = S(2, 1, "core.ingest", 15 * ms, 30 * ms, rid=1)
    append = S(2, 1, "hstore.log.append", 16 * ms, 20 * ms, parent=ingest, rid=1)
    flush = S(2, 1, "hstore.log.flush", 30 * ms, 35 * ms, rid=1)
    # two children of call_b that overlap (two threads): their union counts once
    left = S(2, 0, "net.protocol.decode", 55 * ms, 70 * ms, rid=2)
    right = S(2, 1, "core.ingest", 60 * ms, 80 * ms, rid=2)
    orphan = S(2, 1, "hstore.sql.plan", 200 * ms, 201 * ms)  # set-up, outside
    everything = [phase, call_a, call_b, encode, ingest, append, flush, left, right, orphan]
    analysis = spans.analyse(everything)
    assert encode.parent is call_a and ingest.parent is call_a and flush.parent is call_a
    assert left.parent is call_b and right.parent is call_b and orphan.parent is None
    assert ingest.self_ns == 11 * ms            # 15 - append's 4
    assert call_a.self_ns == (30 - 1 - 15 - 5) * ms
    assert call_b.self_ns == (40 - 25) * ms     # union of 55..70 and 60..80
    assert phase.self_ns == 30 * ms
    rows = {row["name"]: row for row in analysis["rows"]}
    assert "hstore.sql.plan" not in rows
    assert abs(analysis["unattributed_pct"] - 30.0) < 1e-9
    # the overlap is the only double count: 10 ms of 100
    assert abs(analysis["sum_pct"] - 110.0) < 1e-9, analysis["sum_pct"]
    assert analysis["request_id_mismatches"] == 0
    right.rid = 1
    assert spans.analyse(everything)["request_id_mismatches"] == 1
    assert "load.unattributed" in spans.format_table(analysis)


def reported_names() -> tuple[set[str], set[str]]:
    """The metric names ``workloads.py`` reports, read from its source."""
    source = (HERE / "workloads.py").read_text()
    names = set(re.findall(r'put(?:_median)?\(\s*"([^"]+)"', source))
    names |= set(re.findall(r'^    "([a-z_.0-9]+)": \("[a-z_.]+", "[a-z]+"\),$', source, re.M))
    end_to_end = {name for name in names if "." not in name}
    return end_to_end, names - end_to_end


def check_names() -> None:
    spec = report.load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    every = []
    for section in ("workloads", "end_to_end", "per_layer"):
        every += [entry["name"] for entry in spec[section]]
    assert len(every) == len(set(every)), "a name is used twice"
    for name in every:
        assert NAME.match(name), name
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    end_to_end, per_layer = reported_names()
    assert end_to_end == {m["name"] for m in spec["end_to_end"]}, end_to_end
    assert per_layer == {m["name"] for m in spec["per_layer"]}, (
        per_layer ^ {m["name"] for m in spec["per_layer"]}
    )
    source = (HERE / "workloads.py").read_text()
    for workload in spec["workloads"]:
        assert f'"{workload["name"]}":' in source, workload["name"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def main() -> int:
    started = time.perf_counter()
    for check in (check_statistics, check_open_loop, check_spans, check_names):
        check()
        print(f"ok  {check.__name__}")
    print(f"selftest passed in {time.perf_counter() - started:.2f} s")
    return 0
