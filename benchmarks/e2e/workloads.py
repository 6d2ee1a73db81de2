"""The five workloads.  Each takes a ``Config`` and returns an ``Outcome``.

Every phase is a fixed op count, scaled from ``--seconds`` (counts were
sized at the seed commit so that the measured phases of a ``--seconds 10``
run take about ten seconds on the 2-core reference box).  A count, unlike a
duration, makes snapshot positions, log bytes and counters repeat exactly.

Untraced runs (``trace=False``) produce the end-to-end metrics.  Traced runs
produce the per-layer metrics at about one-third counts: an untraced pass
for counters and direct timings, then the same ops again under the span
recorder; the difference between the two is ``load.trace_overhead_pct``.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import apps
import loadgen
import proc
import spans as spanlib
from loadgen import chunk_rates, percentile, quiet_percentile, quiet_quartile

from repro.core.engine import SStoreEngine
from repro.dstream.engine import DStreamEngine
from repro.errors import ServerBusyError
from repro.net.client import NetClient
from repro.obs.config import ObsConfig

WARMUP_OPS = 1000
SETUP_REPEATS = 3
#: restore until this many runs or this much time, whichever comes first
RECOVERY_REPEATS = 3
RECOVERY_BUDGET_S = 2.5
CONNECTIONS = min(2, os.cpu_count() or 1)
CLOSED_DEPTH = 16  # per connection
#: the open loop's reference rate, about a fifth of voter-net's capacity.
#: At twice this the server is half busy, where queueing turns an 18 % slower
#: box into 45 % more latency, and run-to-run spread went past every bound.
REFERENCE_RATE = 500.0
HIGH_RATE = 2000.0
LATENCY_LIMIT_MS = 20.0
#: an open loop whose generator ran later than this (p99) measured itself
MAX_LATENESS_MS = 5.0

perf = time.perf_counter


@dataclass
class Config:
    seed: int
    seconds: float
    trace: bool
    rundir: proc.RunDir

    def count(self, per_ten_seconds: int) -> int:
        """An op count for this run: linear in --seconds, a third when traced."""
        scaled = per_ten_seconds * self.seconds / 10.0
        return max(1, round(scaled / 3 if self.trace else scaled))


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = samples

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


class OpLog:
    """Service time and completion instant of each call made through it."""

    def __init__(self) -> None:
        self.latency_ms: list[float] = []
        self.done_s: list[float] = []

    def timed(self, call: Callable, *args: Any) -> Any:
        start = perf()
        result = call(*args)
        end = perf()
        self.latency_ms.append((end - start) * 1e3)
        self.done_s.append(end)
        return result


def dir_bytes(path: str) -> int:
    return sum(f.stat().st_size for f in pathlib.Path(path).rglob("*") if f.is_file())


def snapshot_sizes(path: str) -> list[int]:
    return [f.stat().st_size for f in pathlib.Path(path).rglob("snapshots/*.json")]


def timed_setups(build: Callable[[], Any], repeats: int):
    """Set up ``repeats`` times; returns (median seconds, the last one, runs)."""
    times = []
    kept = None
    for _ in range(repeats):
        start = perf()
        kept = build()
        times.append(perf() - start)
    return statistics.median(times), kept, len(times)


def timed_recoveries(fresh: Callable[[], Any], directory: str):
    """Restore ``directory`` into fresh engines, up to three times.

    ``fresh`` builds an engine with the schema deployed.  Returns (quickest
    seconds, the last engine, records it replayed, runs): the same bytes are
    replayed each time, so the runs differ only by what else the box was
    doing, and the quickest is the one least disturbed.  The caller shuts
    the returned engine down.
    """
    times: list[float] = []
    engine = None
    replayed = 0
    while len(times) < RECOVERY_REPEATS and sum(times) < RECOVERY_BUDGET_S:
        if engine is not None:
            engine.shutdown()
        engine = fresh()
        start = perf()
        replayed = engine.restore_from_disk(directory)
        times.append(perf() - start)
    return min(times), engine, replayed, len(times)


def put_end_to_end(out: Outcome, *, setup: tuple[float, int], tps: float, chunks: int,
                   latency_ms: list[float], chunk: int, cpu_s: float, ops: int,
                   rss_mb: float, recovery: tuple[float, int], directory: str,
                   logged_ops: int) -> None:
    """The end-to-end metrics of an in-process workload."""
    out.put("setup_s", *setup)
    out.put("tps", tps, chunks)
    out.put("p50_ms", quiet_percentile(latency_ms, chunk, 50), len(latency_ms))
    out.put("p95_ms", quiet_percentile(latency_ms, chunk, 95), len(latency_ms))
    out.put("cpu_ms_per_op", 1e3 * cpu_s / ops, ops)
    out.put("peak_rss_mb", rss_mb)
    out.put("recovery_s", *recovery)
    out.put("log_bytes_per_op", dir_bytes(directory) / logged_ops, logged_ops)


def put_log_metrics(out: Outcome, directory: str, call_ms: list[float],
                    recovery_s: float, replayed: int) -> None:
    """What the durability dir and the restore say about ``hstore.log``."""
    sizes = snapshot_sizes(directory)
    out.put("hstore.log.snapshot_bytes", statistics.mean(sizes) if sizes else 0, len(sizes))
    out.put("hstore.log.snapshot_stall_max_ms", max(call_ms), len(call_ms))
    out.put("hstore.log.replay_us_per_record", 1e6 * recovery_s / max(1, replayed), replayed)


def counter_metrics(out: Outcome, delta: dict[str, int], ops: int) -> None:
    """The exact per-op counters every engine keeps (``engine.stats``)."""
    get = lambda name: delta.get(name, 0)  # noqa: E731
    lookups = get("plan_cache_hits") + get("plan_cache_misses")
    out.put("hstore.sql.stmts_per_op", get("ee_statements") / ops)
    out.put(
        "hstore.sql.plan_cache_hit_ratio",
        get("plan_cache_hits") / lookups if lookups else 0.0,
        lookups,
    )
    out.put("hstore.sql.vector_scans", get("vector_scans") / ops)
    out.put("hstore.sql.vector_fallbacks", get("vector_runtime_fallbacks") / ops)
    out.put("hstore.sql.point_lookups", get("point_lookups") / ops)
    out.put("core.te_per_op", get("txns_committed") / ops)
    out.put(
        "core.trigger_fires_per_op",
        (get("ee_trigger_firings") + get("pe_trigger_firings")) / ops,
    )
    out.put("core.window_slides_per_op", get("window_slides") / ops)
    out.put("core.gc_per_op", get("gc_passes") / ops)
    out.put("ivm.deltas_per_op", get("ivm_deltas_applied") / ops)
    out.put("ivm.repairs_per_1k", 1000.0 * get("ivm_repairs") / ops)
    out.put("parallel.ipc_per_op", get("ipc_roundtrips") / ops)


#: per-layer timing <- (span name, "duration" or "self"), over spans in the phase
SPAN_METRICS = {
    "net.client.call_us": ("net.client.call", "duration"),
    "net.server.hop_us": ("net.client.call", "self"),
    "net.protocol.encode_us": ("net.protocol.encode", "duration"),
    "net.protocol.decode_us": ("net.protocol.decode", "duration"),
    "hstore.log.flush_us": ("hstore.log.flush", "duration"),
    "hstore.log.append_us": ("hstore.log.append", "self"),
    "core.ingest_us": ("core.ingest", "duration"),
    "core.tick_us": ("core.tick", "duration"),
    "parallel.rpc_us": ("parallel.rpc", "duration"),
    "dstream.ingest_us": ("dstream.ingest", "duration"),
}


def span_metrics(out: Outcome, trace_dir: str, traced_tps: float, untraced_tps: float):
    """Fold the dumped spans into the per-layer timings and the table."""
    all_spans = spanlib.load(trace_dir)
    analysis = spanlib.analyse(all_spans)

    def put_median(metric: str, spans: list, name: str, of: str, scale: float = 1.0):
        values = spanlib.values_us(spans, name, of)
        out.put(metric, statistics.median(values) * scale if values else 0.0, len(values))

    for metric, (span_name, of) in SPAN_METRICS.items():
        put_median(metric, analysis["inside"], span_name, of)
    # snapshots are rare, and parse and plan happen at deployment outside
    # any phase, so these three take every span of the run
    put_median("hstore.log.snapshot_ms", all_spans, "hstore.log.snapshot", "duration", 1e-3)
    put_median("hstore.sql.parse_us", all_spans, "hstore.sql.parse", "duration")
    put_median("hstore.sql.plan_us", all_spans, "hstore.sql.plan", "duration")
    out.put("load.unattributed_pct", analysis["unattributed_pct"])
    out.put(
        "load.trace_overhead_pct",
        100.0 * (untraced_tps / traced_tps - 1.0) if traced_tps else 0.0,
    )
    out.check(
        abs(analysis["sum_pct"] - 100.0) <= 5.0,
        f"span self times sum to {analysis['sum_pct']:.1f}% of the root",
    )
    out.notes.append(spanlib.format_table(analysis))


# ---------------------------------------------------------------------------
# voter-inproc
# ---------------------------------------------------------------------------


def _voter_engine(directory: str, obs: ObsConfig | None = None) -> SStoreEngine:
    engine = SStoreEngine(snapshot_interval=apps.VOTER_SNAPSHOT_INTERVAL, obs=obs)
    apps.deploy_voter(engine)
    engine.enable_durability(directory, fsync_log=False)
    return engine


def _ingest_all(engine: Any, rows: list[tuple], log: OpLog | None = None) -> int:
    """One vote per ingest; returns how many calls did not accept one row."""
    bad = 0
    ingest = engine.ingest
    if log is None:
        for row in rows:
            bad += ingest("votes_in", [row]) != 1
    else:
        timed = log.timed
        for row in rows:
            bad += timed(ingest, "votes_in", [row]) != 1
    return bad


def _fresh_voter(kind: str = "sstore") -> Any:
    if kind == "dstream":
        engine = DStreamEngine(2, snapshot_interval=apps.VOTER_SNAPSHOT_INTERVAL)
    else:
        engine = SStoreEngine(snapshot_interval=apps.VOTER_SNAPSHOT_INTERVAL)
    apps.deploy_voter(engine)
    return engine


def voter_inproc(cfg: Config) -> Outcome:
    out = Outcome()
    votes = cfg.count(30_000)
    rows = apps.voter_rows(cfg.seed, WARMUP_OPS + votes)
    measured = rows[WARMUP_OPS:]
    chunk = apps.VOTER_SNAPSHOT_INTERVAL  # so every chunk holds one snapshot

    def build() -> tuple[SStoreEngine, str]:
        directory = cfg.rundir.subdir("inproc")
        engine = _voter_engine(directory)
        out.failed += _ingest_all(engine, rows[:WARMUP_OPS])
        return engine, directory

    setup_s, (engine, directory), setups = timed_setups(
        build, 1 if cfg.trace else SETUP_REPEATS
    )
    before = engine.stats.snapshot()
    log = OpLog()
    cpu = time.process_time()
    start = perf()
    out.failed += _ingest_all(engine, measured, log)
    wall = perf() - start
    cpu = time.process_time() - cpu
    rss = proc.peak_rss_mb(os.getpid())
    delta = engine.stats.delta(before)
    out.attempted = votes
    rates = chunk_rates(log.done_s, start, chunk)
    untraced_tps = quiet_quartile(rates, "higher")

    live = apps.dump_state(engine.execute_sql, apps.VOTER_STATE_SQL)
    out.check(live == apps.season_voter_model(rows), "state differs from the model")
    recovery_s, recovered, replayed, recoveries = timed_recoveries(_fresh_voter, directory)
    out.check(
        apps.dump_state(recovered.execute_sql, apps.VOTER_STATE_SQL) == live,
        "recovered state differs from the live state",
    )

    if not cfg.trace:
        put_end_to_end(
            out, setup=(setup_s, setups), tps=untraced_tps, chunks=len(rates),
            latency_ms=log.latency_ms, chunk=chunk, cpu_s=cpu, ops=votes, rss_mb=rss,
            recovery=(recovery_s, recoveries), directory=directory, logged_ops=len(rows),
        )
        out.notes.append(f"overall {votes / wall:.0f} votes/s; replayed {replayed}")
        return out

    counter_metrics(out, delta, votes)
    put_log_metrics(out, directory, log.latency_ms, recovery_s, replayed)

    # what default-on observability would cost: the same votes with ObsConfig()
    observed = _voter_engine(cfg.rundir.subdir("obs"), ObsConfig())
    _ingest_all(observed, rows[:WARMUP_OPS])
    obs_log = OpLog()
    obs_start = perf()
    _ingest_all(observed, measured, obs_log)
    obs_tps = quiet_quartile(chunk_rates(obs_log.done_s, obs_start, chunk), "higher")
    out.put("obs.overhead_pct", 100.0 * (untraced_tps / obs_tps - 1.0))

    trace_dir = cfg.rundir.subdir("trace")
    recorder = spanlib.install(trace_dir)
    try:
        traced = _voter_engine(cfg.rundir.subdir("traced"))
        _ingest_all(traced, rows[:WARMUP_OPS])
        traced_log = OpLog()
        with recorder.phase():
            traced_start = perf()
            _ingest_all(traced, measured, traced_log)
    finally:
        recorder.uninstall()
    recorder.dump()
    traced_tps = quiet_quartile(
        chunk_rates(traced_log.done_s, traced_start, chunk), "higher"
    )
    span_metrics(out, trace_dir, traced_tps, untraced_tps)
    return out


# ---------------------------------------------------------------------------
# voter-net and voter-net-cluster
# ---------------------------------------------------------------------------


def _is_busy(exc: Exception) -> bool:
    return isinstance(exc, ServerBusyError)


class NetRig:
    """One SUT child plus the load generator's connections to it."""

    def __init__(self, cfg: Config, kind: str, trace_dir: str | None = None):
        self.directory = cfg.rundir.subdir(kind)
        self.sut = cfg.rundir.spawn(kind, self.directory, trace_dir)
        self.clients: list[NetClient] = []

    async def connect(self) -> None:
        for _ in range(CONNECTIONS):
            self.clients.append(await NetClient.connect("127.0.0.1", self.sut.port))

    async def send(self, index: int, row: tuple) -> bool:
        client = self.clients[index % len(self.clients)]
        return await client.ingest("votes_in", [row]) == 1

    async def state(self) -> dict[str, list[tuple]]:
        dumped = {}
        for name, sql in apps.VOTER_STATE_SQL.items():
            dumped[name] = list((await self.clients[0].execute_sql(sql)).rows)
        return dumped

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients.clear()


async def _net_setup(cfg: Config, kind: str, warm_rows: list[tuple], out: Outcome,
                     trace_dir: str | None = None) -> NetRig:
    rig = NetRig(cfg, kind, trace_dir)
    await rig.connect()
    warm = await loadgen.closed_loop(
        rig.send, warm_rows, CONNECTIONS * CLOSED_DEPTH, _is_busy
    )
    out.failed += warm.failed + warm.busy
    return rig


def _check_phase(out: Outcome, phase: loadgen.Phase, busy_fails: bool = True) -> None:
    """Every request answered exactly once; count the phase's failures."""
    acked = len(phase.done_s)
    out.check(
        acked + phase.failed + phase.busy == phase.attempted,
        f"{phase.attempted} sent, {acked} acked, {phase.failed + phase.busy} failed",
    )
    out.attempted += phase.attempted
    out.failed += phase.failed + (phase.busy if busy_fails else 0)


DEPTH = CONNECTIONS * CLOSED_DEPTH
NET_CLOSED_CHUNK = 500  # acks per throughput chunk
NET_OPEN_CHUNK = 250    # requests per latency chunk: a p95 with 12 beyond it


async def _voter_net_end_to_end(cfg: Config, kind: str, closed_votes: int) -> Outcome:
    out = Outcome()
    n_closed, n_open = cfg.count(closed_votes), cfg.count(3_000)
    rows = apps.voter_rows(cfg.seed, WARMUP_OPS + n_closed + n_open)

    times, rig = [], None
    for _ in range(SETUP_REPEATS):
        if rig is not None:
            await rig.close()
            rig.sut.kill()
        start = perf()
        rig = await _net_setup(cfg, kind, rows[:WARMUP_OPS], out)
        times.append(perf() - start)
    out.put("setup_s", statistics.median(times), len(times))

    cpu = rig.sut.cpu_seconds()
    closed = await loadgen.closed_loop(
        rig.send, rows[WARMUP_OPS : WARMUP_OPS + n_closed], DEPTH, _is_busy
    )
    opened = await loadgen.open_loop(
        rig.send, rows[WARMUP_OPS + n_closed :], REFERENCE_RATE, _is_busy
    )
    cpu = rig.sut.cpu_seconds() - cpu
    _check_phase(out, closed)
    _check_phase(out, opened)
    rates = chunk_rates(closed.done_s, closed.start_s, NET_CLOSED_CHUNK)
    out.put("tps", quiet_quartile(rates, "higher"), len(rates))
    out.put("p50_ms", quiet_percentile(opened.latency_ms, NET_OPEN_CHUNK, 50),
            len(opened.latency_ms))
    out.put("p95_ms", quiet_percentile(opened.latency_ms, NET_OPEN_CHUNK, 95),
            len(opened.latency_ms))
    out.put("cpu_ms_per_op", 1e3 * cpu / (n_closed + n_open), n_closed + n_open)
    out.put("peak_rss_mb", rig.sut.peak_rss_mb(), len(rig.sut.pids()))
    lateness = percentile(sorted(opened.lateness_ms), 99)
    if lateness > MAX_LATENESS_MS:
        out.notes.append(f"INVALID: the generator ran {lateness:.1f} ms late (p99)")
    out.notes.append(
        f"closed loop {n_closed / closed.wall_s:.0f} votes/s overall at {DEPTH} in "
        f"flight; open loop {REFERENCE_RATE:.0f}/s: lateness p99 {lateness:.2f} ms, "
        f"backlog at end {opened.backlog_end}, "
        f"p99 {percentile(sorted(opened.latency_ms), 99):.1f} ms"
    )

    # read state over the wire, SIGKILL, restore, compare: acked => durable
    before_kill = await rig.state()
    total, rejected, _ = before_kill["election_stats"][0]
    out.check(total + rejected == len(rows), f"{total}+{rejected} votes for {len(rows)} rows")
    await rig.close()
    rig.sut.kill()
    recovery_s, recovered, replayed, runs = timed_recoveries(
        lambda: _fresh_voter(kind), rig.directory
    )
    try:
        after_restore = apps.dump_state(recovered.execute_sql, apps.VOTER_STATE_SQL)
    finally:
        recovered.shutdown()  # a cluster's workers
    out.check(after_restore == before_kill, "state after restore differs from state acked")
    out.put("recovery_s", recovery_s, runs)
    out.put("log_bytes_per_op", dir_bytes(rig.directory) / len(rows), len(rows))
    out.notes.append(f"replayed {replayed} records after SIGKILL")
    return out


async def _voter_net_layers(cfg: Config, kind: str) -> Outcome:
    """An untraced SUT for counters, tails and the high rate; then the spans."""
    out = Outcome()
    n_deep, n_flat = cfg.count(9_000), cfg.count(4_500)
    n_ref, n_high = cfg.count(4_500), cfg.count(12_000)
    # the traced SUT warms up far enough that one snapshot falls in its phase
    traced_warm = max(WARMUP_OPS, apps.VOTER_SNAPSHOT_INTERVAL - n_flat // 2)
    rows = apps.voter_rows(
        cfg.seed,
        max(WARMUP_OPS + n_deep + n_flat + n_ref + n_high, traced_warm + n_flat),
    )
    rig = await _net_setup(cfg, kind, rows[:WARMUP_OPS], out)
    cursor = WARMUP_OPS

    def take(count: int) -> list[tuple]:
        nonlocal cursor
        cursor += count
        return rows[cursor - count : cursor]

    pings = []
    for _ in range(cfg.count(1_500)):
        start = perf()
        await rig.clients[0].ping()
        pings.append((perf() - start) * 1e6)
    out.put("net.client.ping_us", statistics.median(pings), len(pings))

    before = await rig.clients[0].stats()
    cpu_before = rig.sut.cpu_by_pid()
    deep = await loadgen.closed_loop(rig.send, take(n_deep), DEPTH, _is_busy)
    cpu_after = rig.sut.cpu_by_pid()
    after = await rig.clients[0].stats()
    _check_phase(out, deep)
    server = {k: after["server"][k] - before["server"][k] for k in before["server"]}
    engine = {
        k: after["engine"].get(k, 0) - before["engine"].get(k, 0) for k in after["engine"]
    }
    # (the deltas hold one stats scrape beside the votes: one request in 3 000)
    out.put("net.protocol.bytes_per_op",
            (server["bytes_in"] + server["bytes_out"]) / n_deep, n_deep)
    out.put("net.server.reqs_per_batch", n_deep / max(1, server["batches"]),
            server["batches"])
    # a cluster's flushes happen in its workers, so the server counts none
    flushes = server["log_flushes"] or engine.get("log_flushes", 0)
    out.put("net.server.reqs_per_flush", n_deep / max(1, flushes), flushes)
    counter_metrics(out, engine, n_deep)
    spent = {pid: cpu_after[pid] - cpu_before.get(pid, 0.0) for pid in cpu_after}
    total = sum(spent.values())
    workers = total - spent.get(rig.sut.process.pid, 0.0)
    out.put("parallel.worker_cpu_share", workers / total if total else 0.0)

    flat = await loadgen.closed_loop(rig.send, take(n_flat), 1, _is_busy)
    _check_phase(out, flat)
    untraced_tps = quiet_quartile(
        chunk_rates(flat.done_s, flat.start_s, NET_CLOSED_CHUNK), "higher"
    )

    reference = await loadgen.open_loop(rig.send, take(n_ref), REFERENCE_RATE, _is_busy)
    _check_phase(out, reference)
    ordered = sorted(reference.latency_ms)
    out.put("load.lateness_p99_ms", percentile(sorted(reference.lateness_ms), 99), n_ref)
    out.put("load.backlog_end", reference.backlog_end)
    out.put("load.p99_ms", percentile(ordered, 99), len(ordered))
    out.put("load.max_ms", ordered[-1] if ordered else 0.0, len(ordered))
    out.put("hstore.log.snapshot_stall_max_ms", ordered[-1] if ordered else 0.0, len(ordered))

    before = await rig.clients[0].stats()
    high = await loadgen.open_loop(rig.send, take(n_high), HIGH_RATE, _is_busy)
    after = await rig.clients[0].stats()
    # refusals at the high rate are the admission controller working, so
    # they go to busy_ratio and not to the failure count
    _check_phase(out, high, busy_fails=False)
    ordered_high = sorted(high.latency_ms)
    out.put("load.hi_p50_ms", percentile(ordered_high, 50), len(ordered_high))
    out.put("load.hi_p95_ms", percentile(ordered_high, 95), len(ordered_high))
    rejected = after["server"]["busy_rejected"] - before["server"]["busy_rejected"]
    out.put("net.server.busy_ratio", rejected / n_high, n_high)

    def sustained(phase: loadgen.Phase, rate: float) -> bool:
        tail = sorted(phase.latency_ms)
        return (
            bool(tail)
            and percentile(tail, 95) <= LATENCY_LIMIT_MS
            and phase.backlog_end <= rate * LATENCY_LIMIT_MS / 1e3
            and not phase.busy
        )

    out.put("load.rate_ok_tps", max(
        [0.0]
        + [REFERENCE_RATE] * sustained(reference, REFERENCE_RATE)
        + [HIGH_RATE] * sustained(high, HIGH_RATE)
    ))
    sizes = snapshot_sizes(rig.directory)
    out.put("hstore.log.snapshot_bytes", statistics.mean(sizes) if sizes else 0, len(sizes))
    await rig.close()
    rig.sut.kill()

    trace_dir = cfg.rundir.subdir("trace")
    recorder = spanlib.install(trace_dir)
    try:
        rig = await _net_setup(cfg, kind, rows[:traced_warm], out, trace_dir)
        with recorder.phase():
            traced = await loadgen.closed_loop(
                rig.send, rows[traced_warm : traced_warm + n_flat], 1, _is_busy
            )
        _check_phase(out, traced)
        await rig.close()
    finally:
        recorder.uninstall()
    rig.sut.stop_gracefully()
    recorder.dump()
    traced_tps = quiet_quartile(
        chunk_rates(traced.done_s, traced.start_s, NET_CLOSED_CHUNK), "higher"
    )
    span_metrics(out, trace_dir, traced_tps, untraced_tps)
    health = pathlib.Path(trace_dir, "stream_health.json")
    if health.exists():
        out.put("dstream.lag_max", json.loads(health.read_text())["lag_max"])
    return out


def _voter_net(cfg: Config, kind: str, closed_votes: int) -> Outcome:
    if cfg.trace:
        return asyncio.run(_voter_net_layers(cfg, kind))
    return asyncio.run(_voter_net_end_to_end(cfg, kind, closed_votes))


def voter_net(cfg: Config) -> Outcome:
    return _voter_net(cfg, "sstore", 12_000)


def voter_net_cluster(cfg: Config) -> Outcome:
    return _voter_net(cfg, "dstream", 7_000)


# ---------------------------------------------------------------------------
# bikeshare-inproc
# ---------------------------------------------------------------------------

BIKE_WARMUP_TICKS = 300     # ~850 engine calls, and past the theft at tick 60
BIKE_SNAPSHOT_EVERY = 1000  # ticks; the last one 500 ticks before the end
BIKE_CHUNK = 250


def _bike_engine(directory: str, seed: int):
    # the harness snapshots by tick: the log grows by a seed-dependent number
    # of records per tick, and an interval in records would put the last
    # snapshot (so the replay length) somewhere else for every seed
    engine = SStoreEngine()
    app, sim = apps.build_bikeshare(engine, seed)
    engine.enable_durability(directory, fsync_log=False)
    return engine, app, sim


def _run_ticks(sim, engine, ticks: int, log: OpLog) -> None:
    for remaining in range(ticks, 0, -1):
        log.timed(sim.run, 1)
        if remaining % BIKE_SNAPSHOT_EVERY == 500:
            engine.take_snapshot()


def _bike_ops(delta: dict[str, int], ticks: int) -> int:
    """Engine calls plus the tuples they carried.

    Every ingest, call_procedure and execute_sql is one client round trip;
    advance_time is not counted there, and there is one per tick.  A tick's
    cost follows the GPS fixes in it, and how many bikes are out differs by
    seed: per call the cost moves 8 % between seeds, per call-or-tuple 3 %.
    """
    return delta["client_pe_roundtrips"] + ticks + delta["stream_tuples_ingested"]


def _fresh_bike(seed: int) -> SStoreEngine:
    engine = SStoreEngine()
    apps.build_bikeshare(engine, seed)
    return engine


def bikeshare_inproc(cfg: Config) -> Outcome:
    out = Outcome()
    ticks = cfg.count(3_250)
    warm_reports = []

    def build():
        directory = cfg.rundir.subdir("bike")
        engine, app, sim = _bike_engine(directory, cfg.seed)
        sim.run(BIKE_WARMUP_TICKS)
        report = sim.report
        warm_reports.append((report.checkouts, report.returns, report.gps_fixes))
        return engine, app, sim, directory

    setup_s, (engine, app, sim, directory), setups = timed_setups(
        build, 1 if cfg.trace else SETUP_REPEATS
    )
    out.check(len(set(warm_reports)) == 1, f"same seed, different runs: {warm_reports}")

    calls: list[tuple[float, bool]] = []
    if cfg.trace:
        inner = engine.call_procedure

        def call_procedure(name, *params):
            start = perf()
            result = inner(name, *params)
            calls.append(((perf() - start) * 1e6, result.success))
            return result

        engine.call_procedure = call_procedure

    before = engine.stats.snapshot()
    log = OpLog()
    cpu = time.process_time()
    start = perf()
    _run_ticks(sim, engine, ticks, log)
    wall = perf() - start
    cpu = time.process_time() - cpu
    rss = proc.peak_rss_mb(os.getpid())
    delta = engine.stats.delta(before)
    ops = _bike_ops(delta, ticks)
    out.attempted = ops
    # ticks do unequal numbers of ops, so rate the chunks in ticks and
    # convert with the exact ops-per-tick of this run
    tick_rates = chunk_rates(log.done_s, start, BIKE_CHUNK)
    untraced_tps = quiet_quartile(tick_rates, "higher") * ops / ticks

    for problem in apps.bikeshare_violations(app, sim.report):
        out.check(False, problem)
    live = apps.dump_state(engine.execute_sql, apps.BIKE_STATE_SQL)
    recovery_s, recovered, replayed, recoveries = timed_recoveries(
        lambda: _fresh_bike(cfg.seed), directory
    )
    out.check(
        apps.dump_state(recovered.execute_sql, apps.BIKE_STATE_SQL) == live,
        "recovered state differs from the live state",
    )

    if not cfg.trace:
        put_end_to_end(
            out, setup=(setup_s, setups), tps=untraced_tps, chunks=len(tick_rates),
            latency_ms=log.latency_ms, chunk=BIKE_CHUNK, cpu_s=cpu, ops=ops, rss_mb=rss,
            recovery=(recovery_s, recoveries), directory=directory, logged_ops=ops,
        )
        out.notes.append(
            f"{ticks} ticks, {ticks / wall:.0f} ticks/s overall, {ops} calls and tuples; "
            f"replayed {replayed}"
        )
        return out

    counter_metrics(out, delta, ops)
    committed = [us for us, ok in calls if ok]
    aborted = [us for us, ok in calls if not ok]
    out.put("hstore.txn.call_us", statistics.median(committed), len(committed))
    out.put("hstore.txn.abort_us", statistics.median(aborted) if aborted else 0, len(aborted))
    out.put("hstore.txn.abort_ratio", len(aborted) / max(1, len(calls)), len(calls))
    put_log_metrics(out, directory, log.latency_ms, recovery_s, replayed)

    trace_dir = cfg.rundir.subdir("trace")
    recorder = spanlib.install(trace_dir)
    try:
        t_engine, _app, t_sim = _bike_engine(cfg.rundir.subdir("traced"), cfg.seed)
        t_sim.run(BIKE_WARMUP_TICKS)
        traced_log = OpLog()
        with recorder.phase():
            traced_start = perf()
            _run_ticks(t_sim, t_engine, ticks, traced_log)
    finally:
        recorder.uninstall()
    recorder.dump()
    traced_tps = quiet_quartile(
        chunk_rates(traced_log.done_s, traced_start, BIKE_CHUNK), "higher"
    ) * ops / ticks
    span_metrics(out, trace_dir, traced_tps, untraced_tps)
    return out


# ---------------------------------------------------------------------------
# analytics-churn
# ---------------------------------------------------------------------------

ROUND_OPS = 100          # of each kind, per round
ANALYTICS_SNAPSHOT_INTERVAL = 20_000
LOAD_BATCH = 50
CHECK_EVERY = 20
ROUNDS_PER_CHUNK = 10
SCANS_PER_CHUNK = 20


def _fresh_analytics() -> SStoreEngine:
    # Voter's interval would checkpoint this 30 000-row table every five
    # rounds and spend a third of the run serialising it
    engine = SStoreEngine(snapshot_interval=ANALYTICS_SNAPSHOT_INTERVAL)
    apps.deploy_analytics(engine)
    return engine


def _analytics_engine(directory: str):
    """Schema, 30 000 history rows and a full window, all through the log."""
    engine = _fresh_analytics()
    engine.enable_durability(directory, fsync_log=False)
    placeholders = ",".join(["(?,?,?,?,?,?)"] * LOAD_BATCH)
    insert = f"INSERT INTO ride_history VALUES {placeholders}"
    for first in range(0, apps.HISTORY_ROWS, LOAD_BATCH):
        params = [v for i in range(first, first + LOAD_BATCH) for v in apps.history_row(i)]
        engine.execute_sql(insert, *params)
    fill = [(i, i % apps.GROUPS, i % 17) for i in range(apps.WINDOW_ROWS)]
    for first in range(0, apps.WINDOW_ROWS, LOAD_BATCH):
        engine.ingest("feed", fill[first : first + LOAD_BATCH])
    return engine


class Churn:
    """The round generator, its shadow copy and its timings."""

    INSERT = "INSERT INTO ride_history VALUES (?,?,?,?,?,?)"
    UPDATE = "UPDATE ride_history SET fare = ? WHERE ride_id = ?"
    DELETE = "DELETE FROM ride_history WHERE ride_id = ?"
    SELECT = "SELECT fare FROM ride_history WHERE ride_id = ?"

    def __init__(self, engine: SStoreEngine, seed: int, out: Outcome) -> None:
        import random

        self.engine = engine
        self.rng = random.Random(seed)
        self.out = out
        self.shadow = {i: apps.history_row(i) for i in range(apps.HISTORY_ROWS)}
        self.live = list(self.shadow)          # ids, for O(1) random picks
        self.next_id = apps.HISTORY_ROWS
        self.window = [(i, i % apps.GROUPS, i % 17) for i in range(apps.WINDOW_ROWS)]
        self.seq = apps.WINDOW_ROWS
        self.ops = 0
        self.all = OpLog()
        self.by_kind: dict[str, list[float]] = {
            k: [] for k in ("insert", "update", "delete", "select", "ingest", "scan",
                            "rescan", "view")
        }

    def _run(self, kind: str, call: Callable, *args: Any) -> Any:
        result = self.all.timed(call, *args)
        self.by_kind[kind].append(self.all.latency_ms[-1])
        self.ops += 1
        return result

    def _pick(self) -> int:
        slot = self.rng.randrange(len(self.live))
        return self.live[slot]

    def round(self, number: int, rescan: bool) -> None:
        sql, rng, shadow = self.engine.execute_sql, self.rng, self.shadow
        for _ in range(ROUND_OPS):
            row = apps.history_row(self.next_id)
            self.out.failed += self._run("insert", sql, self.INSERT, *row) != 1
            shadow[self.next_id] = row
            self.live.append(self.next_id)
            self.next_id += 1
        for _ in range(ROUND_OPS):
            key = self._pick()
            fare = round(rng.uniform(1.0, 9.0), 2)
            self.out.failed += self._run("update", sql, self.UPDATE, fare, key) != 1
            shadow[key] = shadow[key][:4] + (fare,) + shadow[key][5:]
        for _ in range(ROUND_OPS):
            slot = rng.randrange(len(self.live))
            key = self.live[slot]
            self.live[slot] = self.live[-1]
            self.live.pop()
            self.out.failed += self._run("delete", sql, self.DELETE, key) != 1
            del shadow[key]
        for _ in range(ROUND_OPS):
            key = self._pick()
            got = self._run("select", sql, self.SELECT, key).scalar()
            self.out.failed += got != shadow[key][4]
        for _ in range(ROUND_OPS):
            tup = (self.seq, rng.randrange(apps.GROUPS), rng.randrange(1000))
            self.out.failed += self._run("ingest", self.engine.ingest, "feed", [tup]) != 1
            self.window.append(tup)
            self.seq += 1
        del self.window[: -apps.WINDOW_ROWS]
        which = number % len(apps.SCAN_QUERIES)
        scanned = self._run("scan", sql, apps.SCAN_QUERIES[which]).rows
        if rescan:  # the same scan again at once: the mirror is in sync now
            self._run("rescan", sql, apps.SCAN_QUERIES[which])
        viewed = self._run("view", sql, apps.VIEW_QUERY).rows
        if number % CHECK_EVERY == 0:
            ok = apps.rows_match(scanned, apps.scan_reference(shadow, which))
            ok = apps.rows_match(viewed, apps.view_reference(self.window)) and ok
            self.out.failed += not ok
            self.out.check(ok, f"round {number}: scan or view differs from the shadow")


def _churn_setup(cfg: Config, out: Outcome, label: str) -> tuple[Churn, str]:
    directory = cfg.rundir.subdir(label)
    churn = Churn(_analytics_engine(directory), cfg.seed, out)
    for warm in range(WARMUP_OPS // (5 * ROUND_OPS)):
        churn.round(warm + 1, rescan=False)  # +1: no shadow check while warming
    churn.all, churn.ops = OpLog(), 0
    for samples in churn.by_kind.values():
        samples.clear()
    return churn, directory


def _churn_rounds(churn: Churn, rounds: int, rescan: bool) -> tuple[float, list[float]]:
    """Run the measured rounds; returns (start, end of each round)."""
    ends = []
    start = perf()
    for number in range(rounds):
        churn.round(number, rescan)
        ends.append(perf())
    return start, ends


def analytics_churn(cfg: Config) -> Outcome:
    out = Outcome()
    rounds = cfg.count(200)
    setup_s, (churn, directory), setups = timed_setups(
        lambda: _churn_setup(cfg, out, "churn"), 1 if cfg.trace else SETUP_REPEATS
    )
    engine = churn.engine
    before = engine.stats.snapshot()
    cpu = time.process_time()
    start, round_ends = _churn_rounds(churn, rounds, rescan=cfg.trace)
    cpu = time.process_time() - cpu
    rss = proc.peak_rss_mb(os.getpid())
    delta = engine.stats.delta(before)
    ops = churn.ops
    out.attempted = ops
    # a round is a fixed number of ops, so rate the rounds
    round_rates = chunk_rates(round_ends, start, ROUNDS_PER_CHUNK)
    untraced_tps = quiet_quartile(round_rates, "higher") * ops / rounds

    live = apps.dump_state(engine.execute_sql, apps.ANALYTICS_STATE_SQL)
    out.check(
        live["ride_history"] == [churn.shadow[k] for k in sorted(churn.shadow)],
        "ride_history differs from the shadow",
    )
    recovery_s, recovered, replayed, recoveries = timed_recoveries(
        _fresh_analytics, directory
    )
    out.check(
        apps.dump_state(recovered.execute_sql, apps.ANALYTICS_STATE_SQL) == live,
        "recovered state differs from the live state",
    )

    kind = churn.by_kind
    if not cfg.trace:
        put_end_to_end(
            out, setup=(setup_s, setups), tps=untraced_tps, chunks=len(round_rates),
            latency_ms=kind["scan"], chunk=SCANS_PER_CHUNK, cpu_s=cpu, ops=ops, rss_mb=rss,
            recovery=(recovery_s, recoveries), directory=directory, logged_ops=ops,
        )
        out.notes.append(f"{rounds} rounds, {ops} ops; replayed {replayed}")
        return out

    counter_metrics(out, delta, ops)
    out.put("hstore.sql.point_us", 1e3 * statistics.median(kind["select"]), len(kind["select"]))
    out.put(
        "hstore.sql.write_us",
        1e3 * statistics.mean(
            statistics.median(kind[k]) for k in ("insert", "update", "delete")
        ),
        3 * len(kind["insert"]),
    )
    out.put("hstore.sql.scan_dirty_ms", statistics.median(kind["scan"]), len(kind["scan"]))
    out.put("hstore.sql.scan_clean_ms", statistics.median(kind["rescan"]), len(kind["rescan"]))
    out.put("ivm.read_us", 1e3 * statistics.median(kind["view"]), len(kind["view"]))
    put_log_metrics(out, directory, churn.all.latency_ms, recovery_s, replayed)

    trace_dir = cfg.rundir.subdir("trace")
    recorder = spanlib.install(trace_dir)
    try:
        traced, _directory = _churn_setup(cfg, out, "traced")
        with recorder.phase():
            t_start, t_ends = _churn_rounds(traced, rounds, rescan=True)
    finally:
        recorder.uninstall()
    recorder.dump()
    traced_tps = (
        quiet_quartile(chunk_rates(t_ends, t_start, ROUNDS_PER_CHUNK), "higher")
        * traced.ops / rounds
    )
    span_metrics(out, trace_dir, traced_tps, untraced_tps)
    return out


WORKLOADS: dict[str, Callable[[Config], Outcome]] = {
    "voter-inproc": voter_inproc,
    "voter-net": voter_net,
    "voter-net-cluster": voter_net_cluster,
    "bikeshare-inproc": bikeshare_inproc,
    "analytics-churn": analytics_churn,
}
