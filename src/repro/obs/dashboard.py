"""Live terminal dashboard over an instrumented engine run.

``python -m repro.obs.dashboard`` deploys one of the demo applications
(Voter or BikeShare) on an instrumented engine, drives its workload, and
redraws an operator's view a few times a second:

* throughput — committed txns/s and stream tuples ingested/s, from
  ``EngineStats`` deltas between frames;
* latency — per-procedure p50/p95/p99 out of the ``txn_latency_us`` /
  ``call_latency_us`` histograms in the engine's metrics registry;
* layer-crossing round trips (client↔PE, PE↔EE, coordinator↔worker IPC);
* queue depths — pending stream TEs and per-stream buffered tuples on the
  streaming engine, or per-worker committed counts on the process cluster;
* an application panel (Voter leaderboard / BikeShare station occupancy);
* the tracer's span count, so a viewer can see the trace growing live.

``--engine net`` needs no engine at all: the dashboard polls a remote
:class:`~repro.net.server.NetServer`'s HTTP telemetry sidecar
(``--url http://host:port``, the ``/statsz`` route) and renders the same
operator view — plus the partition-skew and stream-lag panels — from the
scrape, so one terminal can watch a server running anywhere.

Everything is stdlib: the "TUI" is an ANSI clear-screen redraw (suppress
with ``--plain``, which appends frames instead — that is also what the
``make obs`` smoke test and CI use, since neither has a tty worth clearing).

``--export-trace`` / ``--export-chrome`` / ``--export-metrics`` write the
run's trace (JSONL / Chrome ``trace_event``) and metrics (JSON) on exit, so
a two-second smoke run doubles as the artifact generator for CI.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable

from repro.obs.config import ObsConfig

CLEAR = "\x1b[2J\x1b[H"

#: how much workload one step() feeds before the next redraw
VOTER_CHUNK = 120
BIKESHARE_TICKS = 4


# ---------------------------------------------------------------------------
# Drivers: one per (app, engine) combination
# ---------------------------------------------------------------------------


class VoterSStoreDriver:
    """Voter on the streaming engine: ingest → trigger chain per batch."""

    name = "voter @ sstore"

    def __init__(self, obs: ObsConfig, seed: int, workers: int) -> None:
        from repro.apps.voter.sstore_app import VoterSStoreApp
        from repro.apps.voter.workload import VoterWorkload
        from repro.core.engine import SStoreEngine

        self.engine = SStoreEngine(obs=obs)
        self.app = VoterSStoreApp(self.engine, batch_size=4)
        self._requests = VoterWorkload(seed=seed).generate(500_000)
        self._cursor = 0

    def step(self) -> None:
        chunk = self._requests[self._cursor : self._cursor + VOTER_CHUNK]
        self._cursor += len(chunk)
        if chunk:
            self.app.submit(chunk, ingest_chunk=4)

    def queue_lines(self) -> list[str]:
        status = self.engine.workflow_status()
        lines = [f"pending TEs: {status['pending_tes']}"]
        for name, info in sorted(status["streams"].items()):
            lines.append(
                f"stream {name:<18} live={info['live_tuples']:<5}"
                f" buffered={info['buffered']}"
            )
        return lines

    def app_lines(self) -> list[str]:
        top = self.app.leaderboards()["top"]
        return ["top contestants:"] + [
            f"  #{number}  {name:<12} {votes} votes"
            for number, name, votes in top
        ]

    def shutdown(self) -> None:
        self.engine.shutdown()


class VoterParallelDriver:
    """Voter on the process cluster: client-chained SPs over N workers."""

    name = "voter @ parallel"

    def __init__(self, obs: ObsConfig, seed: int, workers: int) -> None:
        from repro.apps.voter.hstore_app import VoterHStoreApp
        from repro.apps.voter.workload import VoterWorkload
        from repro.parallel.engine import ParallelHStoreEngine

        self.engine = ParallelHStoreEngine(workers=workers, obs=obs)
        self.app = VoterHStoreApp(self.engine)
        self._requests = VoterWorkload(seed=seed).generate(500_000)
        self._cursor = 0

    def step(self) -> None:
        chunk = self._requests[self._cursor : self._cursor + VOTER_CHUNK]
        self._cursor += len(chunk)
        if chunk:
            self.app.run_sequential(chunk)

    def queue_lines(self) -> list[str]:
        return [
            f"worker {stats_snapshot['_worker']}:"
            f" committed={stats_snapshot['txns_committed']:<6}"
            f" ee_stmts={stats_snapshot['ee_statements']}"
            for stats_snapshot in (
                dict(stats.snapshot(), _worker=wid)
                for wid, stats in enumerate(self.engine.worker_stats())
            )
        ]

    def app_lines(self) -> list[str]:
        # grouped/ordered SQL is not scatter-gatherable, so merge the
        # partitions' vote counts client-side instead of ORDER BY ... LIMIT
        names = {
            int(number): name
            for number, name in self.engine.table_rows("contestants")
        }
        counts = sorted(
            (
                (int(votes), int(number))
                for number, votes in self.engine.table_rows("contestant_votes")
            ),
            reverse=True,
        )
        return ["top contestants:"] + [
            f"  #{number}  {names.get(number, '<eliminated>'):<12} {votes} votes"
            for votes, number in counts[:3]
        ]

    def extra_lines(self) -> list[str]:
        if self.engine.metrics is None:
            return []
        return _skew_lines(self.engine.partition_skew())

    def shutdown(self) -> None:
        self.engine.shutdown()


class BikeShareSStoreDriver:
    """BikeShare city simulation on the streaming engine."""

    name = "bikeshare @ sstore"

    def __init__(self, obs: ObsConfig, seed: int, workers: int) -> None:
        from repro.apps.bikeshare.sstore_app import BikeShareApp
        from repro.apps.bikeshare.workload import BikeShareSimulation
        from repro.core.engine import SStoreEngine

        self.engine = SStoreEngine(obs=obs)
        self.app = BikeShareApp(self.engine)
        self.sim = BikeShareSimulation(self.app, seed=seed)

    def step(self) -> None:
        self.sim.run(BIKESHARE_TICKS)

    def queue_lines(self) -> list[str]:
        status = self.engine.workflow_status()
        lines = [f"pending TEs: {status['pending_tes']}"]
        for name, info in sorted(status["streams"].items()):
            lines.append(
                f"stream {name:<18} live={info['live_tuples']:<5}"
                f" buffered={info['buffered']}"
            )
        return lines

    def app_lines(self) -> list[str]:
        lines = ["stations (bikes docked / capacity):"]
        for station_id, name, bikes, docks in self.app.stations():
            capacity = int(bikes) + int(docks)
            bar = "#" * int(bikes)
            lines.append(
                f"  s{station_id:<3} {str(name):<10}"
                f" [{bar:<{capacity}}] {int(bikes)}/{capacity}"
            )
        speed = self.app.city_speed()
        if speed is not None:
            lines.append(f"city speed: {speed:.1f}")
        return lines

    def shutdown(self) -> None:
        self.engine.shutdown()


class NetDashboardDriver:
    """Operator view of a *remote* server: no engine, only HTTP scrapes.

    Polls the net server's telemetry sidecar (``/statsz``) and renders the
    standard panels from the scrape — the process holding the engine can be
    anywhere.  Unreachable scrapes keep the last good snapshot and note the
    error instead of crashing the viewer.
    """

    def __init__(self, url: str) -> None:
        self.engine = None
        self.url = url.rstrip("/")
        self.name = f"net @ {self.url}"
        self._stats: dict[str, Any] = {}
        self._error: str | None = None

    def step(self) -> None:
        import json as _json
        import urllib.error
        import urllib.request

        try:
            with urllib.request.urlopen(self.url + "/statsz", timeout=2.0) as resp:
                self._stats = _json.loads(resp.read().decode("utf-8"))
            self._error = None
        except (urllib.error.URLError, OSError, ValueError) as exc:
            self._error = str(exc)
            time.sleep(0.2)  # don't spin against a dead server

    def snapshot(self) -> dict[str, int]:
        return dict(self._stats.get("engine") or {})

    def latency_lines(self) -> list[str]:
        metrics = self._stats.get("metrics") or {}
        lines = []
        for name in ("txn_latency_us", "call_latency_us", "net.request_us"):
            for entry in metrics.get(name, []):
                if not entry.get("count"):
                    continue
                label = entry.get("labels", {}).get("procedure", name)
                lines.append(
                    f"{label:<20} n={int(entry['count']):<7}"
                    f" p50={entry['p50']:>8.0f}us p95={entry['p95']:>8.0f}us"
                    f" p99={entry['p99']:>8.0f}us"
                )
        return lines

    def queue_lines(self) -> list[str]:
        server = self._stats.get("server") or {}
        lines = [
            f"connections={server.get('connections_open', 0)}"
            f" inflight={server.get('inflight', 0)}"
            f" busy_rejected={server.get('busy_rejected', 0)}"
            f" batches={server.get('batches', 0)}"
        ]
        health = (self._stats.get("telemetry") or {}).get("stream_health")
        if health:
            for name, info in sorted(health.get("streams", {}).items()):
                lines.append(
                    f"stream {name:<18} lag={info['lag']:<5}"
                    f" produced={info['produced']}"
                )
            for wid, info in sorted(health.get("workers", {}).items()):
                lines.append(
                    f"worker {wid}: outbound={info['outbound_depth']}"
                    f" pending_tes={info['pending_tes']}"
                )
        return lines

    def extra_lines(self) -> list[str]:
        skew = (self._stats.get("telemetry") or {}).get("partition_skew")
        return _skew_lines(skew) if skew else []

    def app_lines(self) -> list[str]:
        flight = (self._stats.get("telemetry") or {}).get("flight") or {}
        lines = [
            f"flight recorder: recorded={flight.get('recorded', 0)}"
            f" errors={flight.get('errors', 0)} slow={flight.get('slow', 0)}"
            f" (threshold {flight.get('slow_threshold_us', 0):g}us)"
        ]
        if self._error is not None:
            lines.append(f"SCRAPE FAILED: {self._error}")
        return lines

    def shutdown(self) -> None:
        pass


DRIVERS: dict[tuple[str, str], Callable[..., Any]] = {
    ("voter", "sstore"): VoterSStoreDriver,
    ("voter", "parallel"): VoterParallelDriver,
    ("bikeshare", "sstore"): BikeShareSStoreDriver,
}


# ---------------------------------------------------------------------------
# Frame rendering
# ---------------------------------------------------------------------------


def _skew_lines(skew: dict[str, Any]) -> list[str]:
    """The partition-skew panel: load bars + heavy hitters per partition.

    Works on both the in-process :meth:`partition_skew` dict (int worker
    ids, tuple hot keys) and its JSON round-trip from ``/statsz`` (string
    ids, list hot keys).
    """
    partitions = skew.get("partitions") or {}
    if not partitions:
        return []
    lines = [
        f"partition skew (max/mean {skew.get('skew_ratio', 0):.2f},"
        f" {skew.get('total_txns', 0)} txns)"
    ]
    peak = max(int(skew.get("max_txns", 0)), 1)
    for wid in sorted(partitions, key=str):
        info = partitions[wid]
        txns = int(info.get("txns_committed", 0))
        bar = "#" * max(1 if txns else 0, int(round(20 * txns / peak)))
        hot = " ".join(
            f"{key}x{int(estimate)}" for key, estimate, _err in info.get("hot_keys", [])[:4]
        )
        lines.append(f"  p{wid} [{bar:<20}] {txns:<7} hot: {hot or '-'}")
    return lines


def _latency_lines(engine: Any) -> list[str]:
    lines: list[str] = []
    for name, labels, instrument in engine.metrics.instruments():
        if name not in ("txn_latency_us", "call_latency_us"):
            continue
        label = dict(labels).get("procedure", "?")
        s = instrument.summary()
        if not s["count"]:
            continue
        lines.append(
            f"{label:<20} n={int(s['count']):<7}"
            f" p50={s['p50']:>8.0f}us p95={s['p95']:>8.0f}us"
            f" p99={s['p99']:>8.0f}us"
        )
    return lines or ["(no samples yet)"]


def render_frame(
    driver: Any,
    snapshot: dict[str, int],
    previous: dict[str, int],
    dt: float,
    elapsed: float,
) -> str:
    def rate(counter: str) -> float:
        return (snapshot.get(counter, 0) - previous.get(counter, 0)) / max(dt, 1e-9)

    lines = [
        f"repro.obs dashboard — {driver.name} — t={elapsed:5.1f}s",
        "=" * 64,
        "throughput",
        f"  committed: {rate('txns_committed'):8.0f} txn/s"
        f"   (total {snapshot.get('txns_committed', 0)})",
        f"  ingested:  {rate('stream_tuples_ingested'):8.0f} tuples/s"
        f"   (total {snapshot.get('stream_tuples_ingested', 0)})",
        "",
        "round trips",
        f"  client↔PE: {snapshot.get('client_pe_roundtrips', 0):<8}"
        f" PE↔EE: {snapshot.get('pe_ee_roundtrips', 0):<8}"
        f" IPC: {snapshot.get('ipc_roundtrips', 0)}",
        "",
        "latency (per procedure)",
    ]
    latency_fn = getattr(driver, "latency_lines", None)
    latency = latency_fn() if latency_fn is not None else _latency_lines(driver.engine)
    lines += [f"  {line}" for line in (latency or ["(no samples yet)"])]
    lines += ["", "queues / partitions"]
    lines += [f"  {line}" for line in driver.queue_lines()]
    extra_fn = getattr(driver, "extra_lines", None)
    if extra_fn is not None:
        extra = extra_fn()
        if extra:
            lines += [""] + extra
    engine = getattr(driver, "engine", None)
    if engine is not None and engine.tracer.enabled:
        collector = engine.tracer.collector
        lines += [
            "",
            f"trace: {len(collector)} spans recorded"
            f" ({collector.dropped} dropped)",
        ]
    lines += [""]
    lines += driver.app_lines()
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dashboard",
        description="live view of an instrumented Voter/BikeShare run",
    )
    parser.add_argument("--app", choices=("voter", "bikeshare"), default="voter")
    parser.add_argument(
        "--engine", choices=("sstore", "parallel", "net"), default="sstore"
    )
    parser.add_argument("--workers", type=int, default=2,
                        help="partition count for --engine parallel")
    parser.add_argument("--url", default="http://127.0.0.1:9090",
                        help="telemetry sidecar base URL for --engine net")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to run the workload")
    parser.add_argument("--refresh", type=float, default=0.5,
                        help="seconds between redraws")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--plain", action="store_true",
                        help="append frames instead of ANSI clear-screen")
    parser.add_argument("--no-trace", action="store_true",
                        help="metrics only (what the overhead benchmark calls"
                             " the metrics-on/tracing-off configuration)")
    parser.add_argument("--export-trace", metavar="PATH",
                        help="write the trace as JSONL on exit")
    parser.add_argument("--export-chrome", metavar="PATH",
                        help="write a Chrome trace_event file on exit")
    parser.add_argument("--export-metrics", metavar="PATH",
                        help="write the metrics registry as JSON on exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.engine == "net":
        driver: Any = NetDashboardDriver(args.url)
    else:
        try:
            driver_cls = DRIVERS[(args.app, args.engine)]
        except KeyError:
            print(
                f"unsupported combination: --app {args.app} --engine {args.engine}"
                " (bikeshare needs the streaming engine)",
                file=sys.stderr,
            )
            return 2
        obs = ObsConfig(tracing=not args.no_trace)
        driver = driver_cls(obs, args.seed, args.workers)

    def snapshot_now() -> dict[str, int]:
        taker = getattr(driver, "snapshot", None)
        return taker() if taker is not None else driver.engine.stats.snapshot()

    previous = snapshot_now()
    started = last_draw = time.monotonic()
    try:
        while True:
            driver.step()
            now = time.monotonic()
            if now - last_draw >= args.refresh or now - started >= args.seconds:
                snapshot = snapshot_now()
                frame = render_frame(
                    driver, snapshot, previous, now - last_draw, now - started
                )
                sys.stdout.write(frame if args.plain else CLEAR + frame)
                sys.stdout.write("\n")
                sys.stdout.flush()
                previous, last_draw = snapshot, now
            if now - started >= args.seconds:
                break
    except KeyboardInterrupt:
        pass
    finally:
        engine = getattr(driver, "engine", None)
        if engine is not None:
            tracer = engine.tracer
            if tracer.enabled and args.export_trace:
                tracer.collector.export_jsonl(args.export_trace)
                print(f"trace written to {args.export_trace}")
            if tracer.enabled and args.export_chrome:
                tracer.collector.export_chrome(args.export_chrome)
                print(f"chrome trace written to {args.export_chrome}")
            if engine.metrics is not None and args.export_metrics:
                engine.metrics.write_json(args.export_metrics)
                print(f"metrics written to {args.export_metrics}")
        driver.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
