"""The system under test of the two net workloads, as a child process.

``python sut.py --engine sstore|dstream --dir D [--trace-dir T]`` deploys
season Voter behind a ``NetServer`` with the program's defaults
(``obs=None``), prints ``PORT <n>`` and serves until told to stop.

Hygiene: the parent starts this in its own session and holds our stdin.
When stdin closes — the parent exited, was killed, or asked for it — the
whole process group is SIGKILLed from inside, so no ``PartitionWorker``
outlives a run.  SIGTERM is the graceful path the traced run uses: it lets
the server and its workers write their spans before they exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import signal
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE))

MAX_INFLIGHT = 2048
MAX_PIPELINE = 256


def build_engine(kind: str, directory: str):
    import apps

    if kind == "dstream":
        from repro.dstream.engine import DStreamEngine

        engine = DStreamEngine(2, snapshot_interval=apps.VOTER_SNAPSHOT_INTERVAL)
        apps.deploy_voter(engine)
        engine.enable_durability(directory)
    else:
        from repro.core.engine import SStoreEngine

        engine = SStoreEngine(snapshot_interval=apps.VOTER_SNAPSHOT_INTERVAL)
        apps.deploy_voter(engine)
        engine.enable_durability(directory, fsync_log=True)
    return engine


def _die_with_parent() -> None:
    # raw fd, not sys.stdin: a forked worker closes sys.stdin on start-up and
    # would deadlock on the buffer lock this thread holds while it blocks
    while os.read(0, 4096):
        pass
    os.killpg(os.getpgid(0), signal.SIGKILL)


async def serve(engine, trace_dir: str | None) -> None:
    from repro.net.server import NetServer

    server = NetServer(
        engine, port=0, max_inflight=MAX_INFLIGHT, max_pipeline=MAX_PIPELINE
    )
    await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(f"PORT {server.port}", flush=True)
    await stop.wait()
    await server.stop()
    if trace_dir is not None and hasattr(engine, "stream_health"):
        health = engine.stream_health()
        lag = max((s["lag"] for s in health["streams"].values()), default=0)
        pathlib.Path(trace_dir, "stream_health.json").write_text(
            json.dumps({"lag_max": lag})
        )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--engine", choices=("sstore", "dstream"), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--cpus", help="comma-separated CPUs to run on")
    args = parser.parse_args()
    if args.cpus:
        # before the engine is built: forked workers inherit the affinity
        os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})
    threading.Thread(target=_die_with_parent, daemon=True).start()
    recorder = None
    if args.trace_dir is not None:
        import spans

        # before the engine exists, so forked workers inherit the wrappers
        recorder = spans.install(args.trace_dir)
    engine = build_engine(args.engine, args.dir)
    try:
        asyncio.run(serve(engine, args.trace_dir))
    finally:
        engine.shutdown()
        if recorder is not None:
            recorder.dump()


if __name__ == "__main__":
    main()
