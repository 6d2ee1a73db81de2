"""Where one op's time goes on the in-process loop: µs per statement name,
per ``emit``, per stream/window insert and expiry, per log append, and for
beginning and ending a transaction.

    python benchmarks/hotpath.py                 # Voter and BikeShare
    python benchmarks/hotpath.py --app voter --ops 20000 --seed 3
    python benchmarks/hotpath.py --count --ops 2000   # calls, not time

A sizing tool, not a benchmark: it times the engine's own entry points from
outside (class-level wrappers, removed at exit) on the same deployments
``benchmarks/e2e`` drives — the season Voter workflow, one vote per
``ingest``, and E8's BikeShare city, one simulation tick per op — with a
durability directory attached.  The wrappers cost ~0.3 µs per probed call,
so read the rows against each other and take end-to-end numbers from
``benchmarks/e2e/run.py``.  A row is self time — a probe nested in another
(a window's insert under the ``emit`` that slid it) is taken out of its
parent — so rows are disjoint; ``(unattributed)`` is the loop's time outside
every probe: scheduling, trigger dispatch and the procedures' own Python.

``--count`` replaces the timers with a ``sys.setprofile`` hook that counts
calls instead: Python calls into ``src/repro``, all Python calls and builtin
calls per op, the functions of ``src/repro`` called most, and the totals.
Counts do not move with the machine's load, and two runs with the same seed
print the same numbers, so they resolve a change far below what a wall clock
can on a shared machine.
"""

from __future__ import annotations

import argparse
import gc
import os
import pathlib
import sys
import tempfile
import time
from collections import defaultdict
from typing import Any, Callable

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

import apps  # noqa: E402  (benchmarks/e2e/apps.py: the deployments)
from repro.core.engine import SStoreEngine, StreamContext  # noqa: E402
from repro.hstore.cmdlog import CommandLog  # noqa: E402
from repro.hstore.engine import ADHOC_RECORD, HStoreEngine  # noqa: E402
from repro.hstore.executor import ExecutionEngine  # noqa: E402

WARMUP = {"voter": 1000, "bikeshare": 300}
DEFAULT_OPS = {"voter": 10_000, "bikeshare": 1_500}
#: ``--count`` attributes a call to ``src/repro`` by its code's file name
SRC = str(ROOT / "src" / "repro") + os.sep


class Probes:
    """Accumulates (calls, self ns) per row name; wraps methods in place."""

    def __init__(self) -> None:
        self.rows: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._undo: list[tuple[type, str, Callable]] = []
        #: ns spent in nested probes, one slot per probe now on the stack
        self._nested: list[int] = []

    def wrap(
        self, owner: type, attr: str, name_of: Callable[..., str | None]
    ) -> None:
        """Probe ``owner.attr``; a ``None`` name hides the call's self time
        from its parent without giving it a row (it stays unattributed)."""
        original = getattr(owner, attr)  # AttributeError = the seam moved
        rows = self.rows
        nested = self._nested
        clock = time.perf_counter_ns

        def probed(*args: Any, **kwargs: Any) -> Any:
            nested.append(0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = nested.pop()
                if nested:
                    nested[-1] += elapsed
                name = name_of(*args)
                if name is not None:
                    row = rows[name]
                    row[0] += 1
                    row[1] += elapsed - inner

        self._undo.append((owner, attr, original))
        setattr(owner, attr, probed)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)


def install() -> Probes:
    probes = Probes()
    probes.wrap(
        StreamContext,
        "execute",
        lambda ctx, stmt, *_: f"sql  {ctx.procedure_name}.{stmt}",
    )
    probes.wrap(StreamContext, "emit", lambda ctx, stream, *_: f"emit {stream}")
    probes.wrap(CommandLog, "append", lambda *_: "log  append+flush")
    probes.wrap(HStoreEngine, "_execute_sql", lambda *_: "sql  <adhoc>")
    # stream and window rows going in (a border batch, a window admitting
    # tuples) and out (in-TE expiry, window expiry, the <gc> fallback)
    probes.wrap(ExecutionEngine, "insert_rows", lambda ee, txn, table, *_: f"in   {table}")
    probes.wrap(ExecutionEngine, "delete_rows", lambda ee, txn, table, *_: f"del  {table}")
    # begin + commit/abort of any transaction; the bodies are the procedures'
    # own Python and stay unattributed, system transactions get their own row
    probes.wrap(HStoreEngine, "_transact", _transaction_row)
    probes.wrap(HStoreEngine, "_resolve", lambda *_: "txn  begin+commit")
    probes.wrap(SStoreEngine, "_stream_te_body", lambda *_: None)
    probes.wrap(HStoreEngine, "_run_procedure", lambda *_: None)
    return probes


def _transaction_row(engine: Any, name: str, *_: Any) -> str:
    if name == ADHOC_RECORD:
        return "sql  <adhoc>"
    return f"txn  {name}" if name.startswith("<") else "txn  begin+commit"


class CallCounts:
    """Counts profiler events per code object; ``sys.setprofile`` hook."""

    def __init__(self) -> None:
        self.python: dict[Any, int] = defaultdict(int)
        self.builtin = 0

    def __call__(self, frame: Any, event: str, _arg: Any) -> None:
        if event == "call":
            self.python[frame.f_code] += 1
        elif event == "c_call":
            self.builtin += 1

    def install(self) -> "CallCounts":
        sys.setprofile(self)
        return self

    def remove(self) -> None:
        sys.setprofile(None)


def drive(
    app: str, ops: int, seed: int, directory: str, count: bool = False
) -> tuple[Any, int, int]:
    """Warm up, then run ``ops`` probed ops; returns (probes, loop ns, gc
    runs).  With ``count`` the probes are a :class:`CallCounts`."""
    if app == "voter":
        engine = SStoreEngine(snapshot_interval=apps.VOTER_SNAPSHOT_INTERVAL)
        apps.deploy_voter(engine)
        rows = apps.voter_rows(seed, WARMUP[app] + ops)
        steps = [lambda row=row: engine.ingest("votes_in", [row]) for row in rows]
    else:
        engine = SStoreEngine()
        _app, sim = apps.build_bikeshare(engine, seed)
        steps = [lambda: sim.run(1)] * (WARMUP[app] + ops)
    engine.enable_durability(directory, fsync_log=False)
    for step in steps[: WARMUP[app]]:
        step()
    probes = CallCounts().install() if count else install()
    collections = sum(stat["collections"] for stat in gc.get_stats())
    try:
        start = time.perf_counter_ns()
        for step in steps[WARMUP[app] :]:
            step()
        elapsed = time.perf_counter_ns() - start
    finally:
        probes.remove()
        engine.shutdown()
    collections = sum(stat["collections"] for stat in gc.get_stats()) - collections
    return probes, elapsed, collections


def report(app: str, ops: int, probes: Probes, elapsed: int, collections: int) -> None:
    unit = "vote" if app == "voter" else "tick"
    print(f"\n{app}: {ops} {unit}s, {elapsed / ops / 1000:.1f} us/{unit}")
    print(f"  {'row':<44}{'calls/op':>9}{'us/call':>9}{'us/op':>9}{'share':>7}")
    attributed = small = 0
    for name, (calls, ns) in sorted(probes.rows.items(), key=lambda kv: -kv[1][1]):
        attributed += ns
        if ns < elapsed / 500:  # under 0.2 %: summed into one row below
            small += ns
            continue
        print(
            f"  {name:<44}{calls / ops:>9.2f}{ns / calls / 1000:>9.1f}"
            f"{ns / ops / 1000:>9.1f}{100 * ns / elapsed:>6.1f}%"
        )
    rest = elapsed - attributed
    for name, ns in (("(rows under 0.2 %)", small), ("(unattributed)", rest)):
        print(f"  {name:<44}{'':>18}{ns / ops / 1000:>9.1f}{100 * ns / elapsed:>6.1f}%")
    print(f"  python gc: {collections} collections ({collections / ops:.4f}/op)")


def report_counts(app: str, ops: int, counts: CallCounts) -> None:
    unit = "vote" if app == "voter" else "tick"
    ours = {
        code: n for code, n in counts.python.items() if code.co_filename.startswith(SRC)
    }
    python = sum(counts.python.values())
    total = sum(ours.values())
    print(f"\n{app}: {ops} {unit}s, calls per {unit}")
    print(f"  {'python calls':<44}{python / ops:>9.1f}")
    print(f"  {'builtin calls':<44}{counts.builtin / ops:>9.1f}")
    print(f"  {'python calls into src/repro':<44}{total / ops:>9.1f}")
    print(f"  {'function (src/repro)':<44}{'calls/op':>9}")
    ranked = sorted(
        ours.items(),
        key=lambda kv: (-kv[1], kv[0].co_filename, kv[0].co_firstlineno),
    )
    for code, n in ranked[:20]:
        where = code.co_filename[len(SRC):].replace(os.sep, ".")[: -len(".py")]
        name = f"{where}.{code.co_name}:{code.co_firstlineno}"
        print(f"  {name:<44}{n / ops:>9.2f}")
    print(
        f"  total: {total} calls into src/repro, {python} python, "
        f"{counts.builtin} builtin"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--app", choices=("voter", "bikeshare", "both"), default="both")
    parser.add_argument("--ops", type=int, default=None, help="measured votes / ticks")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--count", action="store_true", help="count calls instead of timing them"
    )
    args = parser.parse_args()
    for app in ("voter", "bikeshare") if args.app == "both" else (args.app,):
        ops = args.ops or DEFAULT_OPS[app]
        # inside the checkout (git-ignored), removed on exit
        with tempfile.TemporaryDirectory(
            prefix="hotpath-", dir=ROOT / "benchmarks" / "_results"
        ) as directory:
            probes, elapsed, collections = drive(
                app, ops, args.seed, directory, args.count
            )
        if args.count:
            report_counts(app, ops, probes)
        else:
            report(app, ops, probes, elapsed, collections)


if __name__ == "__main__":
    main()
