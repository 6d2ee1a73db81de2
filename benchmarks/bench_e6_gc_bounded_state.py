"""E6 — Uniform state management: GC keeps stream state bounded.

Paper claim (§2): "stream and window state has a short lifespan... S-Store
provides automatic garbage collection mechanisms for tuples that expire from
stream or window state."

Measured: live-tuple high-water marks of stream and window state while an
unbounded tuple stream flows through a two-stage workflow — with total input
an order of magnitude larger than any retained state — and, with a
durability directory attached, the engine *process's* traced heap at
checkpoints past the capacity of its history rings: bounded state has to
hold for the process, not only for its tables.
"""

from __future__ import annotations

import gc
import tempfile
import tracemalloc

from repro.bench import format_table
from repro.core.engine import SStoreEngine, StreamProcedure
from repro.core.transaction import HISTORY_RING
from repro.core.workflow import WorkflowSpec

TUPLES = 2000
WINDOW = 50
CHUNK = 10
#: the heap run commits 4x the ring's capacity in TEs (two per chunk), so
#: its 50/75/100 % checkpoints all lie past the point the rings are full
HEAP_TUPLES = 2 * HISTORY_RING * CHUNK
HEAP_SLACK_KB = 256


def build(**engine_kwargs):
    eng = SStoreEngine(**engine_kwargs)
    eng.execute_ddl("CREATE STREAM feed (seq INTEGER, v INTEGER)")
    eng.execute_ddl("CREATE STREAM derived (seq INTEGER, v INTEGER)")
    eng.execute_ddl(
        f"CREATE WINDOW recent ON feed ROWS {WINDOW} SLIDE 1 OWNED BY stage1"
    )

    class Stage1(StreamProcedure):
        name = "stage1"
        statements = {"peek": "SELECT COUNT(*) FROM recent"}

        def run(self, ctx):
            ctx.execute("peek")
            ctx.emit("derived", [row for row in ctx.batch])

    class Stage2(StreamProcedure):
        name = "stage2"
        statements = {}

        def run(self, ctx):
            pass

    eng.register_procedure(Stage1)
    eng.register_procedure(Stage2)
    wf = WorkflowSpec("wf")
    wf.add_node(
        "stage1", input_stream="feed", batch_size=CHUNK, output_streams=("derived",)
    )
    wf.add_node("stage2", input_stream="derived")
    eng.deploy_workflow(wf)
    return eng


def run_with_gc(tuples: int = TUPLES, directory: str | None = None) -> dict:
    """Drive ``tuples`` through the workflow; with ``directory`` also record
    ``(tuples so far, live rows per table, traced heap KB)`` every quarter."""
    if directory is None:
        eng = build()
    else:
        eng = build(snapshot_interval=200)
        eng.enable_durability(directory)
    high = {"feed": 0, "derived": 0, "recent": 0}
    checkpoints = []
    for start in range(0, tuples, CHUNK):
        eng.ingest("feed", [(i, i % 11) for i in range(start, start + CHUNK)])
        live = {
            name: eng.partitions[0].ee.table(name).row_count() for name in high
        }
        for name in high:
            high[name] = max(high[name], live[name])
        done = start + CHUNK
        if directory is not None and done % (tuples // 4) == 0:
            gc.collect()
            heap_kb = tracemalloc.get_traced_memory()[0] // 1024
            checkpoints.append([done, *live.values(), heap_kb])
    high["gced"] = eng.stats.stream_tuples_gced
    high["checkpoints"] = checkpoints
    high["committed_tes"] = eng.workflow_status()["committed_tes"]
    return high


def run_heap_checkpoints() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        tracemalloc.start()
        try:
            return run_with_gc(HEAP_TUPLES, directory)
        finally:
            tracemalloc.stop()


def test_e6_state_stays_bounded(benchmark, save_report):
    high = benchmark.pedantic(run_with_gc, rounds=2, iterations=1)
    heap = run_heap_checkpoints()
    rows = [
        ["feed (stream)", high["feed"]],
        ["derived (stream)", high["derived"]],
        ["recent (window)", high["recent"]],
        ["tuples ingested", TUPLES],
        ["tuples GCed", high["gced"]],
    ]
    save_report(
        "e6_gc_bounded_state",
        format_table(["state", "live high-water mark"], rows)
        + f"\n\nprocess heap, durability dir attached, {heap['committed_tes']} "
        f"TEs (history ring holds {HISTORY_RING}):\n"
        + format_table(
            ["tuples", "feed", "derived", "recent", "traced heap KB"],
            heap["checkpoints"],
        ),
    )
    # past the rings' capacity the process holds the database and nothing
    # that grows with the run: every later checkpoint matches the 50 % one
    heaps = [row[-1] for row in heap["checkpoints"][1:]]
    assert heap["committed_tes"] == 4 * HISTORY_RING
    assert max(heaps) - min(heaps) < HEAP_SLACK_KB, heap["checkpoints"]
    assert all(row[1:4] == [0, 0, WINDOW] for row in heap["checkpoints"])
    benchmark.extra_info["stream_high_water"] = high["feed"]

    # streams never retain more than in-flight work; the window never
    # exceeds its declared size; everything consumed was collected
    assert high["feed"] <= 2 * CHUNK
    assert high["derived"] <= 2 * CHUNK
    assert high["recent"] <= WINDOW
    assert high["gced"] >= 2 * TUPLES  # feed + derived both fully collected


def test_e6_windows_bound_unbounded_streams(benchmark):
    """Even with GC watermarks pinned (no consumers), windows stay finite."""

    def run():
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM raw (v INTEGER)")
        eng.execute_ddl("CREATE WINDOW w ON raw ROWS 25 SLIDE 5 OWNED BY nobody")
        # no workflow: tuples cannot be ingested by clients into a stream
        # with no consumer batching, so drive the window through the hook
        # path via a single-node workflow with a no-op procedure

        class Noop(StreamProcedure):
            name = "noop"
            statements = {}

            def run(self, ctx):
                pass

        eng.register_procedure(Noop)
        wf = WorkflowSpec("wf")
        wf.add_node("noop", input_stream="raw", batch_size=5)
        eng.deploy_workflow(wf)
        for i in range(1000):
            eng.ingest("raw", [(i,)])
        return eng.partitions[0].ee.table("w").row_count()

    final = benchmark.pedantic(run, rounds=2, iterations=1)
    assert final <= 25
