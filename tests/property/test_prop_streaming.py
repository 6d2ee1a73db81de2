"""Property tests for the streaming layer.

* Any ingest chunking produces the same final state and a valid schedule;
* recovery after a crash at any point reproduces the uninterrupted state;
* stream GC never leaves unconsumed live tuples after quiescence, and the
  live count stays bounded on unbounded input.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.engine import SStoreEngine, StreamProcedure
from repro.core.recovery import crash_and_recover_streaming
from repro.core.transaction import validate_schedule
from repro.core.workflow import WorkflowSpec


class Classify(StreamProcedure):
    """BSP: route evens/odds to different streams, tally everything."""

    name = "classify"
    statements = {
        "tally": "UPDATE tallies SET n = n + 1 WHERE bucket = ?",
    }

    def run(self, ctx):
        evens = [(v,) for (v,) in ctx.batch if v % 2 == 0]
        odds = [(v,) for (v,) in ctx.batch if v % 2 != 0]
        for _ in evens:
            ctx.execute("tally", "even")
        for _ in odds:
            ctx.execute("tally", "odd")
        if evens:
            ctx.emit("evens", evens)
        if odds:
            ctx.emit("odds", odds)


class SumEvens(StreamProcedure):
    name = "sum_evens"
    statements = {"add": "UPDATE tallies SET n = n + ? WHERE bucket = 'even_sum'"}

    def run(self, ctx):
        ctx.execute("add", sum(v for (v,) in ctx.batch))


class SumOdds(StreamProcedure):
    name = "sum_odds"
    statements = {"add": "UPDATE tallies SET n = n + ? WHERE bucket = 'odd_sum'"}

    def run(self, ctx):
        ctx.execute("add", sum(v for (v,) in ctx.batch))


def build(batch_size: int) -> tuple[SStoreEngine, WorkflowSpec]:
    eng = SStoreEngine()
    eng.execute_ddl("CREATE STREAM numbers (v INTEGER)")
    eng.execute_ddl("CREATE STREAM evens (v INTEGER)")
    eng.execute_ddl("CREATE STREAM odds (v INTEGER)")
    eng.execute_ddl(
        "CREATE TABLE tallies (bucket VARCHAR(16) NOT NULL, n INTEGER, "
        "PRIMARY KEY (bucket))"
    )
    for bucket in ("even", "odd", "even_sum", "odd_sum"):
        eng.execute_sql("INSERT INTO tallies VALUES (?, 0)", bucket)
    eng.register_procedure(Classify)
    eng.register_procedure(SumEvens)
    eng.register_procedure(SumOdds)
    wf = WorkflowSpec("wf")
    wf.add_node(
        "classify",
        input_stream="numbers",
        batch_size=batch_size,
        output_streams=("evens", "odds"),
    )
    wf.add_node("sum_evens", input_stream="evens")
    wf.add_node("sum_odds", input_stream="odds")
    eng.deploy_workflow(wf)
    return eng, wf


def tallies(eng: SStoreEngine) -> dict[str, int]:
    return dict(eng.execute_sql("SELECT bucket, n FROM tallies").rows)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.integers(-20, 20), max_size=40),
    batch_size=st.integers(1, 5),
    chunks=st.integers(1, 7),
)
def test_chunking_invariance_and_schedule_validity(values, batch_size, chunks):
    baseline, _ = build(batch_size)
    baseline.ingest("numbers", [(v,) for v in values])

    chunked, wf = build(batch_size)
    rows = [(v,) for v in values]
    for start in range(0, len(rows), chunks):
        chunked.ingest("numbers", rows[start : start + chunks])

    assert tallies(baseline) == tallies(chunked)
    assert validate_schedule(chunked.schedule_history, wf) == []

    complete = (len(values) // batch_size) * batch_size
    processed = values[:complete]
    expected = {
        "even": sum(1 for v in processed if v % 2 == 0),
        "odd": sum(1 for v in processed if v % 2 != 0),
        "even_sum": sum(v for v in processed if v % 2 == 0),
        "odd_sum": sum(v for v in processed if v % 2 != 0),
    }
    assert tallies(chunked) == expected


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(st.integers(-20, 20), min_size=1, max_size=30),
    crash_after=st.integers(0, 30),
    batch_size=st.integers(1, 4),
    snapshot_at=st.one_of(st.none(), st.integers(0, 30)),
)
def test_crash_anywhere_recovers_exact_state(
    values, crash_after, batch_size, snapshot_at
):
    eng, _ = build(batch_size)
    for i, v in enumerate(values):
        eng.ingest("numbers", [(v,)])
        if snapshot_at is not None and i == snapshot_at:
            eng.take_snapshot()
        if i == crash_after:
            report = crash_and_recover_streaming(eng)
            assert report.state_matches
    # the engine still works after recovery
    eng.ingest("numbers", [(2,)] * batch_size)
    assert tallies(eng)["even"] >= 1


@settings(max_examples=20, deadline=None)
@given(values=st.lists(st.integers(0, 100), min_size=1, max_size=80))
def test_gc_leaves_no_live_tuples_at_quiescence(values):
    eng, _ = build(batch_size=1)
    for v in values:
        eng.ingest("numbers", [(v,)])
    for stream in ("numbers", "evens", "odds"):
        assert eng.gc.live_tuples(stream) == 0
    assert eng.stats.stream_tuples_gced >= len(values)
