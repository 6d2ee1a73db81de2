"""Differential oracle: view-backed reads vs the interpreter's recompute.

Two engines run every generated input sequence in lockstep: one with a
registered delta view (compiled plans, so eligible SELECTs are lowered onto
the view) and one on :func:`tests.oracle.oracle_arm` with no view (the
tree-walking interpreter recomputing the aggregate from a full window scan).  After
*every* ingest/tick the query results must be identical — same rows, same
group order, same cell types (3VL NULLs included).

The sweep covers window kind x size x slide x NULLs x float contamination x
late/out-of-order timestamps x crash/recover mid-sequence.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from tests.ivm.conftest import assert_rows_identical, build_engine

pytestmark = pytest.mark.ivm

VIEW_SQL = (
    "CREATE VIEW vw AS SELECT g, COUNT(*), COUNT(v), SUM(v), AVG(v), "
    "MIN(v), MAX(v), SUM(f), MIN(f) FROM w GROUP BY g"
)
QUERIES = [
    "SELECT g, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), "
    "SUM(f), MIN(f) FROM w GROUP BY g",
    # permuted / partial aggregate lists still match the same view
    "SELECT g, MAX(v), COUNT(*) FROM w GROUP BY g",
    # post-aggregate clauses run over the view's O(groups) output
    "SELECT g, SUM(v) FROM w GROUP BY g HAVING COUNT(*) > 1 "
    "ORDER BY g DESC LIMIT 2",
]

GLOBAL_VIEW_SQL = (
    "CREATE VIEW gv AS SELECT COUNT(*), SUM(v), MIN(f), MAX(v) FROM w"
)
GLOBAL_QUERY = "SELECT COUNT(*), SUM(v), MIN(f), MAX(v) FROM w"


def value_strategy():
    return st.one_of(st.none(), st.integers(-50, 50))


def float_strategy():
    return st.one_of(
        st.none(),
        st.sampled_from([0.1, 0.25, -1.5, 3.0]),
        st.integers(-5, 5),
    )


rows_strategy = st.lists(
    st.tuples(st.integers(0, 3), value_strategy(), float_strategy()),
    min_size=0,
    max_size=50,
)


def check_pair(view_eng, oracle, queries):
    for query in queries:
        assert_rows_identical(
            view_eng.execute_sql(query).rows,
            oracle.execute_sql(query).rows,
            context=query,
        )


@settings(max_examples=30, deadline=None)
@given(rows=rows_strategy, size=st.integers(1, 12), slide_frac=st.integers(1, 12))
def test_tuple_window_views_match_recompute(rows, size, slide_frac):
    slide = max(1, min(size, slide_frac))
    ddl = f"CREATE WINDOW w ON s ROWS {size} SLIDE {slide}"
    view_eng = build_engine(ddl, view_sql=VIEW_SQL)
    oracle = build_engine(ddl, oracle=True)
    for i, (g, v, f) in enumerate(rows):
        row = (i, g, v, f)
        view_eng.ingest("s", [row])
        oracle.ingest("s", [row])
        check_pair(view_eng, oracle, QUERIES)
    if rows:
        assert view_eng.stats.extra.get("ivm_view_hits", 0) > 0


@settings(max_examples=30, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(0, 4),  # clock gap before this arrival
            st.integers(-3, 6),  # timestamp skew: negative = late tuple
            st.integers(0, 3),
            value_strategy(),
            float_strategy(),
        ),
        min_size=0,
        max_size=40,
    ),
    size=st.integers(1, 15),
    slide=st.integers(1, 6),
)
def test_time_window_views_match_recompute(events, size, slide):
    """Time windows with late/out-of-order arrivals around every boundary."""
    ddl = f"CREATE WINDOW w ON s RANGE {size} SLIDE {slide}"
    view_eng = build_engine(ddl, view_sql=VIEW_SQL)
    oracle = build_engine(ddl, oracle=True)
    now = 0
    for gap, skew, g, v, f in events:
        now += gap
        view_eng.advance_time(gap)
        oracle.advance_time(gap)
        row = (max(0, now + skew), g, v, f)
        view_eng.ingest("s", [row])
        oracle.ingest("s", [row])
        check_pair(view_eng, oracle, QUERIES)


@settings(max_examples=20, deadline=None)
@given(rows=rows_strategy, size=st.integers(1, 10))
def test_global_aggregate_view_matches_recompute(rows, size):
    ddl = f"CREATE WINDOW w ON s ROWS {size} SLIDE 1"
    view_eng = build_engine(ddl, view_sql=GLOBAL_VIEW_SQL)
    oracle = build_engine(ddl, oracle=True)
    # empty window: the global aggregate still yields its defaults row
    check_pair(view_eng, oracle, [GLOBAL_QUERY])
    for i, (g, v, f) in enumerate(rows):
        row = (i, g, v, f)
        view_eng.ingest("s", [row])
        oracle.ingest("s", [row])
        check_pair(view_eng, oracle, [GLOBAL_QUERY])


@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 2), value_strategy(), float_strategy()),
        min_size=1,
        max_size=30,
    ),
    size=st.integers(1, 8),
    crash_at=st.integers(0, 29),
)
def test_crash_recover_rebuilds_view_state(rows, size, crash_at):
    """A crash mid-sequence must not change any subsequent answer."""
    ddl = f"CREATE WINDOW w ON s ROWS {size} SLIDE 1"
    view_eng = build_engine(ddl, view_sql=VIEW_SQL, command_logging=True)
    oracle = build_engine(ddl, oracle=True)
    crash_at = crash_at % len(rows)
    for i, (g, v, f) in enumerate(rows):
        row = (i, g, v, f)
        view_eng.ingest("s", [row])
        oracle.ingest("s", [row])
        if i == crash_at:
            view_eng.crash()
            view_eng.recover()
        check_pair(view_eng, oracle, QUERIES)


def test_oracle_engine_never_reads_a_view():
    """On the oracle a registered view is maintained but never read: the
    interpreter path stays the untouched differential oracle."""
    eng = build_engine(
        "CREATE WINDOW w ON s ROWS 4 SLIDE 1",
        oracle=True,
        view_sql="CREATE VIEW vw AS SELECT g, COUNT(*) FROM w GROUP BY g",
    )
    for i in range(8):
        eng.ingest("s", [(i, i % 2, i, None)])
    assert eng.execute_sql("SELECT g, COUNT(*) FROM w GROUP BY g").rows
    assert eng.stats.extra.get("ivm_view_hits", 0) == 0
    assert eng.stats.extra.get("ivm_deltas_applied", 0) > 0


def test_view_registration_after_data_seeds_from_window():
    eng = build_engine("CREATE WINDOW w ON s ROWS 5 SLIDE 1")
    oracle = build_engine("CREATE WINDOW w ON s ROWS 5 SLIDE 1", oracle=True)
    for i in range(9):
        row = (i, i % 2, i, 0.5)
        eng.ingest("s", [row])
        oracle.ingest("s", [row])
    eng.execute_ddl(VIEW_SQL)  # registered late: must seed, then stay exact
    for i in range(9, 18):
        row = (i, i % 2, i, 0.5)
        eng.ingest("s", [row])
        oracle.ingest("s", [row])
        check_pair(eng, oracle, QUERIES)
    assert eng.stats.extra.get("ivm_view_hits", 0) > 0


def test_drop_view_falls_back_to_scan():
    eng = build_engine(
        "CREATE WINDOW w ON s ROWS 5 SLIDE 1", view_sql=VIEW_SQL
    )
    oracle = build_engine("CREATE WINDOW w ON s ROWS 5 SLIDE 1", oracle=True)
    for i in range(12):
        row = (i, i % 3, i, None)
        eng.ingest("s", [row])
        oracle.ingest("s", [row])
    eng.execute_ddl("DROP VIEW vw")
    hits = eng.stats.extra.get("ivm_view_hits", 0)
    check_pair(eng, oracle, QUERIES)
    assert eng.stats.extra.get("ivm_view_hits", 0) == hits


def test_no_view_bumps_no_ivm_counter():
    """With no view registered the delta seam costs nothing: window
    maintenance and aggregate scans leave no ``ivm_*`` counter behind."""
    eng = build_engine("CREATE WINDOW w ON s ROWS 5 SLIDE 1")
    for i in range(12):
        eng.ingest("s", [(i, i % 3, i, None)])
        assert eng.execute_sql(QUERIES[0]).rows
    assert [name for name in eng.stats.snapshot() if name.startswith("ivm_")] == []


def test_te_abort_rolls_view_back():
    """An aborted TE must leave the view exactly where it was."""
    from repro.core.engine import SStoreEngine, StreamProcedure
    from repro.core.workflow import WorkflowSpec

    eng = SStoreEngine()
    eng.execute_ddl("CREATE STREAM s (ts TIMESTAMP, v INTEGER)")
    eng.execute_ddl("CREATE WINDOW w ON s ROWS 3 SLIDE 1")
    eng.execute_ddl("CREATE VIEW av AS SELECT COUNT(*), SUM(v), MIN(v) FROM w")

    class Picky(StreamProcedure):
        name = "picky"
        statements = {}

        def run(self, ctx):
            for _ts, v in ctx.batch:
                if v < 0:
                    ctx.abort("negative")

    eng.register_procedure(Picky)
    spec = WorkflowSpec("wf")
    spec.add_node("picky", input_stream="s", batch_size=1)
    eng.deploy_workflow(spec)

    query = "SELECT COUNT(*), SUM(v), MIN(v) FROM w"
    eng.ingest("s", [(0, 5), (1, 2)])
    before = eng.execute_sql(query).rows
    eng.ingest("s", [(2, -7)])  # aborts; window AND view must roll back
    assert eng.execute_sql(query).rows == before
    eng.ingest("s", [(3, 9)])
    assert eng.execute_sql(query).rows == [(3, 16, 2)]


def test_group_before_join_reads_the_outer_side_from_the_view():
    """A grouped unique-key join over a viewed window aggregates the window
    first — through the delta view — then probes once per group; dropping
    the view sends the same statement back to the window scan."""
    ddl = "CREATE WINDOW w ON s ROWS 6 SLIDE 1"
    eng = build_engine(ddl, view_sql="CREATE VIEW vw AS SELECT g, COUNT(*), SUM(v) FROM w GROUP BY g")
    oracle = build_engine(ddl, oracle=True)
    query = (
        "SELECT w.g, COUNT(*), SUM(w.v) FROM w JOIN live ON live.g = w.g "
        "GROUP BY w.g ORDER BY w.g"
    )
    for e in (eng, oracle):
        e.execute_ddl("CREATE TABLE live (g INTEGER NOT NULL, PRIMARY KEY (g))")
        for g in (0, 2):
            e.execute_sql("INSERT INTO live VALUES (?)", g)
    assert "rewrite: group-before-join" in eng.explain(query)
    for i in range(15):
        row = (i, i % 3, i, None)
        eng.ingest("s", [row])
        oracle.ingest("s", [row])
        hits = eng.stats.extra.get("ivm_view_hits", 0)
        assert_rows_identical(
            eng.execute_sql(query).rows, oracle.execute_sql(query).rows, f"row {i}"
        )
        assert eng.stats.extra.get("ivm_view_hits", 0) == hits + 1
    eng.execute_ddl("DROP VIEW vw")
    hits = eng.stats.extra.get("ivm_view_hits", 0)
    assert eng.execute_sql(query).rows == oracle.execute_sql(query).rows
    assert eng.stats.extra.get("ivm_view_hits", 0) == hits


def test_view_ddl_relowers_a_registered_group_before_join_statement():
    from repro.hstore.procedure import StoredProcedure

    class Board(StoredProcedure):
        name = "board"
        statements = {
            "top": "SELECT w.g, COUNT(*) FROM w JOIN live ON live.g = w.g GROUP BY w.g"
        }

        def run(self, ctx):
            return ctx.execute("top").rows

    eng = build_engine("CREATE WINDOW w ON s ROWS 4 SLIDE 1")
    eng.execute_ddl("CREATE TABLE live (g INTEGER NOT NULL, PRIMARY KEY (g))")
    eng.execute_sql("INSERT INTO live VALUES (1)")
    eng.register_procedure(Board)
    outer = eng.procedures["board"].plans["top"].compiled.group_first.outer
    assert outer.view_read is None
    for i in range(6):
        eng.ingest("s", [(i, i % 2, i, None)])
    eng.execute_ddl("CREATE VIEW vw AS SELECT g, COUNT(*) FROM w GROUP BY g")
    assert outer.view_read is not None
    assert eng.call_procedure("board").data == [(1, 2)]
    eng.execute_ddl("DROP VIEW vw")
    assert outer.view_read is None
    assert eng.call_procedure("board").data == [(1, 2)]
