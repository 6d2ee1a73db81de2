"""Differential fuzzing of scans: the engine ≡ the tree-walking interpreter.

Two engines run every generated statement over the same data:

* *engine* — the default engine: compiled plans, each statement's kernel
  over the table's rows;
* *interpreter* — :func:`tests.oracle.oracle_arm`: the differential oracle.

Both must agree **bit-for-bit**: same rows, same order, same Python types
per cell (an int SUM must not come back as a float — float cells are
compared by their IEEE-754 bit pattern) — or raise the same error with the
same text.  The schema includes FLOAT and NOT NULL columns so the
Neumaier-vs-naive summation trap and NULL-heavy 3VL predicates get
exercised, and every way a table can change — DML, an aborted
transaction's undo (a re-insert below the high-water mark), truncate,
snapshot + crash + recover — is interleaved with the probes, so a scan that
read stale or misordered rows would show.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ReproError
from repro.hstore.engine import HStoreEngine
from repro.hstore.procedure import StoredProcedure
from tests.oracle import oracle_arm

pytestmark = pytest.mark.columnar

DDL = (
    "CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, f FLOAT, "
    "s VARCHAR(16), PRIMARY KEY (id))"
)

float_value = st.one_of(
    st.none(),
    st.sampled_from([0.1, 0.25, -1.5, 3.0, 1e16, -1e16, 0.0]),
    st.integers(-5, 5),
)
row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(-5, 5)),
    float_value,
    st.one_of(st.none(), st.text(alphabet="abc%_", max_size=4)),
)
rows_strategy = st.lists(row_strategy, min_size=0, max_size=10)


# -- random SQL fragments, rendered as text ----------------------------------

num_leaf = st.sampled_from(["a", "f", "id", "0", "1", "-3", "0.5", "NULL", "?"])


def num_expr(depth: int) -> st.SearchStrategy[str]:
    if depth <= 0:
        return num_leaf
    sub = num_expr(depth - 1)
    return st.one_of(
        num_leaf,
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "%"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        sub.map(lambda e: f"(COALESCE({e}, 0))"),
        sub.map(lambda e: f"(ABS({e}))"),
    )


def bool_expr(depth: int) -> st.SearchStrategy[str]:
    base = st.one_of(
        st.tuples(
            num_expr(depth - 1),
            st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
            num_expr(depth - 1),
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(num_expr(depth - 1), num_expr(depth - 1)).map(
            lambda t: f"({t[0]} BETWEEN {t[1]} AND {t[0]})"
        ),
        num_expr(depth - 1).map(lambda e: f"({e} IN (0, 1, NULL))"),
        num_expr(depth - 1).map(lambda e: f"({e} NOT IN (2, -1))"),
        st.sampled_from(["a", "f", "s"]).map(lambda c: f"({c} IS NULL)"),
        st.sampled_from(["a", "f", "s"]).map(lambda c: f"({c} IS NOT NULL)"),
        st.tuples(
            st.sampled_from(["s", "'a'", "NULL"]),
            st.sampled_from(["'a%'", "'%b%'", "'_'", "NULL"]),
        ).map(lambda t: f"({t[0]} LIKE {t[1]})"),
    )
    if depth <= 1:
        return base
    sub = bool_expr(depth - 1)
    return st.one_of(
        base,
        st.tuples(sub, st.sampled_from(["AND", "OR"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        sub.map(lambda e: f"(NOT {e})"),
    )


AGG = st.sampled_from(
    [
        "COUNT(*)",
        "COUNT({0})",
        "SUM({0})",
        "AVG({0})",
        "MIN({0})",
        "MAX({0})",
        "COUNT(DISTINCT {0})",
        "SUM(DISTINCT {0})",
    ]
)


def make_pair(rows, **kwargs) -> tuple[HStoreEngine, HStoreEngine]:
    engine = HStoreEngine(**kwargs)
    interp = oracle_arm(HStoreEngine(**kwargs))
    for eng in (engine, interp):
        eng.execute_ddl(DDL)
        for i, (a, f, s) in enumerate(rows):
            eng.execute_sql("INSERT INTO t VALUES (?, ?, ?, ?)", i, a, f, s)
    return engine, interp


def bits(cell):
    """Type + bit-pattern identity: 1 vs 1.0 vs True must not collapse."""
    if type(cell) is float:
        return ("float", struct.pack("<d", cell))
    return (type(cell).__name__, cell)


def outcome(eng: HStoreEngine, sql: str, *params):
    try:
        result = eng.execute_sql(sql, *params)
    except ReproError as exc:
        return (type(exc).__name__, str(exc))
    rows = result.rows if hasattr(result, "rows") else result
    if isinstance(rows, list):
        return [tuple(bits(cell) for cell in row) for row in rows]
    return rows


def assert_pair_equivalent(rows, sql: str, *params) -> None:
    engine, interp = make_pair(rows)
    want = outcome(interp, sql, *params)
    assert outcome(engine, sql, *params) == want, sql
    probe = "SELECT * FROM t ORDER BY id"
    assert outcome(engine, probe) == outcome(interp, probe), sql


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, where=bool_expr(3), param=st.integers(-5, 5))
def test_filter_scan_equivalent(rows, where, param):
    sql = f"SELECT id, a, f, s FROM t WHERE {where}"
    assert_pair_equivalent(rows, sql, *([param] * sql.count("?")))


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, agg=AGG, arg=num_expr(2), where=bool_expr(2))
def test_global_aggregate_equivalent(rows, agg, arg, where):
    sql = f"SELECT {agg.format(arg)}, COUNT(*) FROM t WHERE {where}"
    assert_pair_equivalent(rows, sql)


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy, agg=AGG, arg=num_expr(1))
def test_unfiltered_aggregate_equivalent(rows, agg, arg):
    sql = f"SELECT {agg.format(arg)} FROM t"
    assert_pair_equivalent(rows, sql)


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy, key=num_expr(2), agg=AGG, where=bool_expr(2))
def test_group_by_equivalent(rows, key, agg, where):
    # group order is first-appearance on every path, so compare directly
    sql = f"SELECT {key}, {agg.format('a')} FROM t WHERE {where} GROUP BY {key}"
    assert_pair_equivalent(rows, sql)


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy, where=bool_expr(2), assign=num_expr(2))
def test_update_equivalent(rows, where, assign):
    sql = f"UPDATE t SET a = {assign}, s = s WHERE {where}"
    assert_pair_equivalent(rows, sql)


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy, where=bool_expr(2))
def test_delete_equivalent(rows, where):
    sql = f"DELETE FROM t WHERE {where}"
    assert_pair_equivalent(rows, sql)


class DeleteThenAbort(StoredProcedure):
    """Deletes the low ids, then aborts: the undo re-inserts them below the
    table's high-water mark (``insert_with_rowid`` -> ``_ensure_sorted``)."""

    name = "delete_then_abort"
    statements = {"del": "DELETE FROM t WHERE id <= ?"}

    def run(self, ctx, pivot):
        ctx.execute("del", pivot)
        ctx.abort("undo the delete")


def apply_step(eng: HStoreEngine, kind: str, arg, fresh_id: int):
    """One way a table changes between scans; returns what the caller saw."""
    if kind == "insert":
        return outcome(eng, "INSERT INTO t VALUES (?, ?, ?, ?)", fresh_id, *arg)
    if kind == "update":
        return outcome(eng, f"UPDATE t SET a = a + 1, f = f WHERE {arg}")
    if kind == "delete":
        return outcome(eng, f"DELETE FROM t WHERE {arg}")
    if kind == "abort":
        return eng.call_procedure("delete_then_abort", arg).success
    if kind == "truncate":
        return eng.execute_ddl("TRUNCATE TABLE t")
    if kind == "snapshot":
        return eng.take_snapshot().through_lsn
    # loses the pending half of a commit group, and a TRUNCATE (DDL is not
    # logged): the recovered rows are not the rows the last scan saw
    return (eng.crash(), eng.recover())


step_strategy = st.one_of(
    st.tuples(st.just("insert"), row_strategy),
    st.tuples(st.just("update"), bool_expr(2)),
    st.tuples(st.just("delete"), bool_expr(2)),
    st.tuples(st.just("abort"), st.integers(0, 6)),
    st.tuples(st.just("truncate"), st.none()),
    st.tuples(st.just("snapshot"), st.none()),
    st.tuples(st.just("recover"), st.none()),
)


@settings(max_examples=40, deadline=None)
@given(
    rows=rows_strategy,
    steps=st.lists(step_strategy, min_size=1, max_size=6),
    probe_where=bool_expr(2),
    arg=num_expr(1),
)
@example(
    rows=[(1, 0.5, "a"), (2, None, "b")],
    steps=[("snapshot", None), ("truncate", None), ("recover", None)],
    probe_where="(id >= 0)",
    arg="a",
)
@example(
    rows=[(1, 0.5, "a"), (2, None, "b"), (3, 1.0, None)],
    steps=[("abort", 1), ("snapshot", None), ("recover", None)],
    probe_where="(id >= 0)",
    arg="f",
)
def test_dml_then_aggregate_equivalent(rows, steps, probe_where, arg):
    # the scans after every step must answer from the rows as they are now
    pair = make_pair(rows, log_group_size=2)
    for eng in pair:
        eng.register_procedure(DeleteThenAbort)
    engine, interp = pair
    probes = (
        f"SELECT COUNT(*), SUM({arg}), MIN(f), MAX(a) FROM t WHERE {probe_where}",
        "SELECT s, COUNT(*), AVG(f) FROM t GROUP BY s",
        f"SELECT id, f FROM t WHERE {probe_where}",
        "SELECT * FROM t ORDER BY id",
    )
    for number, (kind, step_arg) in enumerate([("scan", None)] + steps):
        if kind != "scan":
            fresh_id = 100 + number
            want = apply_step(interp, kind, step_arg, fresh_id)
            assert apply_step(engine, kind, step_arg, fresh_id) == want, kind
        for sql in probes:
            assert outcome(engine, sql) == outcome(interp, sql), (kind, sql)
