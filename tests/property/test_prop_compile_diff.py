"""Differential fuzzing: compiled execution ≡ the tree-walking interpreter.

The kernel compiler (:mod:`repro.hstore.compile`) must be *semantically
invisible*: for any statement, a default engine and one on the oracle's
runners (:func:`tests.oracle.oracle_arm`) over the same data must produce
identical rows — or raise the same error.  Hypothesis drives random expression trees
(rendered to SQL text, so both sides also share the parse), random rows
with plenty of NULLs, and random parameter bindings; exceptions are
compared as outcomes, not failures, so error-path divergence is caught
too (three-valued logic, division by zero, type mismatches).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.hstore.engine import HStoreEngine
from tests.oracle import oracle_arm

pytestmark = pytest.mark.compile

DDL = (
    "CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, b INTEGER, "
    "s VARCHAR(16), PRIMARY KEY (id))"
)

row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(-5, 5)),
    st.one_of(st.none(), st.integers(-5, 5)),
    st.one_of(st.none(), st.text(alphabet="abc%_", max_size=4)),
)
rows_strategy = st.lists(row_strategy, min_size=0, max_size=8)


# -- random SQL expression trees, rendered as text ---------------------------

int_leaf = st.sampled_from(["a", "b", "id", "0", "1", "2", "-3", "NULL", "?"])
str_leaf = st.sampled_from(["s", "'a'", "'ab'", "'%a%'", "NULL"])


def int_expr(depth: int) -> st.SearchStrategy[str]:
    if depth <= 0:
        return int_leaf
    sub = int_expr(depth - 1)
    return st.one_of(
        int_leaf,
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "%"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, sub, sub).map(
            lambda t: f"(CASE WHEN {t[0]} > {t[1]} THEN {t[2]} ELSE {t[0]} END)"
        ),
        sub.map(lambda e: f"(COALESCE({e}, 0))"),
    )


def bool_expr(depth: int) -> st.SearchStrategy[str]:
    base = st.one_of(
        st.tuples(
            int_expr(depth - 1),
            st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
            int_expr(depth - 1),
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(int_expr(depth - 1), int_expr(depth - 1)).map(
            lambda t: f"({t[0]} BETWEEN {t[1]} AND {t[0]})"
        ),
        int_expr(depth - 1).map(lambda e: f"({e} IN (0, 1, NULL))"),
        st.sampled_from(["a", "b", "s"]).map(lambda c: f"({c} IS NULL)"),
        st.tuples(str_leaf, str_leaf).map(lambda t: f"({t[0]} LIKE {t[1]})"),
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


def make_pair(rows) -> tuple[HStoreEngine, HStoreEngine]:
    compiled, interpreted = HStoreEngine(), oracle_arm(HStoreEngine())
    for eng in (compiled, interpreted):
        eng.execute_ddl(DDL)
        for i, (a, b, s) in enumerate(rows):
            eng.execute_sql("INSERT INTO t VALUES (?, ?, ?, ?)", i, a, b, s)
    return compiled, interpreted


def outcome(eng: HStoreEngine, sql: str, *params):
    """Rows on success, ``(type, message)`` on an engine error."""
    try:
        result = eng.execute_sql(sql, *params)
    except ReproError as exc:
        return (type(exc).__name__, str(exc))
    return result.rows if hasattr(result, "rows") else result


def assert_equivalent(rows, sql: str, *params) -> None:
    compiled, interpreted = make_pair(rows)
    assert outcome(compiled, sql, *params) == outcome(interpreted, sql, *params)
    # DML fuzzing: also compare the tables the statements left behind
    probe = "SELECT * FROM t ORDER BY id"
    assert compiled.execute_sql(probe).rows == interpreted.execute_sql(probe).rows


@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy, where=bool_expr(3), param=st.integers(-5, 5))
def test_select_where_equivalent(rows, where, param):
    sql = f"SELECT id, a, b, s FROM t WHERE {where}"
    assert_equivalent(rows, sql, *([param] * sql.count("?")))


@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy, proj=int_expr(3), param=st.integers(-5, 5))
def test_select_projection_equivalent(rows, proj, param):
    sql = f"SELECT id, {proj} FROM t ORDER BY id"
    assert_equivalent(rows, sql, *([param] * sql.count("?")))


@settings(max_examples=80, deadline=None)
@given(rows=rows_strategy, agg_of=int_expr(2), where=bool_expr(2))
def test_aggregate_equivalent(rows, agg_of, where):
    sql = (
        f"SELECT COUNT(*), COUNT({agg_of}), SUM({agg_of}), "
        f"MIN({agg_of}), MAX({agg_of}), AVG({agg_of}) FROM t WHERE {where}"
    )
    assert_equivalent(rows, sql)


@settings(max_examples=80, deadline=None)
@given(rows=rows_strategy, key=int_expr(2), where=bool_expr(2))
def test_group_by_equivalent(rows, key, where):
    sql = f"SELECT {key}, COUNT(*) FROM t WHERE {where} GROUP BY {key}"
    compiled, interpreted = make_pair(rows)
    got, want = outcome(compiled, sql), outcome(interpreted, sql)
    if isinstance(got, list):
        got = sorted(got, key=repr)
    if isinstance(want, list):
        want = sorted(want, key=repr)
    assert got == want


@settings(max_examples=80, deadline=None)
@given(rows=rows_strategy, where=bool_expr(2), assign=int_expr(2))
def test_update_equivalent(rows, where, assign):
    sql = f"UPDATE t SET a = {assign}, b = a WHERE {where}"
    assert_equivalent(rows, sql)


@settings(max_examples=80, deadline=None)
@given(rows=rows_strategy, where=bool_expr(2))
def test_delete_equivalent(rows, where):
    sql = f"DELETE FROM t WHERE {where}"
    assert_equivalent(rows, sql)


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, where=bool_expr(2))
def test_order_limit_equivalent(rows, where):
    sql = (
        f"SELECT a, b FROM t WHERE {where} "
        f"ORDER BY a DESC, b, id LIMIT 4 OFFSET 1"
    )
    assert_equivalent(rows, sql)


# -- group-before-join: aggregate-then-probe ≡ join-then-aggregate ------------

GROUP_FIRST_DDL = [
    "CREATE TABLE f (id INTEGER NOT NULL, k INTEGER, k2 INTEGER, v INTEGER, "
    "PRIMARY KEY (id))",
    "CREATE TABLE d (k INTEGER NOT NULL, w INTEGER, PRIMARY KEY (k))",
    "CREATE TABLE d2 (k INTEGER NOT NULL, k2 INTEGER NOT NULL, PRIMARY KEY (k, k2))",
]
key = st.one_of(st.none(), st.integers(0, 3))
fact_rows = st.lists(st.tuples(key, key, st.one_of(st.none(), st.integers(-3, 3))), max_size=14)
GROUP_FIRST_SELECTS = [
    ("f.k", "JOIN d ON d.k = f.k", "f.k"),
    ("f.k, f.k2", "JOIN d2 ON d2.k = f.k AND d2.k2 = f.k2", "f.k, f.k2"),
    ("f.k2, f.k", "JOIN d ON d.k = f.k JOIN d2 ON d2.k = f.k AND d2.k2 = f.k2", "f.k2, f.k"),
]
GROUP_FIRST_TAILS = [
    "",
    "HAVING COUNT(*) > 1",
    "HAVING SUM(f.v) IS NOT NULL ORDER BY f.k DESC",
    "ORDER BY COUNT(*) DESC, f.k LIMIT 2",
    "ORDER BY f.k LIMIT 3 OFFSET 1",
]


@settings(max_examples=120, deadline=None)
@given(
    facts=fact_rows,
    live=st.sets(st.integers(0, 3)),  # keys absent from the dims are "eliminated"
    shape=st.sampled_from(GROUP_FIRST_SELECTS),
    where=st.sampled_from(["", "WHERE f.v >= 0", "WHERE f.v IS NOT NULL AND f.k2 < 3"]),
    tail=st.sampled_from(GROUP_FIRST_TAILS),
)
def test_group_before_join_equivalent(facts, live, shape, where, tail):
    keys, joins, group_by = shape
    sql = (
        f"SELECT {keys}, COUNT(*), COUNT(f.v), SUM(f.v), MIN(f.v), MAX(f.v) "
        f"FROM f {joins} {where} GROUP BY {group_by} {tail}"
    )
    compiled, interpreted = HStoreEngine(), oracle_arm(HStoreEngine())
    for eng in (compiled, interpreted):
        for ddl in GROUP_FIRST_DDL:
            eng.execute_ddl(ddl)
        for i, (k, k2, v) in enumerate(facts):
            eng.execute_sql("INSERT INTO f VALUES (?, ?, ?, ?)", i, k, k2, v)
        for k in sorted(live):
            eng.execute_sql("INSERT INTO d VALUES (?, ?)", k, k)
            for k2 in sorted(live):
                if (k + k2) % 2 == 0:
                    eng.execute_sql("INSERT INTO d2 VALUES (?, ?)", k, k2)
    assert "rewrite: group-before-join" in compiled.explain(sql)
    # exact lists: surviving groups keep their first-appearance order
    assert outcome(compiled, sql) == outcome(interpreted, sql)


# -- ORDER BY: stable per-key sort passes ≡ the interpreter's comparator ------

ORDER_DDL = (
    "CREATE TABLE o (id INTEGER NOT NULL, i INTEGER, f FLOAT, s VARCHAR(4), "
    "PRIMARY KEY (id))"
)
#: few distinct values, so duplicate keys, NULLs and 1 == 1.0 ties are common
order_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-2, 2)),
        st.one_of(st.none(), st.sampled_from([-1.5, -1.0, 0.0, 1.0, 2.5])),
        st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b"])),
    ),
    max_size=12,
)
ORDER_KEYS = [
    "i",
    "f",
    "s",
    "i * f",
    "COALESCE(f, i)",  # int or float, row by row
    "(CASE WHEN id % 2 = 0 THEN i ELSE f END)",
]
order_by = st.lists(
    st.tuples(st.sampled_from(ORDER_KEYS), st.sampled_from(["", " ASC", " DESC"])),
    min_size=1,
    max_size=3,
).map(lambda keys: ", ".join(expr + direction for expr, direction in keys))
ORDER_TAILS = ["", "LIMIT 3", "LIMIT 5 OFFSET 2", "LIMIT 1 OFFSET 20"]


def order_pair(rows) -> tuple[HStoreEngine, HStoreEngine]:
    compiled, interpreted = HStoreEngine(), oracle_arm(HStoreEngine())
    for eng in (compiled, interpreted):
        eng.execute_ddl(ORDER_DDL)
        for n, (i, f, s) in enumerate(rows):
            eng.execute_sql("INSERT INTO o VALUES (?, ?, ?, ?)", n, i, f, s)
    return compiled, interpreted


@settings(max_examples=200, deadline=None)
@given(rows=order_rows, order=order_by, tail=st.sampled_from(ORDER_TAILS))
def test_order_by_equivalent(rows, order, tail):
    # no unique tie-breaker: rows the keys cannot tell apart must keep the
    # scan order on both sides, so the lists are compared exactly
    sql = f"SELECT id, i, f, s FROM o ORDER BY {order} {tail}"
    compiled, interpreted = order_pair(rows)
    assert outcome(compiled, sql) == outcome(interpreted, sql)


@pytest.mark.parametrize("direction", ["ASC", "DESC"])
def test_order_by_mixed_str_and_int_key_raises_the_same_error(direction):
    sql = (
        "SELECT id FROM o "
        f"ORDER BY (CASE WHEN id = 0 THEN s ELSE i END) {direction}, id"
    )
    raised = []
    for eng in order_pair([(1, None, "a"), (2, None, "b"), (None, None, None)]):
        with pytest.raises(TypeError) as excinfo:
            eng.execute_sql(sql)
        raised.append(type(excinfo.value))
    assert raised == [TypeError, TypeError]


@pytest.mark.parametrize("direction", ["ASC", "DESC"])
@pytest.mark.parametrize("tail", ["", "LIMIT 1"])
def test_order_by_mixed_key_behind_a_separating_key_sorts_like_the_oracle(
    direction, tail
):
    # every row has its own leading key, so the oracle never compares the
    # second key, whose values mix a str (row 0) with ints
    sql = (
        f"SELECT id FROM o ORDER BY i {direction}, "
        f"(CASE WHEN id = 0 THEN s ELSE id END) {tail}"
    )
    compiled, interpreted = order_pair([(1, None, "a"), (2, None, "b"), (3, None, "c")])
    ordered = [(0,), (1,), (2,)] if direction == "ASC" else [(2,), (1,), (0,)]
    want = interpreted.execute_sql(sql).rows
    assert want == (ordered[:1] if tail else ordered)
    assert compiled.execute_sql(sql).rows == want
