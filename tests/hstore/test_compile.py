"""Kernel compilation: compiled plans agree with the interpreter.

The compiler (:mod:`repro.hstore.compile`) turns a planned statement's
expressions into one generated kernel once, at plan time.  These tests pin
down:

* every planned DML statement carries a compiled artifact;
* the point-lookup fast path triggers exactly when eligible (and counts);
* representative queries return identical results compiled vs. the
  interpreter (:func:`tests.oracle.oracle_arm`);
* compiled expressions preserve interpreted error semantics (binding
  errors, type errors, division by zero).
"""

from __future__ import annotations

import sys

import pytest

from repro.errors import BindingError, TypeSystemError
from repro.hstore.compile import (
    CompiledDelete,
    CompiledInsert,
    CompiledSelect,
    CompiledUpdate,
)
from repro.hstore.engine import HStoreEngine
from repro.hstore.executor import ExecutionEngine
from repro.hstore.parser import parse
from tests.oracle import compile_expression, oracle_arm


PEOPLE_DDL = (
    "CREATE TABLE people (id INTEGER NOT NULL, name VARCHAR(32), "
    "age INTEGER, city VARCHAR(32), PRIMARY KEY (id))"
)
PEOPLE_ROWS = [
    (1, "alice", 34, "boston"),
    (2, "bob", 28, "boston"),
    (3, "carol", 41, "cambridge"),
    (4, "dave", 28, "somerville"),
    (5, "erin", None, "boston"),
]


def make_people(oracle: bool = False) -> HStoreEngine:
    eng = oracle_arm(HStoreEngine()) if oracle else HStoreEngine()
    eng.execute_ddl(PEOPLE_DDL)
    for row in PEOPLE_ROWS:
        eng.execute_sql("INSERT INTO people VALUES (?, ?, ?, ?)", *row)
    return eng


class TestArtifacts:
    def test_planned_statements_carry_compiled_artifacts(self):
        eng = make_people()
        plan = eng.planner.plan(parse("SELECT name FROM people WHERE age > 30"))
        assert isinstance(plan.compiled, CompiledSelect)
        plan = eng.planner.plan(parse("INSERT INTO people VALUES (?, ?, ?, ?)"))
        assert isinstance(plan.compiled, CompiledInsert)
        plan = eng.planner.plan(parse("UPDATE people SET age = age + 1 WHERE id = 1"))
        assert isinstance(plan.compiled, CompiledUpdate)
        plan = eng.planner.plan(parse("DELETE FROM people WHERE id = 1"))
        assert isinstance(plan.compiled, CompiledDelete)

    def test_subquery_plans_are_compiled_too(self):
        eng = make_people()
        plan = eng.planner.plan(
            parse(
                "SELECT name FROM people WHERE id IN "
                "(SELECT id FROM people WHERE city = 'boston')"
            )
        )
        assert isinstance(plan.compiled, CompiledSelect)
        [sub] = [
            node.plan
            for node in _walk_planned_subqueries(plan)
        ]
        assert isinstance(sub.compiled, CompiledSelect)

    def test_insert_all_parameters_uses_param_rows_fast_path(self):
        # the all-parameter rows and the expression rows share one kernel
        # function, values(); with every slot supplied in order its tuple
        # IS the stored row
        eng = make_people()
        plan = eng.planner.plan(parse("INSERT INTO people VALUES (?, ?, ?, ?)"))
        assert plan.compiled.identity_slots
        assert plan.compiled.values((), (1, "a", 2, "b"), None) == [(1, "a", 2, "b")]
        assert plan.compiled.source.count("def ") == 1

    def test_insert_expressions_fall_back_to_row_fns(self):
        # expression rows are folded into the same values() function as
        # parameter rows, not into a second function per row
        eng = make_people()
        plan = eng.planner.plan(
            parse("INSERT INTO people VALUES (?, ?, 1 + 2, ?), (?, ?, NULL, ?)")
        )
        rows = plan.compiled.values((), (1, "a", "b", 2, "c", "d"), None)
        assert rows == [(1, "a", 3, "b"), (2, "c", None, "d")]
        assert plan.compiled.source.count("def ") == 1

def _walk_planned_subqueries(plan):
    from repro.hstore.expression import (
        PlannedExists,
        PlannedInSubquery,
        PlannedScalarSubquery,
    )

    seen = []
    stack = [plan.where] if plan.where is not None else []
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, (PlannedInSubquery, PlannedExists, PlannedScalarSubquery)):
            seen.append(node)
        stack.extend(getattr(node, "children", lambda: [])())
    return seen


class TestPointLookupFastPath:
    def test_pk_equality_is_a_point_lookup(self):
        eng = make_people()
        plan = eng.planner.plan(parse("SELECT name FROM people WHERE id = ?"))
        assert plan.compiled.point_lookup
        before = eng.stats.snapshot()
        assert eng.execute_sql("SELECT name FROM people WHERE id = ?", 3).scalar() == (
            "carol"
        )
        assert eng.stats.delta(before).get("point_lookups", 0) == 1

    def test_residual_predicate_disables_point_lookup(self):
        eng = make_people()
        plan = eng.planner.plan(
            parse("SELECT name FROM people WHERE id = ? AND age > 30")
        )
        assert not plan.compiled.point_lookup

    def test_aggregate_disables_point_lookup(self):
        eng = make_people()
        plan = eng.planner.plan(parse("SELECT COUNT(*) FROM people WHERE id = ?"))
        assert not plan.compiled.point_lookup

    def test_point_lookup_results_match_interpreter(self):
        compiled, interpreted = make_people(), make_people(oracle=True)
        for key in (0, 1, 3, 5, 99):
            sql = "SELECT * FROM people WHERE id = ?"
            assert (
                compiled.execute_sql(sql, key).rows
                == interpreted.execute_sql(sql, key).rows
            )


#: queries covering scan/filter/join/aggregate/sort/distinct/limit paths
PARITY_QUERIES = [
    ("SELECT * FROM people", ()),
    ("SELECT name, age * 2 FROM people WHERE age >= ?", (28,)),
    ("SELECT name FROM people WHERE age IS NULL", ()),
    ("SELECT name FROM people WHERE city = 'boston' AND age < 30", ()),
    ("SELECT name FROM people WHERE id IN (1, 3, 99)", ()),
    ("SELECT name FROM people WHERE age BETWEEN ? AND ?", (28, 34)),
    ("SELECT name FROM people WHERE name LIKE '%a%'", ()),
    ("SELECT DISTINCT city FROM people ORDER BY city", ()),
    ("SELECT city, COUNT(*), AVG(age) FROM people GROUP BY city", ()),
    (
        "SELECT city, COUNT(*) FROM people GROUP BY city "
        "HAVING COUNT(*) > 1 ORDER BY city",
        (),
    ),
    ("SELECT name FROM people ORDER BY age DESC, id LIMIT 3", ()),
    ("SELECT MIN(age), MAX(age), SUM(age) FROM people", ()),
    ("SELECT COUNT(age), COUNT(*) FROM people", ()),
    (
        "SELECT a.name, b.name FROM people a JOIN people b ON a.city = b.city "
        "WHERE a.id < b.id ORDER BY a.id, b.id",
        (),
    ),
    (
        "SELECT name FROM people WHERE EXISTS "
        "(SELECT 1 FROM people p2 WHERE p2.city = people.city AND p2.id <> people.id)",
        (),
    ),
    (
        "SELECT name, CASE WHEN age IS NULL THEN 'unknown' "
        "WHEN age < 30 THEN 'young' ELSE 'old' END FROM people ORDER BY id",
        (),
    ),
]


class TestCompiledInterpretedParity:
    @pytest.mark.parametrize("sql,params", PARITY_QUERIES)
    def test_select_parity(self, sql, params):
        compiled, interpreted = make_people(), make_people(oracle=True)
        got = compiled.execute_sql(sql, *params)
        want = interpreted.execute_sql(sql, *params)
        assert got.rows == want.rows
        assert got.columns == want.columns

    def test_update_parity(self):
        compiled, interpreted = make_people(), make_people(oracle=True)
        sql = "UPDATE people SET age = age + 1, city = 'x' WHERE age >= 30"
        assert compiled.execute_sql(sql) == interpreted.execute_sql(sql)
        probe = "SELECT * FROM people ORDER BY id"
        assert compiled.execute_sql(probe).rows == interpreted.execute_sql(probe).rows

    def test_delete_parity(self):
        compiled, interpreted = make_people(), make_people(oracle=True)
        sql = "DELETE FROM people WHERE age IS NULL OR city = 'boston'"
        assert compiled.execute_sql(sql) == interpreted.execute_sql(sql)
        probe = "SELECT * FROM people ORDER BY id"
        assert compiled.execute_sql(probe).rows == interpreted.execute_sql(probe).rows

    def test_insert_select_parity(self):
        ddl = (
            "CREATE TABLE ages (id INTEGER NOT NULL, age INTEGER, "
            "PRIMARY KEY (id))"
        )
        compiled, interpreted = make_people(), make_people(oracle=True)
        for eng in (compiled, interpreted):
            eng.execute_ddl(ddl)
            eng.execute_sql(
                "INSERT INTO ages SELECT id, age FROM people WHERE age IS NOT NULL"
            )
        probe = "SELECT * FROM ages ORDER BY id"
        assert compiled.execute_sql(probe).rows == interpreted.execute_sql(probe).rows


class TestCompiledErrorSemantics:
    def test_unbound_parameter_message_matches_interpreter(self):
        compiled, interpreted = make_people(), make_people(oracle=True)
        sql = "SELECT name FROM people WHERE id = ?"
        with pytest.raises(BindingError) as compiled_err:
            compiled.execute_sql(sql)
        with pytest.raises(BindingError) as interpreted_err:
            interpreted.execute_sql(sql)
        assert str(compiled_err.value) == str(interpreted_err.value)

    def test_division_by_zero(self):
        eng = make_people()
        with pytest.raises(TypeSystemError, match="division by zero"):
            eng.execute_sql("SELECT 1 / (id - id) FROM people")

    def test_null_division_is_null_not_an_error(self):
        eng = make_people()
        assert eng.execute_sql("SELECT 1 / NULL FROM people WHERE id = 1").scalar() is (
            None
        )

    def test_incomparable_types_raise(self):
        eng = make_people()
        with pytest.raises(TypeSystemError, match="cannot compare"):
            eng.execute_sql("SELECT * FROM people WHERE name < id")


class TestCompileExprUnit:
    def test_comparison_compiles_to_closure(self):
        expr = parse("SELECT id + 1 FROM t WHERE id = 1").where
        fn = compile_expression(expr, {"id": 0})
        assert fn((1,)) is True
        assert fn((2,)) is False

    def test_unresolvable_column_raises_when_evaluated(self):
        expr = parse("SELECT 1 FROM t WHERE id = 1").where
        fn = compile_expression(expr, {"x": 0})  # lowering itself succeeds
        with pytest.raises(BindingError, match=r"cannot resolve column 'id'; known: \['x'\]"):
            fn((1,))

    def test_long_in_lists_and_boolean_chains_compile(self):
        # a kernel spells an IN list, AND and OR as one flat chain, and a
        # subtree past a fixed depth as a function of its own: neither 3 000
        # terms nor a 500-deep left spine nests past CPython's parser limit
        eng = make_people()
        terms = range(10, 3010)
        in_list = ", ".join(str(i) for i in terms)
        for sql in (
            f"SELECT id FROM people WHERE id IN (2, {in_list})",
            "SELECT id FROM people WHERE id = 2 OR "
            + " OR ".join(f"id = {i}" for i in terms),
            "SELECT id FROM people WHERE age > 30 AND "
            + " AND ".join(f"id <> {i}" for i in terms),
            "SELECT " + " + ".join(["age"] * 500) + " FROM people",
            "SELECT " + " || ".join(["name", "', '"] * 250) + " FROM people",
            "SELECT " + "- " * 200 + "age FROM people",
            "SELECT id FROM people WHERE " + "NOT " * 200 + "(age > 30)",
            "SELECT id FROM people WHERE "
            + "NOT " * 199
            + "(age + "
            + " * ".join(["id"] * 300)
            + " > 30)",
        ):
            got = eng.execute_sql(sql).rows
            # the oracle walks the tree at two Python frames a level
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(limit + 2000)
            try:
                want = make_people(oracle=True).execute_sql(sql).rows
            finally:
                sys.setrecursionlimit(limit)
            assert got == want

    def test_three_valued_logic_and_or(self):
        columns = {"a": 0, "b": 1}
        stmt = parse("SELECT 1 FROM t WHERE a < 1 OR b < 1")
        fn = compile_expression(stmt.where, columns)
        assert fn((None, 0)) is True  # NULL OR TRUE = TRUE
        assert fn((None, 5)) is None  # NULL OR FALSE = NULL
        stmt = parse("SELECT 1 FROM t WHERE a < 1 AND b < 1")
        fn = compile_expression(stmt.where, columns)
        assert fn((None, 5)) is False  # NULL AND FALSE = FALSE
        assert fn((None, 0)) is None  # NULL AND TRUE = NULL


# -- group-before-join ---------------------------------------------------------

GROUP_FIRST_DDL = [
    "CREATE TABLE f (id INTEGER NOT NULL, k INTEGER, k2 INTEGER, v INTEGER, "
    "PRIMARY KEY (id))",
    "CREATE TABLE d (k INTEGER NOT NULL, w INTEGER, PRIMARY KEY (k))",
    "CREATE TABLE d2 (k INTEGER NOT NULL, k2 INTEGER NOT NULL, w INTEGER, "
    "PRIMARY KEY (k, k2))",
    "CREATE TABLE e (k INTEGER NOT NULL, w INTEGER)",
    "CREATE INDEX e_by_k ON e (k)",
]


def make_group_first(oracle: bool = False) -> HStoreEngine:
    eng = oracle_arm(HStoreEngine()) if oracle else HStoreEngine()
    for ddl in GROUP_FIRST_DDL:
        eng.execute_ddl(ddl)
    # keys 1 and 2 join, 3 was "eliminated" from d, NULL never joins
    facts = [(1, 5), (2, 7), (1, 0), (3, 2), (None, 9), (2, 1), (3, 0), (1, 4)]
    for i, (k, v) in enumerate(facts):
        eng.execute_sql("INSERT INTO f VALUES (?, ?, ?, ?)", i, k, k, v)
    for k in (1, 2, 4):
        eng.execute_sql("INSERT INTO d VALUES (?, ?)", k, 10 * k)
        eng.execute_sql("INSERT INTO d2 VALUES (?, ?, ?)", k, k, 10 * k)
        eng.execute_sql("INSERT INTO e VALUES (?, ?)", k, 10 * k)
    return eng


class TestGroupBeforeJoin:
    FIRES = [
        "SELECT f.k, COUNT(*) FROM f JOIN d ON d.k = f.k GROUP BY f.k",
        "SELECT f.k, COUNT(*) AS n, SUM(f.v) FROM f JOIN d ON d.k = f.k "
        "WHERE f.v > 0 GROUP BY f.k HAVING COUNT(*) > 1 "
        "ORDER BY n DESC, f.k LIMIT 2",
        "SELECT f.k, f.k2, MAX(f.v) FROM f JOIN d2 ON d2.k = f.k AND d2.k2 = f.k2 "
        "GROUP BY f.k, f.k2",
        "SELECT f.k2, f.k, COUNT(DISTINCT f.v) FROM f JOIN d ON d.k = f.k "
        "JOIN d2 ON d2.k = f.k AND d2.k2 = f.k2 GROUP BY f.k2, f.k",
    ]
    MUST_NOT_FIRE = [
        # an unmatched outer row survives a LEFT JOIN
        "SELECT f.k, COUNT(*) FROM f LEFT JOIN d ON d.k = f.k GROUP BY f.k",
        # a non-unique inner index may match an outer row more than once
        "SELECT f.k, COUNT(*) FROM f JOIN e ON e.k = f.k GROUP BY f.k",
        # a residual ON predicate reads the inner row
        "SELECT f.k, COUNT(*) FROM f JOIN d ON d.k = f.k AND d.w > 10 GROUP BY f.k",
        # inner columns in SELECT / HAVING / ORDER BY / an aggregate
        "SELECT d.w, COUNT(*) FROM f JOIN d ON d.k = f.k GROUP BY d.w",
        "SELECT f.k, COUNT(*) FROM f JOIN d ON d.k = f.k GROUP BY f.k "
        "HAVING MAX(d.w) > 10",
        "SELECT f.k, COUNT(*) FROM f JOIN d ON d.k = f.k GROUP BY f.k "
        "ORDER BY MIN(d.w) DESC",
        "SELECT f.k, SUM(d.w) FROM f JOIN d ON d.k = f.k GROUP BY f.k",
        # the probe key is not a GROUP BY key: a group may half-join
        "SELECT f.v, COUNT(*) FROM f JOIN d ON d.k = f.k GROUP BY f.v",
        # WHERE reads the inner row
        "SELECT f.k, COUNT(*) FROM f JOIN d ON d.k = f.k WHERE d.w > 10 GROUP BY f.k",
    ]

    @pytest.mark.parametrize("sql", FIRES)
    def test_fires_named_in_explain_and_matches_the_interpreter(self, sql):
        compiled, oracle = make_group_first(), make_group_first(oracle=True)
        assert "rewrite: group-before-join" in compiled.explain(sql)
        # the oracle arm runs its own runner, not the engine's
        assert oracle.planner.plan(parse(sql)).run is not ExecutionEngine._select
        assert compiled.execute_sql(sql).rows == oracle.execute_sql(sql).rows

    @pytest.mark.parametrize("sql", MUST_NOT_FIRE)
    def test_must_not_fire(self, sql):
        compiled, oracle = make_group_first(), make_group_first(oracle=True)
        assert "group-before-join" not in compiled.explain(sql)
        assert compiled.execute_sql(sql).rows == oracle.execute_sql(sql).rows

    def test_eliminated_and_null_keys_drop_their_groups(self):
        eng = make_group_first()
        rows = eng.execute_sql(self.FIRES[0]).rows
        assert rows == [(1, 3), (2, 2)]  # first-appearance order; 3 and NULL gone

    def test_error_on_a_row_the_join_drops_does_not_surface(self):
        # v = 0 only on rows that reach the division *before* the join in
        # group-first order; in join order key 3's rows are dropped first
        sql = (
            "SELECT f.k, SUM(10 / f.v) FROM f JOIN d ON d.k = f.k "
            "WHERE f.k = 2 OR f.k = 3 GROUP BY f.k"
        )
        compiled, oracle = make_group_first(), make_group_first(oracle=True)
        assert "rewrite: group-before-join" in compiled.explain(sql)
        assert compiled.execute_sql(sql).rows == oracle.execute_sql(sql).rows == [(2, 11)]
        # and an error both orders hit is the same error
        sql = "SELECT f.k, SUM(10 / f.v) FROM f JOIN d ON d.k = f.k GROUP BY f.k"
        with pytest.raises(TypeSystemError) as want:
            oracle.execute_sql(sql)
        with pytest.raises(TypeSystemError) as got:
            compiled.execute_sql(sql)
        assert str(got.value) == str(want.value)
