"""Scan units: the Table's `_rows_sorted` lazy heal and `insert_many`
atomicity, full scans through the statement kernel against the interpreter
(short-circuits, aggregate types, group order), and the EXPLAIN lane
annotation against the lane counters.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    NullViolationError,
    PrimaryKeyViolationError,
    TypeSystemError,
    UniqueViolationError,
)
from repro.hstore.catalog import Column, Schema, TableEntry
from repro.hstore.engine import HStoreEngine
from repro.hstore.table import Table
from repro.hstore.types import SqlType
from tests.oracle import oracle_arm

pytestmark = pytest.mark.columnar


def make_table(columns, primary_key=()):
    return Table(TableEntry("t", Schema(columns), primary_key=tuple(primary_key)))


class TestSortedFlagHeal:
    def test_plain_inserts_stay_sorted(self):
        table = make_table([Column("v", SqlType.INTEGER, nullable=False)])
        for i in range(5):
            table.insert((i,))
        assert table._rows_sorted
        assert table.rowids() == [0, 1, 2, 3, 4]

    def test_undo_reinsert_breaks_then_heals(self):
        table = make_table([Column("v", SqlType.INTEGER, nullable=False)])
        for i in range(5):
            table.insert((i,))
        before = table.delete(1)
        table.insert_with_rowid(1, before)
        assert not table._rows_sorted
        # any ordered read heals once and stays healed
        assert [row for _rid, row in table.scan()] == [(i,) for i in range(5)]
        assert table._rows_sorted
        assert list(table.storage()) == [0, 1, 2, 3, 4]
        assert table.rows() == [(i,) for i in range(5)]

    def test_engine_abort_path_heals(self, people_engine):
        # scans after an aborted DELETE (undo re-inserts) stay correct
        ee = people_engine.partitions[0].ee
        table = ee.table("people")
        before = table.delete(1)
        table.insert_with_rowid(1, before)
        rows = people_engine.execute_sql("SELECT id FROM people").rows
        assert [r[0] for r in rows] == [1, 2, 3, 4, 5]


class TestInsertMany:
    def make(self):
        return make_table(
            [
                Column("id", SqlType.INTEGER, nullable=False),
                Column("v", SqlType.INTEGER),
            ],
            primary_key=("id",),
        )

    def test_bulk_insert_visible_and_indexed(self):
        table = self.make()
        rowids = table.insert_many([(i, i * 10) for i in range(100)])
        assert rowids == list(range(100))
        assert table.row_count() == 100
        assert table.index("t__pk").lookup((42,)) == {42}

    def test_empty_batch(self):
        assert self.make().insert_many([]) == []

    def test_intra_batch_pk_duplicate_is_atomic(self):
        table = self.make()
        table.insert((0, 0))
        with pytest.raises(PrimaryKeyViolationError):
            table.insert_many([(1, 1), (2, 2), (1, 3)])
        assert table.row_count() == 1  # nothing from the batch landed
        assert table._next_rowid == 1

    def test_conflict_with_live_row_is_atomic(self):
        table = self.make()
        table.insert((5, 0))
        with pytest.raises(PrimaryKeyViolationError):
            table.insert_many([(6, 1), (5, 2)])
        assert table.row_count() == 1

    def test_unique_secondary_and_null_keys(self):
        table = self.make()
        table.add_index("t_v", ("v",), unique=True)
        # NULL keys are never indexed, so they cannot collide
        table.insert_many([(0, None), (1, None), (2, 7)])
        with pytest.raises(UniqueViolationError):
            table.insert_many([(3, 7)])
        assert table.row_count() == 3

    def test_validation_error_is_atomic(self):
        table = self.make()
        with pytest.raises(NullViolationError):
            table.insert_many([(1, 1), (None, 2)])
        assert table.row_count() == 0

    def test_matches_single_row_semantics(self):
        bulk, single = self.make(), self.make()
        rows = [(i, None if i % 3 == 0 else i) for i in range(20)]
        bulk.insert_many(rows)
        for row in rows:
            single.insert(row)
        assert bulk.rows() == single.rows()
        assert bulk._next_rowid == single._next_rowid


QUERIES = [
    ("SELECT COUNT(*), SUM(age), AVG(age), MIN(age), MAX(age) FROM people", ()),
    ("SELECT city, COUNT(*), AVG(age) FROM people GROUP BY city", ()),
    ("SELECT id, name FROM people WHERE age > ?", (28,)),
    ("SELECT id FROM people WHERE age IS NULL", ()),
    ("SELECT id FROM people WHERE city LIKE 'b%' AND age BETWEEN 20 AND 40", ()),
    ("SELECT id FROM people WHERE id IN (1, 3, 5) OR age < 30", ()),
    ("SELECT COUNT(DISTINCT city), SUM(DISTINCT age) FROM people", ()),
    ("SELECT city, COUNT(*) FROM people WHERE age IS NOT NULL GROUP BY city", ()),
]


def _interp_people():
    eng = oracle_arm(HStoreEngine())
    eng.execute_ddl(
        "CREATE TABLE people (id INTEGER NOT NULL, name VARCHAR(32), "
        "age INTEGER, city VARCHAR(32), PRIMARY KEY (id))"
    )
    for row in [
        (1, "alice", 34, "boston"),
        (2, "bob", 28, "boston"),
        (3, "carol", 41, "cambridge"),
        (4, "dave", 28, "somerville"),
        (5, "erin", None, "boston"),
    ]:
        eng.execute_sql("INSERT INTO people VALUES (?, ?, ?, ?)", *row)
    return eng


class TestVectorExecution:
    def test_parity_with_interpreter(self, people_engine):
        oracle = _interp_people()
        for sql, params in QUERIES:
            got = people_engine.execute_sql(sql, *params).rows
            want = oracle.execute_sql(sql, *params).rows
            assert got == want, sql
            assert [tuple(map(type, r)) for r in got] == [
                tuple(map(type, r)) for r in want
            ], sql

    def test_point_lookup_stays_on_row_fast_lane(self, people_engine):
        before = people_engine.stats.snapshot()
        rows = people_engine.execute_sql(
            "SELECT name FROM people WHERE id = ?", 3
        ).rows
        assert rows == [("carol",)]
        after = people_engine.stats.snapshot()
        assert after.get("point_lookups", 0) == before.get("point_lookups", 0) + 1

    def test_and_short_circuits_before_the_division(self, people_engine):
        # the interpreter short-circuits AND before the division for the
        # age = 0 row; the kernel's AND does too, so nothing raises
        people_engine.execute_sql("INSERT INTO people VALUES (6, 'zed', 0, 'x')")
        sql = "SELECT id FROM people WHERE age <> 0 AND 10 / age > 0"
        got = people_engine.execute_sql(sql).rows
        want = _interp_people()
        want.execute_sql("INSERT INTO people VALUES (6, 'zed', 0, 'x')")
        assert got == want.execute_sql(sql).rows

    def test_update_and_delete_between_scans_match_oracle(self):
        # full-scan UPDATE/DELETE between scans: same counts, same rows, and
        # the scans after them see the writes
        engine = HStoreEngine()
        oracle = oracle_arm(HStoreEngine())
        counts = []
        scan = "SELECT COUNT(*), SUM(v), MAX(f) FROM t WHERE f >= 0"
        for eng in (engine, oracle):
            eng.execute_ddl("CREATE TABLE t (id INTEGER NOT NULL, v INTEGER, f FLOAT, PRIMARY KEY (id))")
            for i in range(30):
                eng.execute_sql(
                    "INSERT INTO t VALUES (?, ?, ?)",
                    i, None if i % 7 == 0 else i, i * 0.5,
                )
            eng.execute_sql(scan)
            counts.append(
                (
                    eng.execute_sql("UPDATE t SET v = v * 2, f = f + 1.0 WHERE v > 10"),
                    eng.execute_sql("DELETE FROM t WHERE f > ?", 12.0),
                )
            )
        assert counts[0] == counts[1] and counts[0][0] > 0 and counts[0][1] > 0
        for probe in ("SELECT * FROM t ORDER BY id", scan):
            assert engine.execute_sql(probe).rows == oracle.execute_sql(probe).rows

    def test_empty_table_aggregate(self):
        eng = HStoreEngine()
        eng.execute_ddl("CREATE TABLE t (v INTEGER)")
        assert eng.execute_sql(
            "SELECT COUNT(*), SUM(v), AVG(v), MIN(v) FROM t WHERE v > 0"
        ).rows == [(0, None, None, None)]

    def test_sum_type_fidelity(self):
        # SUM over ints is int; over floats stays float; AVG is float
        eng = HStoreEngine()
        eng.execute_ddl("CREATE TABLE t (i INTEGER NOT NULL, f FLOAT NOT NULL)")
        for i in range(4):
            eng.execute_sql("INSERT INTO t VALUES (?, ?)", i, float(i))
        (si, sf, ai) = eng.execute_sql(
            "SELECT SUM(i), SUM(f), AVG(i) FROM t WHERE i >= 0"
        ).rows[0]
        assert si == 6 and type(si) is int
        assert sf == 6.0 and type(sf) is float
        assert ai == 1.5 and type(ai) is float

    def test_group_order_is_first_appearance(self):
        eng = HStoreEngine()
        eng.execute_ddl("CREATE TABLE t (g VARCHAR, v INTEGER)")
        for g, v in [("b", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 5)]:
            eng.execute_sql("INSERT INTO t VALUES (?, ?)", g, v)
        rows = eng.execute_sql(
            "SELECT g, SUM(v) FROM t WHERE v > 0 GROUP BY g"
        ).rows
        assert rows == [("b", 4), ("a", 7), ("c", 4)]

    def test_group_raises_the_error_the_oracle_meets_first(self):
        # the kernel evaluates the group key and the aggregate argument as
        # two columns; the oracle walks row by row and meets the argument's
        # error on the first row before the key's on the second
        sql = "SELECT 10 / v, MAX(s < 1) FROM t GROUP BY 10 / v"
        errors = []
        for eng in (HStoreEngine(), oracle_arm(HStoreEngine())):
            eng.execute_ddl("CREATE TABLE t (v INTEGER, s VARCHAR)")
            eng.execute_sql("INSERT INTO t VALUES (5, 'x'), (0, 'y')")
            with pytest.raises(TypeSystemError) as raised:
                eng.execute_sql(sql)
            errors.append(str(raised.value))
        assert errors[0] == errors[1] == "cannot compare 'x' < 1"

    def test_ivm_view_still_wins(self):
        # the IVM ViewRead path is checked before the kernel
        from tests.ivm.conftest import build_engine

        eng = build_engine(
            "CREATE WINDOW w ON s ROWS 10 SLIDE 1",
            view_sql="CREATE VIEW vw AS SELECT g, COUNT(*), SUM(v) FROM w GROUP BY g",
        )
        eng.ingest("s", [(i, i % 2, i, None) for i in range(6)])
        rows = eng.execute_sql("SELECT g, COUNT(*), SUM(v) FROM w GROUP BY g").rows
        assert rows == [(0, 3, 6), (1, 3, 9)]
        assert eng.stats.extra.get("ivm_view_hits", 0) >= 1


class TestExplainMode:
    def test_full_scan_is_row(self, people_engine):
        text = people_engine.explain("SELECT COUNT(*) FROM people WHERE age > 30")
        assert "mode: row" in text
        # the kernel's source follows its lane
        assert "| def where(rows, params, ee):" in text
        assert "| def group(rows, params, ee):" in text

    def test_point_lookup_is_row(self, people_engine):
        text = people_engine.explain("SELECT name FROM people WHERE id = 1")
        assert "mode: row" in text

    def test_subquery_predicate_is_row(self, people_engine):
        text = people_engine.explain(
            "SELECT id FROM people WHERE age > (SELECT MIN(age) FROM people)"
        )
        assert text.splitlines()[2].strip() == "mode: row"


def _mode(text: str) -> str:
    """The lane EXPLAIN names for the top-level plan (its first mode line)."""
    return next(
        line.strip()[len("mode: "):]
        for line in text.splitlines()
        if line.strip().startswith("mode: ")
    )


LANE_COUNTERS = ("ivm_view_hits", "point_lookups")


class TestExplainLaneMatchesCounters:
    """EXPLAIN plans the way execution does, so the lane it names is the
    lane the counters record — one statement per lane."""

    VIEW = "CREATE VIEW recent_by_g AS SELECT g, COUNT(*), SUM(v) FROM recent GROUP BY g"

    def streaming(self, **kwargs):
        from tests.ivm.conftest import build_engine

        eng = build_engine(
            "CREATE WINDOW recent ON s ROWS 10 SLIDE 1", view_sql=self.VIEW, **kwargs
        )
        eng.execute_ddl("CREATE TABLE d (g INTEGER NOT NULL, w INTEGER, PRIMARY KEY (g))")
        eng.execute_sql("INSERT INTO d VALUES (0, 1), (1, 2)")
        eng.ingest("s", [(i, i % 2, i, None) for i in range(6)])
        return eng

    def bumped(self, eng, sql, *params):
        before = eng.stats.snapshot()
        eng.execute_sql(sql, *params)
        delta = eng.stats.delta(before)
        return {name for name in LANE_COUNTERS if delta.get(name, 0)}

    def test_view_served_scan_is_not_reported_as_vector(self):
        # regression: explain() planned through planner.plan, which never
        # attaches the delta view, and printed `mode: vector`
        eng = self.streaming()
        sql = "SELECT g, COUNT(*) FROM recent GROUP BY g"
        assert _mode(eng.explain(sql)) == "view(recent_by_g)"
        assert self.bumped(eng, sql) == {"ivm_view_hits"}

    @pytest.mark.parametrize(
        "sql, params, lane, counters",
        [
            ("SELECT w FROM d WHERE g = ?", (1,), "row (point)", {"point_lookups"}),
            (
                "SELECT recent.g, COUNT(*), SUM(recent.v) FROM recent "
                "JOIN d ON d.g = recent.g GROUP BY recent.g",
                (),
                "group-first(view(recent_by_g))",
                {"ivm_view_hits"},
            ),
            (
                "SELECT recent.g, MAX(recent.v) FROM recent "
                "JOIN d ON d.g = recent.g GROUP BY recent.g",
                (),
                "group-first(row)",
                set(),
            ),
            ("SELECT g, MAX(v) FROM recent GROUP BY g", (), "row", set()),
            ("SELECT COUNT(*) FROM recent WHERE v > ?", (2,), "row", set()),
            ("SELECT * FROM recent", (), "row", set()),
            (
                "SELECT g FROM recent WHERE v > (SELECT MIN(w) FROM d)",
                (),
                "row",
                set(),
            ),
        ],
    )
    def test_one_statement_per_lane(self, sql, params, lane, counters):
        eng = self.streaming()
        assert _mode(eng.explain(sql)) == lane
        assert self.bumped(eng, sql, *params) == counters

    def test_interpreter_lane(self):
        # the oracle takes no lane: it bumps none of the lane counters
        eng = self.streaming(oracle=True)
        assert self.bumped(eng, "SELECT g, COUNT(*) FROM recent GROUP BY g") == set()

    def test_dml_is_row(self, people_engine):
        for sql in (
            "UPDATE people SET age = age + 1 WHERE age < 40",
            "DELETE FROM people WHERE age IS NULL",
            "DELETE FROM people WHERE id = 1",
        ):
            assert _mode(people_engine.explain(sql)) == "row"

    def test_explain_procedure_names_the_view(self):
        from repro.hstore.procedure import StoredProcedure

        class Board(StoredProcedure):
            name = "board"
            statements = {
                "by_group": "SELECT g, COUNT(*), SUM(v) FROM recent GROUP BY g",
                "extremes": "SELECT g, MIN(v) FROM recent GROUP BY g",
            }

            def run(self, ctx):  # pragma: no cover
                pass

        eng = self.streaming()
        eng.register_procedure(Board)
        sections = eng.explain_procedure("board").split("-- ")
        by_name = {s.split("\n", 1)[0]: s for s in sections if s}
        assert _mode(by_name["by_group"]) == "view(recent_by_g)"
        assert _mode(by_name["extremes"]) == "row"
        eng.execute_ddl("DROP VIEW recent_by_g")
        assert "mode: view" not in eng.explain_procedure("board")
