"""Column cache + batch-at-a-time execution units.

Covers the per-table column cache (lazy per-column build, dropped by every
mutation, aligned with the row dict), the Table satellites (`_rows_sorted`
lazy heal, `insert_many` atomicity), vector execution parity against the
interpreter, the runtime fallback seam, and the EXPLAIN mode annotation.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    NullViolationError,
    PrimaryKeyViolationError,
    UniqueViolationError,
)
from repro.hstore.catalog import Column, Schema, TableEntry
from repro.hstore.engine import HStoreEngine
from repro.hstore.table import Table
from repro.hstore.types import SqlType
from tests.lanes import compiled_row_arm
from tests.oracle import oracle_arm

pytestmark = pytest.mark.columnar


def make_table(columns, primary_key=()):
    return Table(TableEntry("t", Schema(columns), primary_key=tuple(primary_key)))


def typed_table() -> Table:
    return make_table(
        [
            Column("i", SqlType.INTEGER, nullable=False),
            Column("b", SqlType.BIGINT, nullable=False),
            Column("f", SqlType.FLOAT, nullable=False),
            Column("ts", SqlType.TIMESTAMP, nullable=False),
            Column("s", SqlType.VARCHAR),
            Column("ni", SqlType.INTEGER),
            Column("bo", SqlType.BOOLEAN, nullable=False),
        ]
    )


class TestColumnStoreLayout:
    def test_round_trip_and_alignment(self):
        table = typed_table()
        int64_min, int64_max = -(2**63), 2**63 - 1
        rows = [
            (i, int64_min if i == 0 else int64_max, i * 0.25, i, f"s{i}", None if i % 2 else i, i % 2 == 0)
            for i in range(10)
        ]
        for row in rows:
            table.insert(row)
        view = table.columnar_view()
        assert view.size() == 10
        for offset in range(7):
            column = view.column(offset)
            assert column == [row[offset] for row in rows]
            # the cells are the row tuples' own objects: BOOLEAN stays bool,
            # a FLOAT that holds an int-valued float stays float
            assert all(a is b for a, b in zip(column, (r[offset] for r in table.rows())))

    def test_lazy_build(self):
        table = typed_table()
        table.insert((1, 1, 1.0, 1, None, None, False))
        assert table._colstore is None  # nothing until a columnar scan
        view = table.columnar_view()
        assert table._colstore is view and view._cols == {}
        view.column(2)
        assert list(view._cols) == [2]  # only the column that was asked for
        assert view.column(2) is view.column(2)  # kept until the table changes

    def test_delete_tombstone_then_compact(self):
        # (the name predates the cache: a delete now simply drops it)
        table = typed_table()
        rowids = [table.insert((i, i, float(i), i, None, None, False)) for i in range(6)]
        held = table.columnar_view().column(0)
        table.delete(rowids[1])
        table.delete(rowids[4])
        assert table._colstore is None
        view = table.columnar_view()
        assert view.size() == 4
        assert view.column(0) == [0, 2, 3, 5]
        assert list(table.storage()) == [rowids[0], rowids[2], rowids[3], rowids[5]]
        # a vector handed out earlier is never mutated in place
        assert held == [0, 1, 2, 3, 4, 5]

    def test_update_in_place(self):
        table = typed_table()
        rowid = table.insert((1, 1, 1.0, 1, "a", None, False))
        table.columnar_view().column(0)
        table.update(rowid, (9, 9, 9.5, 9, "z", 3, True))
        view = table.columnar_view()
        assert view.column(0)[0] == 9
        assert view.column(2)[0] == 9.5
        assert view.column(4)[0] == "z"
        assert view.column(5)[0] == 3

    def test_truncate_clears(self):
        table = typed_table()
        table.insert((1, 1, 1.0, 1, None, None, False))
        table.columnar_view().column(0)
        table.truncate()
        assert table.columnar_view().size() == 0
        assert table.columnar_view().column(0) == []

    def test_out_of_order_reinsert_resorts(self):
        # txn-undo path: insert_with_rowid below the high-water mark
        table = typed_table()
        rowids = [table.insert((i, i, float(i), i, None, None, False)) for i in range(4)]
        table.columnar_view().column(0)
        before = table.delete(rowids[1])
        table.insert_with_rowid(rowids[1], before)
        view = table.columnar_view()
        assert list(table.storage()) == rowids
        assert view.column(0) == [0, 1, 2, 3]

    def test_load_state_rebuilds_mirror(self):
        table = typed_table()
        for i in range(3):
            table.insert((i, i, float(i), i, None, None, False))
        state = table.dump_state()
        table.columnar_view().column(0)
        table.truncate()
        table.load_state(state)
        assert table.columnar_view().column(0) == [0, 1, 2]


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
        assert people_engine.stats.snapshot().get("vector_scans", 0) >= len(QUERIES)

    def test_point_lookup_stays_on_row_fast_lane(self, people_engine):
        before = people_engine.stats.snapshot()
        rows = people_engine.execute_sql(
            "SELECT name FROM people WHERE id = ?", 3
        ).rows
        assert rows == [("carol",)]
        after = people_engine.stats.snapshot()
        assert after.get("point_lookups", 0) == before.get("point_lookups", 0) + 1
        assert after.get("vector_scans", 0) == before.get("vector_scans", 0)
        # ...and never builds a column vector for the table it probes
        assert people_engine.partitions[0].ee.table("people")._colstore is None

    def test_runtime_fallback_preserves_short_circuit(self, people_engine):
        # the interpreter short-circuits AND before the division for id=0
        # rows; eager vector evaluation raises, falls back, and the row
        # path answers — silently, with one fallback counter bump
        people_engine.execute_sql("INSERT INTO people VALUES (6, 'zed', 0, 'x')")
        sql = "SELECT id FROM people WHERE age <> 0 AND 10 / age > 0"
        got = people_engine.execute_sql(sql).rows
        want = _interp_people()
        want.execute_sql("INSERT INTO people VALUES (6, 'zed', 0, 'x')")
        assert got == want.execute_sql(sql).rows
        assert people_engine.stats.snapshot().get("vector_runtime_fallbacks", 0) >= 1

    def test_vectorize_off_arm(self):
        eng = compiled_row_arm(HStoreEngine())
        eng.execute_ddl("CREATE TABLE t (v INTEGER)")
        for i in range(5):
            eng.execute_sql("INSERT INTO t VALUES (?)", i)
        assert eng.execute_sql("SELECT SUM(v) FROM t WHERE v > 0").rows == [(10,)]
        assert eng.stats.snapshot().get("vector_scans", 0) == 0

    def test_vector_update_and_delete_parity(self):
        # full-scan UPDATE/DELETE between vector scans: same counts, same
        # rows, and the scans after them see the writes
        vec = HStoreEngine()
        row = compiled_row_arm(HStoreEngine())
        counts = []
        scan = "SELECT COUNT(*), SUM(v), MAX(f) FROM t WHERE f >= 0"
        for eng in (vec, row):
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
            assert vec.execute_sql(probe).rows == row.execute_sql(probe).rows

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

    def test_ivm_view_still_wins(self):
        # the IVM ViewRead path is checked before the vector path
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
    def test_full_scan_is_vector(self, people_engine):
        text = people_engine.explain("SELECT COUNT(*) FROM people WHERE age > 30")
        assert "mode: vector" in text

    def test_point_lookup_is_row(self, people_engine):
        text = people_engine.explain("SELECT name FROM people WHERE id = 1")
        assert "mode: row" in text

    def test_subquery_predicate_is_row(self, people_engine):
        text = people_engine.explain(
            "SELECT id FROM people WHERE age > (SELECT MIN(age) FROM people)"
        )
        assert text.splitlines()[2].strip() == "mode: row"

    def test_vectorize_off_is_row(self):
        eng = compiled_row_arm(HStoreEngine())
        eng.execute_ddl("CREATE TABLE t (v INTEGER)")
        assert "mode: row" in eng.explain("SELECT COUNT(*) FROM t WHERE v > 0")


def _mode(text: str) -> str:
    """The lane EXPLAIN names for the top-level plan (its first mode line)."""
    return next(
        line.strip()[len("mode: "):]
        for line in text.splitlines()
        if line.strip().startswith("mode: ")
    )


LANE_COUNTERS = ("ivm_view_hits", "point_lookups", "vector_scans")


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
            ("SELECT g, MAX(v) FROM recent GROUP BY g", (), "vector", {"vector_scans"}),
            ("SELECT COUNT(*) FROM recent WHERE v > ?", (2,), "vector", {"vector_scans"}),
            ("SELECT * FROM recent", (), "row", set()),
            (
                "SELECT g FROM recent WHERE v > (SELECT MIN(w) FROM d)",
                (),
                "row",
                {"vector_scans"},  # the nested plan's own lane, one scan per row
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
        assert _mode(by_name["extremes"]) == "vector"
        eng.execute_ddl("DROP VIEW recent_by_g")
        assert "mode: view" not in eng.explain_procedure("board")
