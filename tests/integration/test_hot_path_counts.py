"""Count guards for the per-statement path (counts, not timings).

What the schema, the plan or the deployment fixes is decided when those are
built; a steady-state vote must not re-decide it.  These guards count the
calls that used to happen per statement or per commit and pin them at zero,
so a regression shows as a number on any machine, loaded or not.
"""

from __future__ import annotations

import builtins
import functools
import io
import os
import sys

import repro
import repro.core.engine as core_engine
import repro.hstore.types as types
from repro.apps.voter import VoterSStoreApp, VoterWorkload
from repro.hstore.catalog import Column, Schema, TableEntry
from repro.hstore.cmdlog import LogRecord
from repro.hstore.engine import HStoreEngine
from repro.hstore.table import Table
from repro.hstore.types import SqlType


def _counted(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_steady_state_votes_reopen_recoerce_and_recheck_nothing(tmp_path, monkeypatch):
    app = VoterSStoreApp()
    app.engine.enable_durability(tmp_path)
    requests = VoterWorkload(seed=11).generate(500)
    app.submit(requests[:300])  # warm: every plan has run, the log is open
    before = app.engine.stats.snapshot()

    opens = _counted(monkeypatch, io, "open")
    monkeypatch.setattr(builtins, "open", io.open)
    coercions = _counted(monkeypatch, types, "coerce_value")
    access_walks = _counted(monkeypatch, core_engine, "plan_table_access")
    app.submit(requests[300:])

    delta = app.engine.stats.delta(before)
    assert delta["log_flushes"] == 200 and delta["ee_statements"] > 1000
    assert opens == []  # one append handle, not one open() per commit
    assert coercions == []  # Voter binds exact-typed values: fast path only
    assert access_walks == []  # the access check passed these plans already


def test_steady_state_votes_rebind_nothing_and_expire_their_own_input(monkeypatch):
    """What ``deploy_workflow`` fixed stays fixed per TE: no consumer walk,
    no comparator sort, one access token per transaction, no ``<gc>``."""
    app = VoterSStoreApp()
    engine = app.engine
    requests = VoterWorkload(seed=11).generate(500)
    app.submit(requests[:300])
    before = engine.stats.snapshot()

    consumer_walks = _counted(monkeypatch, core_engine.SStoreEngine, "_consumers_of")
    comparator_sorts = _counted(monkeypatch, functools, "cmp_to_key")
    tokens = _counted(monkeypatch, core_engine.SStoreEngine, "access_token")
    system_txns = _counted(monkeypatch, core_engine.SStoreEngine, "_system_txn")
    streams = [info.name for info in engine.streams.all()]
    for request in requests[300:]:
        app.submit([request])
        assert [engine.gc.live_tuples(name) for name in streams] == [0] * len(streams)

    delta = engine.stats.delta(before)
    assert delta["txns_committed"] + delta["txns_aborted"] > 200
    assert consumer_walks == [] and comparator_sorts == [] and system_txns == []
    assert len(tokens) <= delta["txns_committed"] + delta["txns_aborted"]
    assert delta.get("gc_passes", 0) == 0
    assert delta["stream_tuples_gced"] == delta["stream_tuples_ingested"] + delta.get(
        "stream_tuples_emitted", 0
    )


def test_restore_parses_only_the_records_it_replays(tmp_path, monkeypatch):
    """A snapshot at record N - k leaves k records to replay, and a restore
    builds exactly those k: the checkpointed prefix is skipped by offset,
    not parsed and thrown away."""
    total, suffix = 300, 7
    engine = HStoreEngine()
    engine.execute_ddl("CREATE TABLE t (k INTEGER NOT NULL, v INTEGER, PRIMARY KEY (k))")
    engine.enable_durability(tmp_path)
    for k in range(total):
        if k == total - suffix:
            engine.take_snapshot()
        engine.execute_sql("INSERT INTO t VALUES (?, ?)", k, k)
    engine.shutdown()

    fresh = HStoreEngine()
    fresh.execute_ddl("CREATE TABLE t (k INTEGER NOT NULL, v INTEGER, PRIMARY KEY (k))")
    built = _counted(monkeypatch, LogRecord, "__init__")
    assert fresh.restore_from_disk(tmp_path) == suffix
    assert len(built) == suffix
    assert len(fresh.command_log) == fresh.command_log.next_lsn == total
    assert fresh.table_rows("t")[-1] == (total - 1, total - 1)
    fresh.shutdown()


def test_update_of_a_non_key_column_touches_no_index(monkeypatch):
    schema = Schema(
        [
            Column("k", SqlType.INTEGER, nullable=False),
            Column("tag", SqlType.VARCHAR),
            Column("n", SqlType.INTEGER),
        ]
    )
    table = Table(TableEntry("t", schema, primary_key=("k",)))
    table.add_index("by_tag", ("tag",), unique=True)
    rowid = table.insert((1, "a", 0))
    touched = []
    for index in table.indexes().values():
        for method in ("insert", "remove", "would_violate", "lookup"):
            touched.append(_counted(monkeypatch, index, method))
    table.update(rowid, (1, "a", 5))
    assert table.get(rowid) == (1, "a", 5)
    assert all(calls == [] for calls in touched)
    table.update(rowid, (1, "b", 5))  # a key column: only that index moves
    assert sum(len(calls) for calls in touched) == 3  # would_violate, remove, insert


def test_a_scan_makes_as_many_calls_over_2_000_rows_as_over_200():
    """A statement's kernel runs each stage over all rows in one
    comprehension, so the Python calls into ``src/repro`` of a filtered,
    grouped scan do not grow with the rows it reads."""
    package = os.path.dirname(repro.__file__) + os.sep
    scan = "SELECT station, SUM(fare) FROM rides WHERE promo IS NULL GROUP BY station"

    def calls(rows: int) -> int:
        engine = HStoreEngine()
        engine.execute_ddl(
            "CREATE TABLE rides (id INTEGER NOT NULL, station INTEGER, fare FLOAT, "
            "promo INTEGER, note VARCHAR(8), PRIMARY KEY (id))"
        )
        table = engine.partitions[0].ee.table("rides")
        table.insert_many([(i, i % 5, i * 0.5, None, "x") for i in range(rows)])
        engine.execute_sql(scan)  # planned and cached
        counted = []

        def count(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                counted.append(frame.f_code)

        sys.setprofile(count)
        try:
            engine.execute_sql(scan)
        finally:
            sys.setprofile(None)
        return len(counted)

    assert calls(2000) == calls(200)
