"""Tests for the client session, engine.describe(), and the election-summary
comparison the E1 claim reports with."""

import pytest

from repro.apps.voter.observe import ElectionSummary, compare_summaries
from repro.core.engine import SStoreEngine
from repro.hstore.client import ClientSession
from repro.hstore.engine import HStoreEngine
from repro.hstore.procedure import StoredProcedure


class Echo(StoredProcedure):
    name = "echo"
    statements = {}

    def run(self, ctx, value):
        return value


class TestClientSession:
    def test_call_counts_roundtrips(self):
        engine = HStoreEngine()
        engine.register_procedure(Echo)
        client = ClientSession(engine, name="c1")
        result = client.call("echo", 42)
        assert result.success and result.data == 42
        assert client.calls_made == 1
        assert engine.stats.client_pe_roundtrips == 1

    def test_query_counts_roundtrips(self):
        engine = HStoreEngine()
        engine.execute_ddl("CREATE TABLE t (v INTEGER)")
        client = ClientSession(engine)
        client.query("INSERT INTO t VALUES (1)")
        rows = client.query("SELECT v FROM t").rows
        assert rows == [(1,)]
        assert client.calls_made == 2

    def test_multiple_clients_share_engine(self):
        engine = HStoreEngine()
        engine.register_procedure(Echo)
        first = ClientSession(engine, "a")
        second = ClientSession(engine, "b")
        first.call("echo", 1)
        second.call("echo", 2)
        assert engine.stats.client_pe_roundtrips == 2


class TestDescribe:
    def test_plain_engine(self):
        engine = HStoreEngine()
        engine.execute_ddl(
            "CREATE TABLE t (id INTEGER NOT NULL, v VARCHAR(8), "
            "PRIMARY KEY (id)) PARTITION ON id"
        )
        engine.execute_ddl("CREATE UNIQUE INDEX t_by_v ON t (v) USING TREE")
        engine.register_procedure(Echo)
        text = engine.describe()
        assert "TABLE t (id INTEGER NOT NULL, v VARCHAR)" in text
        assert "PRIMARY KEY (id)" in text
        assert "PARTITION ON id" in text
        assert "UNIQUE INDEX t_by_v (v) USING TREE" in text
        assert "PROCEDURE echo (0 statements)" in text

    def test_streaming_engine_kinds(self):
        engine = SStoreEngine()
        engine.execute_ddl("CREATE STREAM s (v INTEGER)")
        engine.execute_ddl("CREATE WINDOW w ON s ROWS 5 OWNED BY x")
        text = engine.describe()
        assert "STREAM s" in text
        assert "WINDOW w" in text

    def test_row_counts_shown(self):
        engine = HStoreEngine()
        engine.execute_ddl("CREATE TABLE t (v INTEGER)")
        engine.execute_sql("INSERT INTO t VALUES (1), (2)")
        assert "[2 rows]" in engine.describe()


def summary(total=10, rejected=1, eliminations=1, remaining=(1, 2),
            counts=((1, 6), (2, 4)), removals=((0, 3, 100),), winner=None):
    return ElectionSummary(
        total_votes=total,
        rejected_votes=rejected,
        eliminations=eliminations,
        remaining=remaining,
        counts=counts,
        removals=removals,
        winner=winner,
    )


class TestCompareSummaries:
    def test_identical_is_clean(self):
        report = compare_summaries(summary(), summary())
        assert not report.any_anomaly

    def test_wrong_removal_detected(self):
        observed = summary(removals=((0, 4, 100),))
        report = compare_summaries(summary(), observed)
        assert report.wrong_removals == 1
        assert report.any_anomaly

    def test_count_divergence_summed(self):
        observed = summary(counts=((1, 5), (2, 6)))
        report = compare_summaries(summary(), observed)
        assert report.vote_count_divergence == 3  # |6-5| + |4-6|

    def test_false_winner(self):
        reference = summary(winner=1, remaining=(1,))
        observed = summary(winner=2, remaining=(2,))
        assert compare_summaries(reference, observed).false_winner

    def test_missing_removal_counts(self):
        observed = summary(removals=())
        report = compare_summaries(summary(), observed)
        assert report.removal_count_delta == -1
        assert report.any_anomaly

