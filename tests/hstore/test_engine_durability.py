"""Tests for command logging, snapshots, crash recovery and partitioning."""

import pytest

from repro.errors import CatalogError, PartitionError, ReproError
from repro.hstore.cmdlog import CommandLog
from repro.hstore.engine import HStoreEngine
from repro.hstore.partition import route_value, stable_hash
from repro.hstore.procedure import StoredProcedure
from repro.hstore.recovery import crash_and_recover
from repro.hstore.stats import EngineStats


class Put(StoredProcedure):
    name = "put"
    partition_param = 0
    statements = {"ins": "INSERT INTO kv VALUES (?, ?)"}

    def run(self, ctx, key, value):
        ctx.execute("ins", key, value)


class ReadAll(StoredProcedure):
    name = "read_all"
    read_only = True
    statements = {"all": "SELECT k, v FROM kv ORDER BY k"}

    def run(self, ctx):
        return ctx.execute("all").rows


def make_kv(partitions=1, **kwargs) -> HStoreEngine:
    eng = HStoreEngine(partitions, **kwargs)
    eng.execute_ddl(
        "CREATE TABLE kv (k INTEGER NOT NULL, v VARCHAR(16), "
        "PRIMARY KEY (k)) PARTITION ON k"
    )
    eng.register_procedure(Put)
    eng.register_procedure(ReadAll)
    return eng


class TestCommandLog:
    def test_group_commit_batches_flushes(self):
        stats = EngineStats()
        log = CommandLog(group_size=3, stats=stats)
        for i in range(7):
            log.append(i, "p", (i,), 0, 0)
        assert stats.log_flushes == 2  # two full groups of 3
        assert log.durable_lsn == 6
        assert log.lose_pending() == 1  # the 7th was never flushed

    def test_records_from(self):
        log = CommandLog()
        for i in range(5):
            log.append(i, "p", (), 0, 0)
        assert [r.lsn for r in log.records_from(3)] == [3, 4]

    def test_invalid_group_size(self):
        from repro.errors import RecoveryError

        with pytest.raises(RecoveryError):
            CommandLog(group_size=0)

    def test_read_only_procedures_not_logged(self):
        eng = make_kv()
        eng.call_procedure("put", 1, "a")
        eng.call_procedure("read_all")
        assert len(eng.command_log) == 1


class TestRecovery:
    def test_recover_without_snapshot_replays_everything(self):
        eng = make_kv()
        for i in range(5):
            eng.call_procedure("put", i, f"v{i}")
        report = crash_and_recover(eng)
        assert report.replayed_transactions == 5
        assert not report.had_snapshot
        assert eng.execute_sql("SELECT COUNT(*) FROM kv").scalar() == 5

    def test_recover_with_snapshot_replays_suffix(self):
        eng = make_kv()
        for i in range(5):
            eng.call_procedure("put", i, f"v{i}")
        eng.take_snapshot()
        for i in range(5, 8):
            eng.call_procedure("put", i, f"v{i}")
        report = crash_and_recover(eng)
        assert report.had_snapshot
        assert report.replayed_transactions == 3
        assert eng.execute_sql("SELECT COUNT(*) FROM kv").scalar() == 8

    def test_group_commit_loses_unflushed_tail(self):
        eng = make_kv(log_group_size=4)
        for i in range(6):
            eng.call_procedure("put", i, f"v{i}")
        report = crash_and_recover(eng)
        # 4 made it to the durable log; 2 were pending and are gone
        assert report.lost_log_records == 2
        assert eng.execute_sql("SELECT COUNT(*) FROM kv").scalar() == 4

    def test_automatic_snapshot_interval(self):
        eng = make_kv(snapshot_interval=3)
        for i in range(7):
            eng.call_procedure("put", i, f"v{i}")
        assert eng.stats.snapshots_taken == 2

    def test_crashed_engine_refuses_work(self):
        eng = make_kv()
        eng.crash()
        with pytest.raises(ReproError):
            eng.call_procedure("put", 1, "x")
        eng.recover()
        assert eng.call_procedure("put", 1, "x").success

    def test_clock_restored_from_snapshot(self):
        eng = make_kv()
        eng.clock.advance(100)
        eng.call_procedure("put", 1, "a")
        eng.take_snapshot()
        crash_and_recover(eng)
        assert eng.clock.now == 100

    def test_recovery_is_idempotent(self):
        eng = make_kv()
        for i in range(3):
            eng.call_procedure("put", i, "x")
        crash_and_recover(eng)
        crash_and_recover(eng)
        assert eng.execute_sql("SELECT COUNT(*) FROM kv").scalar() == 3


class TestPartitioning:
    def test_stable_hash_deterministic_for_strings(self):
        assert stable_hash("phone-1") == stable_hash("phone-1")

    def test_route_value_in_range(self):
        for value in [0, 1, "abc", 17.0, None, True]:
            assert 0 <= route_value(value, 4) < 4

    def test_unroutable_type_rejected(self):
        with pytest.raises(PartitionError):
            stable_hash(object())

    def test_single_sited_routing(self):
        eng = make_kv(partitions=4)
        for key in range(20):
            assert eng.call_procedure("put", key, "x").success
        # rows landed on the partition their key routes to
        for pid, partition in enumerate(eng.partitions):
            for key, _v in partition.ee.table("kv").rows():
                assert route_value(key, 4) == pid

    def test_scatter_gather_select(self):
        eng = make_kv(partitions=4)
        for key in range(10):
            eng.call_procedure("put", key, "x")
        rows = eng.execute_sql("SELECT k, v FROM kv").rows
        assert len(rows) == 10

    def test_adhoc_dml_requires_single_partition(self):
        eng = make_kv(partitions=2)
        with pytest.raises(PartitionError):
            eng.execute_sql("INSERT INTO kv VALUES (1, 'x')")

    def test_adhoc_aggregate_requires_single_partition(self):
        eng = make_kv(partitions=2)
        with pytest.raises(PartitionError):
            eng.execute_sql("SELECT COUNT(*) FROM kv")

    def test_run_everywhere_procedure(self):
        class CountEverywhere(StoredProcedure):
            name = "count_everywhere"
            run_everywhere = True
            read_only = True
            statements = {"n": "SELECT COUNT(*) FROM kv"}

            def run(self, ctx):
                return ctx.execute("n").scalar()

        eng = make_kv(partitions=3)
        eng.register_procedure(CountEverywhere)
        for key in range(9):
            eng.call_procedure("put", key, "x")
        result = eng.call_procedure("count_everywhere")
        assert result.success
        assert sum(result.data) == 9
        assert len(result.data) == 3

    def test_zero_partitions_rejected(self):
        with pytest.raises(PartitionError):
            HStoreEngine(0)


class TestDdlGuards:
    def test_stream_ddl_rejected_on_plain_hstore(self):
        eng = HStoreEngine()
        with pytest.raises(CatalogError):
            eng.execute_ddl("CREATE STREAM s (a INTEGER)")

    def test_window_ddl_rejected_on_plain_hstore(self):
        eng = HStoreEngine()
        with pytest.raises(CatalogError):
            eng.execute_ddl("CREATE WINDOW w ON s ROWS 5")

    def test_non_ddl_rejected(self):
        eng = HStoreEngine()
        with pytest.raises(CatalogError):
            eng.execute_ddl("SELECT 1 FROM t")
