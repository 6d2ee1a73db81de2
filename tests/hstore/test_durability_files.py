"""Tests for file-backed durability (survives full process restarts)."""

import pytest

from repro.apps.voter import VoterSStoreApp, VoterWorkload
from repro.core.engine import SStoreEngine
from repro.errors import RecoveryError, ReproError
from repro.hstore.cmdlog import LogRecord
from repro.hstore.durability import DurabilityDirectory
from repro.hstore.engine import HStoreEngine
from repro.hstore.procedure import StoredProcedure
from repro.hstore.snapshot import Snapshot


class Put(StoredProcedure):
    name = "put"
    statements = {"ins": "INSERT INTO kv VALUES (?, ?)"}

    def run(self, ctx, key, value):
        ctx.execute("ins", key, value)


def make_kv(**kwargs) -> HStoreEngine:
    eng = HStoreEngine(**kwargs)
    eng.execute_ddl(
        "CREATE TABLE kv (k INTEGER NOT NULL, v VARCHAR(16), PRIMARY KEY (k))"
    )
    eng.register_procedure(Put)
    return eng


class TestDurabilityDirectory:
    def test_log_roundtrip(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        records = [
            LogRecord(0, 10, "p", (1, "x"), 0, 5, (("kind", "test"),)),
            LogRecord(1, 11, "q", (("nested", "rows"),), 0, 6),
        ]
        directory.append_log_records(records)
        loaded = directory.load_log_records()
        assert len(loaded) == 2
        assert loaded[0].procedure == "p"
        assert loaded[0].meta == (("kind", "test"),)
        assert loaded[1].params == (["nested", "rows"],)  # tuples → lists

    def test_record_bytes_are_the_fully_normalised_encoding(self, tmp_path):
        # the writer walks a params tuple instead of copying it; the bytes
        # must be what encoding the deep-normalised copy always produced
        import json

        def normalised(value):
            if isinstance(value, (tuple, list)):
                return [normalised(item) for item in value]
            if isinstance(value, dict):
                return {str(key): normalised(item) for key, item in value.items()}
            return value

        params = (
            "s",
            ((1, "x", None), (2.5, True, "y")),
            {1: (1, 2), None: {"k": (3,)}, True: [], "plain": {2.0: "f"}},
            [(), [(4,)]],
        )
        record = LogRecord(7, 70, "p", params, 0, 9, (("kind", "test"), ("n", (1, 2))))
        directory = DurabilityDirectory(tmp_path)
        directory.append_log_records([record])
        expected = json.dumps(
            {
                "lsn": 7,
                "txn_id": 70,
                "procedure": "p",
                "params": normalised(params),
                "partition": 0,
                "logical_time": 9,
                "meta": normalised(record.meta),
            },
            separators=(",", ":"),
        )
        assert directory.log_path.read_text() == expected + "\n"
        assert directory.load_log_records()[0].params[2]["None"] == {"k": [3]}

    def test_load_empty(self, tmp_path):
        assert DurabilityDirectory(tmp_path).load_log_records() == []
        assert DurabilityDirectory(tmp_path).load_latest_snapshot() is None

    def test_corrupt_log_raises(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        directory.log_path.write_text("{not json}\n")
        with pytest.raises(RecoveryError):
            directory.load_log_records()

    def test_latest_snapshot_wins(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        for snapshot_id in (0, 1, 2):
            directory.write_snapshot(
                Snapshot(snapshot_id, snapshot_id * 10, 0, {0: {}}, {})
            )
        latest = directory.load_latest_snapshot()
        assert latest.snapshot_id == 2
        assert latest.through_lsn == 20

    def test_reset(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        directory.append_log_records([LogRecord(0, 0, "p", (), 0, 0)])
        directory.reset()
        assert directory.load_log_records() == []


class TestEngineRestart:
    def test_hstore_restart_replays_log(self, tmp_path):
        first = make_kv()
        first.enable_durability(tmp_path)
        for i in range(6):
            first.call_procedure("put", i, f"v{i}")
        rows_before = first.table_rows("kv")
        del first  # the "process" exits

        second = make_kv()
        replayed = second.restore_from_disk(tmp_path)
        assert replayed == 6
        assert second.table_rows("kv") == rows_before

    def test_restart_with_snapshot(self, tmp_path):
        first = make_kv()
        first.enable_durability(tmp_path)
        for i in range(4):
            first.call_procedure("put", i, "x")
        first.take_snapshot()
        for i in range(4, 7):
            first.call_procedure("put", i, "y")
        del first

        second = make_kv()
        replayed = second.restore_from_disk(tmp_path)
        assert replayed == 3  # only the post-snapshot suffix
        assert len(second.table_rows("kv")) == 7

    def test_engine_keeps_persisting_after_restore(self, tmp_path):
        first = make_kv()
        first.enable_durability(tmp_path)
        first.call_procedure("put", 1, "a")
        del first

        second = make_kv()
        second.restore_from_disk(tmp_path)
        second.call_procedure("put", 2, "b")
        del second

        third = make_kv()
        third.restore_from_disk(tmp_path)
        assert len(third.table_rows("kv")) == 2

    def test_first_append_after_restore_continues_lsn_sequence(self, tmp_path):
        first = make_kv(log_group_size=2)
        first.enable_durability(tmp_path)
        for i in range(5):  # LSNs 0-3 durable, LSN 4 pending and lost
            first.call_procedure("put", i, "x")
        del first

        second = make_kv()
        second.call_procedure("put", 99, "local")  # its own LSN 0: discarded
        second.restore_from_disk(tmp_path)
        assert second.command_log.durable_lsn == second.command_log.next_lsn == 4
        second.call_procedure("put", 7, "y")
        tail = DurabilityDirectory(tmp_path).load_log_records()[-1]
        assert (tail.lsn, tail.params) == (4, (7, "y"))

    def test_directory_is_the_only_copy_of_history(self, tmp_path):
        """Attached, the engine retains the pending group and nothing else:
        no durable LogRecord in the log object, no Snapshot in the store."""
        eng = make_kv(log_group_size=4)
        eng.call_procedure("put", -1, "setup")  # memory-mode history...
        eng.take_snapshot()
        eng.enable_durability(tmp_path)  # ...moves into the directory
        for i in range(12):
            if i == 6:
                eng.take_snapshot()  # flushes LSNs 5-6
            eng.call_procedure("put", i, "x")
        log = eng.command_log
        assert [r.lsn for r in log._pending] == [11, 12]
        retained = [
            item
            for name, value in vars(log).items()
            if name != "_pending" and isinstance(value, (list, tuple, dict))
            for item in value
        ]
        assert retained == []
        assert not any(
            isinstance(value, (Snapshot, list, dict))
            for value in vars(eng.snapshots).values()
        )
        # the counters answer for the file without reading it...
        assert len(log) == 11 and log.durable_lsn == 11
        # ...and the readers are answered from it
        on_disk = DurabilityDirectory(tmp_path).load_log_records()
        assert log.all_records() == on_disk and len(on_disk) == 11
        assert [r.lsn for r in log.records_from(9)] == [9, 10]
        assert len(list((tmp_path / "snapshots").glob("*.json"))) == 1

    def test_restore_discards_local_setup_writes(self, tmp_path):
        # write a durable history of one put
        first = make_kv()
        first.enable_durability(tmp_path)
        first.call_procedure("put", 1, "a")
        del first

        # the fresh "process" writes some setup data before restoring;
        # the disk history wins and the local write is discarded
        dirty = make_kv()
        dirty.call_procedure("put", 99, "local")
        dirty.restore_from_disk(tmp_path)
        assert dirty.table_rows("kv") == [(1, "a")]

    def test_group_commit_pending_lost_on_restart(self, tmp_path):
        first = make_kv(log_group_size=4)
        first.enable_durability(tmp_path)
        for i in range(6):
            first.call_procedure("put", i, "x")
        del first  # 2 records were pending, never hit the file

        second = make_kv(log_group_size=4)
        replayed = second.restore_from_disk(tmp_path)
        assert replayed == 4
        assert len(second.table_rows("kv")) == 4


class TestStreamingRestart:
    def make_app(self, **kwargs) -> VoterSStoreApp:
        return VoterSStoreApp(num_contestants=5, batch_size=1, **kwargs)

    def test_voter_restart_equivalence(self, tmp_path):
        requests = VoterWorkload(seed=55, num_contestants=5).generate(220)

        first = self.make_app()
        first.engine.enable_durability(tmp_path)
        first.submit(requests, ingest_chunk=4)
        summary_before = first.summary()
        fingerprint_before = first.engine.observe()
        del first

        second = self.make_app()
        second.engine.restore_from_disk(tmp_path)
        assert second.summary() == summary_before
        assert second.engine.observe() == fingerprint_before

    def test_voter_restart_with_snapshot_and_continue(self, tmp_path):
        requests = VoterWorkload(seed=56, num_contestants=5).generate(200)

        first = self.make_app()
        first.engine.enable_durability(tmp_path)
        first.submit(requests[:100], ingest_chunk=4)
        first.engine.take_snapshot()
        first.submit(requests[100:150], ingest_chunk=4)
        del first

        second = self.make_app()
        second.engine.restore_from_disk(tmp_path)
        second.submit(requests[150:], ingest_chunk=4)

        reference = self.make_app()
        reference.submit(requests, ingest_chunk=4)
        assert second.summary() == reference.summary()

    def test_time_windows_survive_restart(self, tmp_path):
        from repro.core.engine import StreamProcedure
        from repro.core.workflow import WorkflowSpec

        def build() -> SStoreEngine:
            eng = SStoreEngine()
            eng.execute_ddl("CREATE STREAM s (ts TIMESTAMP, v INTEGER)")
            eng.execute_ddl("CREATE WINDOW w ON s RANGE 10 SLIDE 5 OWNED BY c")
            eng.execute_ddl("CREATE TABLE out (n INTEGER)")

            class Count(StreamProcedure):
                name = "c"
                statements = {
                    "n": "SELECT COUNT(*) FROM w",
                    "ins": "INSERT INTO out VALUES (?)",
                }

                def run(self, ctx):
                    ctx.execute("ins", ctx.execute("n").scalar())

            eng.register_procedure(Count)
            wf = WorkflowSpec("wf")
            wf.add_node("c", input_stream="s", batch_size=1)
            eng.deploy_workflow(wf)
            return eng

        first = build()
        first.enable_durability(tmp_path)
        first.advance_time(5)
        first.ingest("s", [(3, 30)])
        first.advance_time(3)
        fingerprint = first.observe()
        clock = first.clock.now
        del first

        second = build()
        second.restore_from_disk(tmp_path)
        assert second.clock.now == clock
        assert second.observe() == fingerprint
        # the restored window keeps sliding correctly
        second.advance_time(10)
        assert second.partitions[0].ee.table("w").row_count() == 0
