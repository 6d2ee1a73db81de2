"""Tests for file-backed durability (survives full process restarts)."""

import pytest

from repro.apps.voter import VoterSStoreApp, VoterWorkload
from repro.core.engine import SStoreEngine
from repro.errors import RecoveryError, ReproError
from repro.hstore.cmdlog import LogRecord
from repro.hstore.codec import encode_frame
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
            LogRecord(0, 10, "p", (1, "x"), 0, 5),
            LogRecord(1, 11, "q", (("nested", "rows"),), -1, 6),
        ]
        directory.append_log_records(records)
        loaded = directory.load_log_records()
        assert loaded == records  # tuples stay tuples

    def test_record_bytes_are_its_frame_and_round_trip_exactly(self, tmp_path):
        # what JSON changed on the way back (tuples to lists, dict keys to
        # strings) now comes back as it went in, type for type
        params = (
            "s",
            ((1, "x", None), (2.5, True, "y")),
            {1: (1, 2), None: {"k": (3,)}, False: [], "plain": {2.5: "f"}, (1, 2): -3},
            [(), [(4,)]],
            (2**70, -(2**64), 1e300, -0.0, float("inf"), "\u00e9\U0001f600"),
        )
        record = LogRecord(0, 70, "p", params, 0, 9)
        directory = DurabilityDirectory(tmp_path)
        directory.append_log_records([record])
        assert directory.log_path.read_bytes() == encode_frame(record)
        [loaded] = directory.load_log_records()
        assert loaded == record
        assert type(loaded.params[3]) is list and type(loaded.params[1]) is tuple
        assert loaded.params[2][None] == {"k": (3,)}
        assert [type(key) for key in loaded.params[2]] == [int, type(None), bool, str, tuple]

    def test_a_value_the_codec_refuses_fails_the_group_before_any_byte(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        good = LogRecord(0, 0, "p", (1,), 0, 0)
        bad = LogRecord(1, 1, "p", ({1, 2},), 0, 0)
        with pytest.raises(ReproError, match="type set"):
            directory.append_log_records([good, bad])
        assert directory.log_size() == 0

    def test_load_empty(self, tmp_path):
        assert DurabilityDirectory(tmp_path).load_log_records() == []
        assert DurabilityDirectory(tmp_path).load_latest_snapshot() is None

    def test_corrupt_log_raises(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        directory.log_path.write_bytes(b"\x00\x00\x00\x05not a frame at all")
        with pytest.raises(RecoveryError, match="header fails its check"):
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
