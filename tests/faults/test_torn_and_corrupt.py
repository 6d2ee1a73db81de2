"""File-level hardening: torn log tails, corrupt snapshots, checksums.

These tests damage the durable files directly (no injector), pinning down
the exact detect/skip/repair contract `scan_log` and `scan_snapshots`
implement for `restore_from_disk` — and that a live engine's
`crash(); recover()` reads the same store a restarted process would.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import InjectedIOError, RecoveryError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultAction, FaultPlan
from repro.hstore.cmdlog import LogRecord
from repro.hstore.durability import DurabilityDirectory
from repro.hstore.engine import HStoreEngine
from repro.hstore.snapshot import Snapshot

pytestmark = pytest.mark.faults


def write_records(directory: DurabilityDirectory, count: int) -> None:
    directory.append_log_records(
        [LogRecord(i, i, "p", (i, f"v{i}"), 0, i) for i in range(count)]
    )


class TestTornLogTail:
    @pytest.mark.parametrize("cut", [1, 5, 17, 40])
    def test_truncated_final_record_is_dropped_and_repaired(self, tmp_path, cut):
        directory = DurabilityDirectory(tmp_path)
        write_records(directory, 3)
        raw = directory.log_path.read_bytes()
        # byte offset strictly inside the final record
        last_start = raw[:-1].rfind(b"\n") + 1
        offset = min(last_start + cut, len(raw) - 1)
        directory.log_path.write_bytes(raw[:offset])

        records, torn = directory.scan_log()
        assert torn == 1
        assert [record.lsn for record in records] == [0, 1]
        # the partial line is physically gone: future appends start clean
        assert directory.log_path.read_bytes() == raw[:last_start]
        directory.append_log_records([LogRecord(2, 2, "p", (2, "v2"), 0, 2)])
        records, torn = directory.scan_log()
        assert torn == 0
        assert [record.lsn for record in records] == [0, 1, 2]

    def test_complete_record_missing_only_newline_is_kept(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        write_records(directory, 2)
        raw = directory.log_path.read_bytes()
        directory.log_path.write_bytes(raw[:-1])  # drop just the terminator

        records, torn = directory.scan_log()
        assert torn == 0
        assert [record.lsn for record in records] == [0, 1]
        # repair restored the terminator
        assert directory.log_path.read_bytes() == raw

    def test_scan_without_repair_leaves_file_alone(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        write_records(directory, 2)
        raw = directory.log_path.read_bytes()
        torn_bytes = raw[: len(raw) - 4]
        directory.log_path.write_bytes(torn_bytes)
        records, torn = directory.scan_log(repair=False)
        assert torn == 1
        assert len(records) == 1
        assert directory.log_path.read_bytes() == torn_bytes

    def test_corruption_before_the_tail_still_raises(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        write_records(directory, 3)
        lines = directory.log_path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"lsn": mangled beyond parsing}\n'
        directory.log_path.write_bytes(b"".join(lines))
        with pytest.raises(RecoveryError, match="corrupt log record"):
            directory.scan_log()

    def test_newline_terminated_garbage_tail_still_raises(self, tmp_path):
        # a torn write can never leave garbage *followed by a newline*, so
        # this is real corruption, not tearing
        directory = DurabilityDirectory(tmp_path)
        directory.log_path.write_text("{not json}\n")
        with pytest.raises(RecoveryError, match="corrupt log record"):
            directory.scan_log()

    def test_empty_and_missing_files(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        assert directory.scan_log() == ([], 0)
        directory.log_path.write_text("")
        assert directory.scan_log() == ([], 0)


def snapshot(snapshot_id: int, through_lsn: int) -> Snapshot:
    return Snapshot(
        snapshot_id=snapshot_id,
        through_lsn=through_lsn,
        logical_time=0,
        partition_state={0: {"kv": {"rows": [[through_lsn, "x"]]}}},
    )


class TestSnapshotChecksums:
    def test_roundtrip_validates(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        path = directory.write_snapshot(snapshot(0, 7))
        loaded = directory.load_snapshot_file(path)
        assert loaded.through_lsn == 7

    def test_bit_flip_is_detected(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        path = directory.write_snapshot(snapshot(0, 7))
        data = bytearray(path.read_bytes())
        # flip a byte inside the payload, keeping the JSON well-formed
        index = data.find(b'"x"')
        data[index + 1 : index + 2] = b"y"
        path.write_bytes(bytes(data))
        with pytest.raises(RecoveryError, match="checksum mismatch"):
            directory.load_snapshot_file(path)

    def test_torn_snapshot_file_is_rejected(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        path = directory.write_snapshot(snapshot(0, 7))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(RecoveryError, match="unreadable snapshot"):
            directory.load_snapshot_file(path)

    def test_legacy_unchecksummed_snapshot_still_loads(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        legacy = tmp_path / "snapshots" / "00000000.json"
        legacy.write_text(
            json.dumps(
                {
                    "snapshot_id": 0,
                    "through_lsn": 3,
                    "logical_time": 1,
                    "partition_state": {"0": {}},
                    "extra": {},
                }
            )
        )
        loaded = directory.load_latest_snapshot()
        assert loaded is not None and loaded.through_lsn == 3


class TestSnapshotFallback:
    def test_scan_skips_damaged_newest(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        directory.write_snapshot(snapshot(0, 5))
        newest = directory.write_snapshot(snapshot(1, 9))
        newest.write_bytes(b"\x00garbage")
        chosen, skipped = directory.scan_snapshots()
        assert chosen is not None and chosen.snapshot_id == 0
        assert skipped == [newest]

    def test_all_damaged_means_full_replay(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        for snapshot_id in (0, 1):
            path = directory.write_snapshot(snapshot(snapshot_id, snapshot_id))
            path.write_bytes(b"not a snapshot")
        chosen, skipped = directory.scan_snapshots()
        assert chosen is None
        assert len(skipped) == 2


def build_t(group_size: int = 1) -> HStoreEngine:
    engine = HStoreEngine(log_group_size=group_size)
    engine.execute_ddl(
        "CREATE TABLE t (k INTEGER NOT NULL, v INTEGER, PRIMARY KEY (k))"
    )
    return engine


class TestOneStoreOneRecoveryPath:
    """With a directory attached the files are the only copy of history, so
    `crash(); recover()` on the live engine and `restore_from_disk()` on a
    fresh one must agree — after a real write failure as after a clean run."""

    @pytest.mark.parametrize(
        "group_size,inserts,on_disk",
        [
            (1, 2, 1),  # the second append fails: record 2 never lands
            (3, 3, 1),  # the group's flush fails at its second record
        ],
        ids=["single-record", "mid-group"],
    )
    def test_failed_append_leaves_memory_and_disk_agreeing(
        self, tmp_path, group_size, inserts, on_disk
    ):
        plan = FaultPlan(seed=0)
        plan.add("log.append", FaultAction.IO_ERROR, at=2)
        engine = build_t(group_size)
        engine.install_fault_injector(FaultInjector(plan))
        engine.enable_durability(tmp_path)
        with pytest.raises(InjectedIOError):
            for k in range(1, inserts + 1):
                engine.execute_sql(f"INSERT INTO t VALUES ({k}, {k * 10})")
        assert engine.table_rows("t")[-1] == (inserts, inserts * 10)  # live

        durable = DurabilityDirectory(tmp_path).load_log_records()
        assert len(durable) == on_disk
        assert len(engine.command_log) == on_disk
        assert engine.command_log.durable_lsn == durable[-1].lsn + 1
        self.assert_both_paths_agree(engine, tmp_path, group_size, [(1, 10)])

    def test_clean_run_with_snapshot_in_the_middle(self, tmp_path):
        engine = build_t()
        engine.enable_durability(tmp_path)
        engine.execute_sql("INSERT INTO t VALUES (1, 10)")
        engine.execute_sql("INSERT INTO t VALUES (2, 20)")
        engine.take_snapshot()
        engine.execute_sql("INSERT INTO t VALUES (3, 30)")
        assert len(engine.command_log) == 3
        self.assert_both_paths_agree(
            engine, tmp_path, 1, [(1, 10), (2, 20), (3, 30)]
        )
        assert engine.last_recovery_report.had_snapshot
        assert engine.last_recovery_report.replayed_transactions == 1

    @staticmethod
    def assert_both_paths_agree(engine, path, group_size, expected):
        engine.crash()
        engine.recover()
        fresh = build_t(group_size)
        fresh.restore_from_disk(path)
        assert engine.table_rows("t") == fresh.table_rows("t") == expected
        assert engine.last_recovery_report == fresh.last_recovery_report
