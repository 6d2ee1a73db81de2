"""File-level hardening: torn log tails, corrupt snapshots, checksums.

These tests damage the durable files directly (no injector), pinning down
the exact detect/skip/repair contract `scan_log` and `scan_snapshots`
implement for `restore_from_disk` — and that a live engine's
`crash(); recover()` reads the same store a restarted process would.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import replace

import pytest

from repro.apps.voter import VoterSStoreApp, VoterWorkload
from repro.errors import InjectedIOError, RecoveryError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultAction, FaultPlan
from repro.hstore.cmdlog import LogRecord
from repro.hstore.codec import decode_frame
from repro.hstore.durability import DurabilityDirectory
from repro.hstore.engine import HStoreEngine
from repro.hstore.snapshot import Snapshot

from tests.faults.conftest import frame_ends

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
        # byte offset strictly inside the final frame, header or body
        last_start = frame_ends(raw)[1]
        offset = min(last_start + cut, len(raw) - 1)
        directory.log_path.write_bytes(raw[:offset])

        records, torn = directory.scan_log()
        assert torn == 1
        assert [record.lsn for record in records] == [0, 1]
        # the partial frame is physically gone: future appends start clean
        assert directory.log_path.read_bytes() == raw[:last_start]
        directory.append_log_records([LogRecord(2, 2, "p", (2, "v2"), 0, 2)])
        records, torn = directory.scan_log()
        assert torn == 0
        assert [record.lsn for record in records] == [0, 1, 2]

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
        raw = bytearray(directory.log_path.read_bytes())
        raw[frame_ends(raw)[1] - 1] ^= 0x01  # the last byte of frame 1
        directory.log_path.write_bytes(bytes(raw))
        with pytest.raises(RecoveryError, match="corrupt log record"):
            directory.scan_log()

    @pytest.mark.parametrize(
        "victim", [b"v1", b"v2"], ids=["mid-log", "untorn-final-frame"]
    )
    def test_invalid_utf8_byte_is_never_read_as_data(self, tmp_path, victim):
        # a flipped byte fails its frame's CRC before any decoding — in the
        # last frame too: a torn append leaves a prefix of correct bytes, so
        # a whole frame that does not check out is corruption, not tearing
        directory = DurabilityDirectory(tmp_path)
        write_records(directory, 3)
        raw = bytearray(directory.log_path.read_bytes())
        raw[raw.index(victim) + 1] = 0xFF
        directory.log_path.write_bytes(bytes(raw))
        with pytest.raises(RecoveryError, match="fails its CRC32"):
            directory.scan_log()

    def test_newline_terminated_garbage_tail_still_raises(self, tmp_path):
        # garbage long enough to hold a header fails the header check: it is
        # never read as a length and "repaired" away as a torn tail
        directory = DurabilityDirectory(tmp_path)
        write_records(directory, 2)
        raw = directory.log_path.read_bytes()
        directory.log_path.write_bytes(raw + b"{not a frame}\n")
        with pytest.raises(RecoveryError, match="header fails its check"):
            directory.scan_log()
        assert directory.log_path.read_bytes() == raw + b"{not a frame}\n"

    def test_json_lines_log_is_refused_naming_the_format(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        directory.log_path.write_text(
            '{"lsn":0,"txn_id":0,"procedure":"p","params":[1],"partition":0,'
            '"logical_time":0,"meta":[]}\n'
        )
        with pytest.raises(RecoveryError, match="JSON-lines command log"):
            directory.scan_log()
        with pytest.raises(RecoveryError, match="JSON-lines command log"):
            build_t().restore_from_disk(tmp_path)

    def test_empty_and_missing_files(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        assert directory.scan_log() == ([], 0)
        directory.log_path.write_text("")
        assert directory.scan_log() == ([], 0)


class TestFrameOrder:
    """LSNs are dense: a byte-identical duplicate or a reordered frame passes
    every per-frame check, so the scan checks each LSN against the last."""

    @staticmethod
    def voter_log(path):
        app = voter_app()
        app.engine.enable_durability(path)
        app.submit(VoterWorkload(seed=3, num_contestants=5).generate(200))
        app.engine.shutdown()
        raw = (path / "command.log").read_bytes()
        ends = frame_ends(raw)
        ingests = [
            (start, end)
            for start, end in zip([0, *ends], ends)
            if decode_frame(raw, start)[0].procedure == "<ingest>"
        ]
        return raw, ingests

    def test_a_duplicated_frame_raises_naming_its_byte(self, tmp_path):
        raw, ingests = self.voter_log(tmp_path)
        start, end = ingests[len(ingests) // 2]
        (tmp_path / "command.log").write_bytes(raw[:end] + raw[start:end] + raw[end:])
        with pytest.raises(RecoveryError, match=f"byte {end} has LSN"):
            DurabilityDirectory(tmp_path).scan_log()
        with pytest.raises(RecoveryError, match=f"byte {end} has LSN"):
            voter_app().engine.restore_from_disk(tmp_path)

    def test_two_swapped_frames_raise(self, tmp_path):
        raw, ingests = self.voter_log(tmp_path)
        (a, b), (c, d) = ingests[10], ingests[11]
        assert b == c
        swapped = raw[:a] + raw[c:d] + raw[a:b] + raw[d:]
        (tmp_path / "command.log").write_bytes(swapped)
        with pytest.raises(RecoveryError, match=f"byte {a} has LSN"):
            voter_app().engine.restore_from_disk(tmp_path)


def voter_app() -> VoterSStoreApp:
    return VoterSStoreApp(num_contestants=5, batch_size=1)


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

    @pytest.mark.parametrize(
        "old,new", [(b',"logical_time"', b', "logical_time"'), (b"}}", b"} }")],
        ids=["inside-payload", "after-payload"],
    )
    def test_checksum_covers_the_stored_bytes(self, tmp_path, old, new):
        # the same JSON value in other bytes still fails: the checksum is
        # over the payload exactly as written, not a re-serialization of it
        directory = DurabilityDirectory(tmp_path)
        path = directory.write_snapshot(snapshot(0, 7))
        data = path.read_bytes()
        path.write_bytes(data.replace(old, new, 1))
        assert json.loads(path.read_bytes()) == json.loads(data)
        with pytest.raises(RecoveryError, match="checksum mismatch"):
            directory.load_snapshot_file(path)

    def test_torn_snapshot_file_is_rejected(self, tmp_path):
        directory = DurabilityDirectory(tmp_path)
        path = directory.write_snapshot(snapshot(0, 7))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(RecoveryError, match="unreadable snapshot"):
            directory.load_snapshot_file(path)

    def test_snapshot_without_its_envelope_or_offset_is_rejected(self, tmp_path):
        # such files only ever sat beside a JSON-lines log, which is refused
        directory = DurabilityDirectory(tmp_path)
        path = directory.write_snapshot(snapshot(0, 7))
        payload = json.loads(path.read_bytes())["payload"]
        path.write_text(json.dumps(payload))  # the pre-checksum layout
        with pytest.raises(RecoveryError, match="no checksummed payload"):
            directory.load_snapshot_file(path)
        del payload["log_offset"]
        body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        digest = hashlib.sha256(body.encode()).hexdigest()
        path.write_text(f'{{"checksum":"{digest}","payload":{body}}}')
        with pytest.raises(RecoveryError, match="malformed snapshot.*log_offset"):
            directory.load_snapshot_file(path)


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

    def test_torn_tail_past_the_snapshot_is_cut_at_its_absolute_byte(self, tmp_path):
        engine = build_t()
        engine.enable_durability(tmp_path)
        insert(engine, 1, 2, 3)
        offset = engine.take_snapshot().log_offset
        insert(engine, 4, 5)
        raw = (tmp_path / "command.log").read_bytes()
        last_start = frame_ends(raw)[-2]
        assert 0 < offset < last_start  # the torn record is in the suffix

        def tear(path):
            (path / "command.log").write_bytes(raw[: last_start + 9])

        durable = self.assert_both_paths_agree(
            engine, tmp_path, 1, rows(1, 2, 3, 4), damage=tear
        )
        assert durable == 4
        assert (tmp_path / "command.log").read_bytes() == raw[:last_start]
        report = engine.last_recovery_report
        assert (report.torn_records, report.replayed_transactions) == (1, 1)

    def test_damaged_newest_snapshot_falls_back_to_the_previous_offset(
        self, tmp_path, monkeypatch
    ):
        engine = build_t()
        engine.enable_durability(tmp_path)
        insert(engine, 1, 2)
        engine.take_snapshot()  # through LSN 2
        insert(engine, 3, 4)
        newest = engine.take_snapshot()  # through LSN 4
        insert(engine, 5)

        def damage(path):
            (path / "snapshots" / f"{newest.snapshot_id:08d}.json").write_bytes(
                b"\x00torn"
            )

        built = count_log_records(monkeypatch)
        durable = self.assert_both_paths_agree(
            engine, tmp_path, 1, rows(1, 2, 3, 4, 5), damage=damage
        )
        assert durable == 5
        report = engine.last_recovery_report
        assert (report.snapshots_skipped, report.replayed_transactions) == (1, 3)
        # each of the two recoveries parsed exactly the three records past
        # the older snapshot's offset: not the prefix, not a full scan
        assert len(built) == 2 * 3

    def test_second_snapshot_after_a_restore(self, tmp_path):
        first = build_t()
        first.enable_durability(tmp_path)
        insert(first, 1, 2)
        first.take_snapshot()
        insert(first, 3)
        first.shutdown()

        engine = build_t()
        engine.restore_from_disk(tmp_path)
        insert(engine, 4)
        second = engine.take_snapshot()
        insert(engine, 5)
        ends = frame_ends((tmp_path / "command.log").read_bytes())
        assert second.log_offset == ends[3]

        durable = self.assert_both_paths_agree(
            engine, tmp_path, 1, rows(1, 2, 3, 4, 5)
        )
        assert durable == 5
        report = engine.last_recovery_report
        assert report.had_snapshot and report.replayed_transactions == 1

    @staticmethod
    def assert_both_paths_agree(engine, path, group_size, expected, damage=None):
        """Crash ``engine``, apply ``damage`` to its files, then recover it in
        place and restore a byte-identical copy into a fresh engine: rows,
        report, repaired log and counters must agree.  Returns the durable
        record count, which ``len``, ``durable_lsn`` and the next append's
        LSN all equal."""
        engine.crash()
        if damage is not None:
            damage(path)
        twin = path.parent / f"{path.name}-twin"
        shutil.copytree(path, twin)
        engine.recover()
        fresh = build_t(group_size)
        fresh.restore_from_disk(twin)
        assert engine.table_rows("t") == fresh.table_rows("t") == expected
        assert engine.last_recovery_report == fresh.last_recovery_report
        log_bytes = (path / "command.log").read_bytes()
        assert log_bytes == (twin / "command.log").read_bytes()
        live, restored = (
            (len(log), log.durable_lsn, log.next_lsn)
            for log in (engine.command_log, fresh.command_log)
        )
        fresh.shutdown()
        assert live == restored == (live[0],) * 3
        return live[0]


def insert(engine: HStoreEngine, *keys: int) -> None:
    for k in keys:
        engine.execute_sql(f"INSERT INTO t VALUES ({k}, {k * 10})")


def rows(*keys: int) -> list[tuple[int, int]]:
    return [(k, k * 10) for k in keys]


def count_log_records(monkeypatch) -> list:
    """Collects one entry per :class:`LogRecord` built from here on — one per
    frame a scan decodes."""
    built = []
    init = LogRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LogRecord, "__init__", counting)
    return built


def snapshotted_run(path) -> Snapshot:
    """Five inserts into ``t`` with a snapshot after the third (through LSN
    3), the engine then shut down as an exiting process would; returns the
    snapshot as loaded back from its file."""
    engine = build_t()
    engine.enable_durability(path)
    insert(engine, 1, 2, 3)
    engine.take_snapshot()
    insert(engine, 4, 5)
    engine.shutdown()
    return DurabilityDirectory(path).load_latest_snapshot()


class TestLogOffset:
    """A snapshot's ``log_offset`` is trusted only as far as it checks out:
    any corrupt byte recovery reads raises, and the bytes it skips are still
    checked by every full-history reader."""

    def test_snapshots_record_where_their_suffix_starts(self, tmp_path):
        snapshot = snapshotted_run(tmp_path)
        ends = frame_ends((tmp_path / "command.log").read_bytes())
        assert snapshot.through_lsn == 3
        assert snapshot.log_offset == ends[2]

    def test_log_shorter_than_the_offset_raises_naming_both_sizes(self, tmp_path):
        snapshot = snapshotted_run(tmp_path)
        log = tmp_path / "command.log"
        short = snapshot.log_offset - 10
        log.write_bytes(log.read_bytes()[:short])
        with pytest.raises(
            RecoveryError, match=f"holds {short} bytes.*byte {snapshot.log_offset}"
        ):
            build_t().restore_from_disk(tmp_path)

    @pytest.mark.parametrize(
        "where,message",
        [
            ("record-early", "has LSN 2, but LSN 3 comes next"),
            ("mid-record", "corrupt log record"),
        ],
    )
    def test_offset_off_the_record_at_through_lsn_raises(
        self, tmp_path, where, message
    ):
        snapshot = snapshotted_run(tmp_path)
        ends = frame_ends((tmp_path / "command.log").read_bytes())
        # a frame boundary, but LSN 2's; or one byte into LSN 3's frame
        if where == "record-early":
            moved = ends[1]
        else:
            moved = snapshot.log_offset + 1
        DurabilityDirectory(tmp_path).write_snapshot(
            replace(snapshot, log_offset=moved)
        )
        with pytest.raises(RecoveryError, match=message):
            build_t().restore_from_disk(tmp_path)

    def test_corruption_before_the_offset_is_left_to_full_history_readers(
        self, tmp_path
    ):
        engine = build_t()
        engine.enable_durability(tmp_path)
        insert(engine, 1, 2, 3)
        engine.take_snapshot()
        insert(engine, 4, 5)
        engine.crash()
        log = tmp_path / "command.log"
        raw = bytearray(log.read_bytes())
        raw[frame_ends(raw)[1] - 1] ^= 0xFF  # in place: offsets hold
        log.write_bytes(bytes(raw))

        assert engine.recover() == 2  # never read the damaged prefix
        assert engine.table_rows("t") == rows(1, 2, 3, 4, 5)
        with pytest.raises(RecoveryError, match="corrupt log record"):
            DurabilityDirectory(tmp_path).scan_log()
        with pytest.raises(RecoveryError, match="corrupt log record"):
            engine.command_log.all_records()
        engine.shutdown()
