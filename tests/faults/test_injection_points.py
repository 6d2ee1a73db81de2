"""Unit tests for every injection point's durability contract.

Each test arms one fault, drives a small durable KV workload into it, then
restarts from disk and checks exactly what the command-logging protocol
promises survives: everything durable at the crash, nothing more, nothing
less.
"""

from __future__ import annotations

import errno
import gc
import warnings

import pytest

from repro.errors import InjectedCrash, InjectedFault, RecoveryError
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import FaultAction
from repro.hstore.codec import decode_frame

from tests.faults.conftest import frame_ends, make_kv

pytestmark = pytest.mark.faults


def armed_kv(plan: FaultPlan, tmp_path, **kwargs):
    engine = make_kv(**kwargs)
    engine.install_fault_injector(FaultInjector(plan))
    engine.enable_durability(tmp_path)
    return engine


def kv_keys(engine) -> list[int]:
    return sorted(row[0] for row in engine.table_rows("kv"))


def restored(tmp_path, **kwargs):
    engine = make_kv(**kwargs)
    engine.restore_from_disk(tmp_path)
    return engine


class TestLogFlush:
    def test_crash_before_flush_loses_unacked_txns_only(self, tmp_path, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("log.flush", FaultAction.CRASH, at=2)
        engine = armed_kv(plan, tmp_path, log_group_size=3)
        for key in range(5):
            engine.call_procedure("put", key, f"v{key}")
        with pytest.raises(InjectedCrash):
            engine.call_procedure("put", 5, "v5")  # fills the second group
        # first group (0,1,2) was flushed and survives; the second group
        # (3,4,5) never reached the durable log — unacked, so losable
        assert kv_keys(restored(tmp_path, log_group_size=3)) == [0, 1, 2]

    def test_crash_after_flush_loses_nothing(self, tmp_path, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("log.flush", FaultAction.DROP_ACK, at=2)
        engine = armed_kv(plan, tmp_path, log_group_size=3)
        for key in range(5):
            engine.call_procedure("put", key, f"v{key}")
        with pytest.raises(InjectedCrash):
            engine.call_procedure("put", 5, "v5")
        # the ack was dropped but the write was durable: all six survive
        assert kv_keys(restored(tmp_path, log_group_size=3)) == [0, 1, 2, 3, 4, 5]

    def test_flush_io_error_is_a_clean_loss(self, tmp_path, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("log.flush", FaultAction.IO_ERROR, at=2, errno_code=errno.EIO)
        engine = armed_kv(plan, tmp_path)
        engine.call_procedure("put", 0, "a")
        with pytest.raises(OSError) as excinfo:
            engine.call_procedure("put", 1, "b")
        assert excinfo.value.errno == errno.EIO
        assert isinstance(excinfo.value, InjectedFault)
        assert kv_keys(restored(tmp_path)) == [0]


class TestLogAppend:
    def test_crash_loses_exactly_the_unwritten_record(self, tmp_path, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("log.append", FaultAction.CRASH, at=3)
        engine = armed_kv(plan, tmp_path)
        engine.call_procedure("put", 0, "a")
        engine.call_procedure("put", 1, "b")
        with pytest.raises(InjectedCrash):
            engine.call_procedure("put", 2, "c")
        assert kv_keys(restored(tmp_path)) == [0, 1]

    def test_torn_record_is_skipped_and_reported(self, tmp_path, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("log.append", FaultAction.TORN_WRITE, at=3)
        engine = armed_kv(plan, tmp_path)
        engine.call_procedure("put", 0, "a")
        engine.call_procedure("put", 1, "b")
        with pytest.raises(InjectedCrash):
            engine.call_procedure("put", 2, "c")

        fresh = restored(tmp_path)
        report = fresh.last_recovery_report
        assert report is not None
        assert report.torn_records == 1
        assert kv_keys(fresh) == [0, 1]

        # the file was physically repaired: the client retry appends cleanly
        fresh.call_procedure("put", 2, "c")
        again = restored(tmp_path)
        assert again.last_recovery_report.torn_records == 0
        assert kv_keys(again) == [0, 1, 2]

    def test_disk_full_on_append(self, tmp_path, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("log.append", FaultAction.IO_ERROR, at=2, errno_code=errno.ENOSPC)
        engine = armed_kv(plan, tmp_path)
        engine.call_procedure("put", 0, "a")
        with pytest.raises(OSError) as excinfo:
            engine.call_procedure("put", 1, "b")
        assert excinfo.value.errno == errno.ENOSPC
        assert kv_keys(restored(tmp_path)) == [0]

    def test_torn_offset_is_seed_deterministic(self, tmp_path, fault_seed):
        def torn_log_bytes(directory):
            plan = FaultPlan(fault_seed)
            plan.add("log.append", FaultAction.TORN_WRITE, at=2)
            engine = armed_kv(plan, directory)
            engine.call_procedure("put", 0, "a")
            with pytest.raises(InjectedCrash):
                engine.call_procedure("put", 1, "b")
            return (directory / "command.log").read_bytes()

        first = torn_log_bytes(tmp_path / "one")
        second = torn_log_bytes(tmp_path / "two")
        assert first == second


class TestOneAppendHandle:
    """The log is written through one kept handle; on disk nothing changed."""

    @pytest.mark.parametrize(
        "action", [FaultAction.CRASH, FaultAction.TORN_WRITE, FaultAction.IO_ERROR]
    )
    def test_append_fault_leaves_a_byte_prefix_of_the_clean_log(
        self, tmp_path, fault_seed, action
    ):
        clean = make_kv(log_group_size=3)
        clean.enable_durability(tmp_path / "clean")
        for key in range(6):
            clean.call_procedure("put", key, f"v{key}")
        reference = (tmp_path / "clean" / "command.log").read_bytes()
        ends = frame_ends(reference)

        # the 5th append is the 2nd record of the 2nd group: the record
        # before it sits in the handle's buffer when the fault fires
        plan = FaultPlan(fault_seed)
        plan.add("log.append", action, at=5, errno_code=errno.EIO)
        engine = armed_kv(plan, tmp_path / "faulted", log_group_size=3)
        for key in range(5):
            engine.call_procedure("put", key, f"v{key}")
        with pytest.raises((InjectedCrash, OSError)):
            engine.call_procedure("put", 5, "v5")
        faulted = (tmp_path / "faulted" / "command.log").read_bytes()

        assert faulted == reference[: len(faulted)]
        if action is FaultAction.TORN_WRITE:
            assert ends[3] < len(faulted) < ends[4]
        else:
            assert len(faulted) == ends[3]

    def test_repaired_tail_then_appends_stay_one_record_per_frame(
        self, tmp_path, fault_seed
    ):
        plan = FaultPlan(fault_seed)
        plan.add("log.append", FaultAction.TORN_WRITE, at=3)
        engine = armed_kv(plan, tmp_path)
        engine.call_procedure("put", 0, "a")
        engine.call_procedure("put", 1, "b")
        with pytest.raises(InjectedCrash):
            engine.call_procedure("put", 2, "c")
        fresh = restored(tmp_path)  # truncates the torn tail
        for key in (2, 3, 4):
            fresh.call_procedure("put", key, "x")  # one handle, three groups
        raw = (tmp_path / "command.log").read_bytes()
        ends = frame_ends(raw)
        assert ends[-1] == len(raw)
        assert [decode_frame(raw, end)[0].lsn for end in [0, *ends[:-1]]] == [0, 1, 2, 3, 4]

    def test_second_engine_restores_while_the_writer_lives(self, tmp_path):
        writer = make_kv()
        writer.enable_durability(tmp_path)
        for key in range(3):
            writer.call_procedure("put", key, "x")
        # no shutdown, no close: every flushed record is already in the file
        assert kv_keys(restored(tmp_path)) == [0, 1, 2]
        writer.call_procedure("put", 3, "x")
        assert kv_keys(restored(tmp_path)) == [0, 1, 2, 3]

    @pytest.mark.parametrize("end", ["shutdown", "crash"])
    def test_no_handle_outlives_shutdown_or_crash(self, tmp_path, end):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine = make_kv()
            engine.enable_durability(tmp_path)
            engine.call_procedure("put", 0, "a")
            getattr(engine, end)()
            del engine
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestSnapshotWrite:
    def test_crash_tears_snapshot_and_recovery_falls_back(self, tmp_path, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("snapshot.write", FaultAction.CRASH, at=2)
        engine = armed_kv(plan, tmp_path)
        engine.call_procedure("put", 0, "a")
        engine.call_procedure("put", 1, "b")
        engine.take_snapshot()  # first snapshot lands intact
        engine.call_procedure("put", 2, "c")
        engine.call_procedure("put", 3, "d")
        with pytest.raises(InjectedCrash):
            engine.take_snapshot()  # second snapshot torn mid-write

        fresh = restored(tmp_path)
        report = fresh.last_recovery_report
        assert report.had_snapshot
        assert report.snapshots_skipped == 1
        # fell back to snapshot #1, so the post-snapshot suffix replays
        assert report.replayed_transactions == 2
        assert kv_keys(fresh) == [0, 1, 2, 3]

    def test_io_error_means_snapshot_never_landed(self, tmp_path, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("snapshot.write", FaultAction.IO_ERROR, at=1)
        engine = armed_kv(plan, tmp_path)
        engine.call_procedure("put", 0, "a")
        with pytest.raises(OSError):
            engine.take_snapshot()
        fresh = restored(tmp_path)
        assert not fresh.last_recovery_report.had_snapshot
        assert fresh.last_recovery_report.snapshots_skipped == 0
        assert kv_keys(fresh) == [0]

    def test_corrupt_snapshot_falls_back_with_longer_replay(self, tmp_path, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("snapshot.write", FaultAction.CORRUPT, at=2)
        engine = armed_kv(plan, tmp_path)
        engine.call_procedure("put", 0, "a")
        engine.call_procedure("put", 1, "b")
        engine.take_snapshot()
        engine.call_procedure("put", 2, "c")
        engine.take_snapshot()  # silently corrupted on disk
        engine.call_procedure("put", 3, "d")

        fresh = restored(tmp_path)
        report = fresh.last_recovery_report
        assert report.snapshots_skipped == 1
        # with the corrupt snapshot #2 we would replay only lsn 3; falling
        # back to snapshot #1 pays a longer replay (lsns 2 and 3)
        assert report.replayed_transactions == 2
        assert kv_keys(fresh) == [0, 1, 2, 3]


class TestSnapshotFsync:
    def test_crash_after_fsync_keeps_the_snapshot(self, tmp_path, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("snapshot.fsync", FaultAction.CRASH, at=1)
        engine = armed_kv(plan, tmp_path)
        engine.call_procedure("put", 0, "a")
        engine.call_procedure("put", 1, "b")
        with pytest.raises(InjectedCrash):
            engine.take_snapshot()
        fresh = restored(tmp_path)
        report = fresh.last_recovery_report
        assert report.had_snapshot
        assert report.snapshots_skipped == 0
        assert report.replayed_transactions == 0  # snapshot covered everything
        assert kv_keys(fresh) == [0, 1]


class TestRecoveryReplay:
    def test_crash_during_replay_then_retry_succeeds(self, tmp_path, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("recovery.replay", FaultAction.CRASH, at=2)
        engine = armed_kv(plan, tmp_path)
        injector = engine.fault_injector
        for key in range(4):
            engine.call_procedure("put", key, f"v{key}")

        dying = make_kv()
        dying.install_fault_injector(injector)
        with pytest.raises(InjectedCrash):
            dying.restore_from_disk(tmp_path)

        # recovery is restartable: a second attempt replays from scratch
        fresh = make_kv()
        fresh.install_fault_injector(injector)
        fresh.restore_from_disk(tmp_path)
        assert kv_keys(fresh) == [0, 1, 2, 3]
        assert fresh.last_recovery_report.replayed_transactions == 4


class TestDurabilityDisabled:
    def test_crash_and_recover_raises_clear_error(self):
        from repro.hstore.recovery import crash_and_recover

        engine = make_kv(command_logging=False)
        engine.call_procedure("put", 0, "a")
        with pytest.raises(RecoveryError, match="command_logging=False"):
            crash_and_recover(engine)
        # the refusal left the engine alive, not half-crashed
        engine.call_procedure("put", 1, "b")
        assert kv_keys(engine) == [0, 1]

    def test_streaming_crash_and_recover_raises_clear_error(self):
        from repro.core.recovery import crash_and_recover_streaming
        from tests.faults.conftest import make_tally

        engine = make_tally(command_logging=False)
        engine.ingest("keys", [(1,), (2,)])
        with pytest.raises(RecoveryError, match="command_logging=False"):
            crash_and_recover_streaming(engine)

    def test_enable_durability_refused(self, tmp_path):
        engine = make_kv(command_logging=False)
        with pytest.raises(Exception, match="command_logging=False"):
            engine.enable_durability(tmp_path)
