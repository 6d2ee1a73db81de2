"""E7 — Upstream-backup fault tolerance.

Paper claim (§2): "we leverage H-Store's command logging mechanism to
provide an upstream backup based fault tolerance technique for our streaming
transaction workflows."

Measured: (a) recovered state is bit-identical to the pre-crash state, with
and without snapshots; (b) recovery time scales with the replayed log suffix
length, so snapshots shorten it — in memory and from a durability directory,
where a restore parses only the suffix past the snapshot's byte offset
however long the checkpointed prefix; (c) only border inputs are logged (the
upstream-backup property itself).
"""

from __future__ import annotations

import time

import pytest

from repro.apps.voter.sstore_app import VoterSStoreApp
from repro.apps.voter.workload import VoterWorkload
from repro.bench import format_table
from repro.core.recovery import crash_and_recover_streaming
from repro.hstore.cmdlog import LogRecord

CONTESTANTS = 8
VOTES = 400
#: records logged after the snapshot in the directory-mode arm
SUFFIX = 100


def _prepared(snapshot_interval=None) -> VoterSStoreApp:
    app = VoterSStoreApp(
        num_contestants=CONTESTANTS, snapshot_interval=snapshot_interval
    )
    requests = VoterWorkload(seed=707, num_contestants=CONTESTANTS).generate(VOTES)
    app.submit(requests, ingest_chunk=4)
    return app


def test_e7_recovery_without_snapshot(benchmark, save_report):
    app = _prepared()

    def crash_recover():
        return crash_and_recover_streaming(app.engine)

    report = benchmark.pedantic(crash_recover, rounds=3, iterations=1)
    benchmark.extra_info["replayed"] = report.replayed_records
    save_report(
        "e7_no_snapshot",
        f"replayed={report.replayed_records} state_matches={report.state_matches}",
    )
    assert report.state_matches
    assert not report.had_snapshot


def test_e7_recovery_with_snapshot(benchmark, save_report):
    app = _prepared(snapshot_interval=60)

    def crash_recover():
        return crash_and_recover_streaming(app.engine)

    report = benchmark.pedantic(crash_recover, rounds=3, iterations=1)
    benchmark.extra_info["replayed"] = report.replayed_records
    save_report(
        "e7_with_snapshot",
        f"replayed={report.replayed_records} state_matches={report.state_matches}",
    )
    assert report.state_matches
    assert report.had_snapshot
    # the snapshot bounded the replay suffix
    assert report.replayed_records < VOTES / 4


def test_e7_replay_scales_with_suffix(benchmark, save_report):
    """Recovery time grows with the un-snapshotted suffix — snapshots pay."""
    rows = []

    def measure():
        rows.clear()
        for fraction in (0.25, 0.5, 1.0):
            app = VoterSStoreApp(num_contestants=CONTESTANTS)
            requests = VoterWorkload(
                seed=708, num_contestants=CONTESTANTS
            ).generate(int(VOTES * fraction))
            app.submit(requests, ingest_chunk=4)
            started = time.perf_counter()
            report = crash_and_recover_streaming(app.engine)
            elapsed = time.perf_counter() - started
            assert report.state_matches
            rows.append([f"{fraction:.2f}", report.replayed_records,
                         f"{elapsed * 1000:.1f}ms"])
        return rows

    benchmark.pedantic(measure, rounds=1, iterations=1)
    save_report(
        "e7_replay_scaling",
        format_table(["workload fraction", "records replayed", "recovery time"], rows),
    )


def _durable_run(path, prefix: int):
    """Log ``prefix`` records (one vote each) into ``path``, snapshot, log
    ``SUFFIX`` more; returns (the snapshot, votes counted at the end)."""
    app = VoterSStoreApp(num_contestants=CONTESTANTS)
    app.engine.enable_durability(path)
    requests = iter(
        VoterWorkload(seed=709, num_contestants=CONTESTANTS).generate(prefix + SUFFIX)
    )
    log = app.engine.command_log
    while log.durable_lsn < prefix:
        app.submit([next(requests)])
    snapshot = app.engine.take_snapshot()
    while log.durable_lsn < prefix + SUFFIX:
        app.submit([next(requests)])
    votes = app.summary().total_votes
    app.engine.shutdown()
    return snapshot, votes


def test_e7_directory_restore_reads_only_the_suffix(
    benchmark, save_report, tmp_path, monkeypatch
):
    """Directory mode: the same suffix behind a 1x, 4x and 16x checkpointed
    prefix parses the same records and takes about the same time."""
    built: list[tuple] = []
    init = LogRecord.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    rows = []

    def measure():
        rows.clear()
        for factor in (1, 4, 16):
            path = tmp_path / f"prefix-{factor}x"
            snapshot, votes = _durable_run(path, factor * SUFFIX)
            fresh = VoterSStoreApp(num_contestants=CONTESTANTS)
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(LogRecord, "__init__", counting)
                started = time.perf_counter()
                replayed = fresh.engine.restore_from_disk(path)
                elapsed = time.perf_counter() - started
            assert fresh.summary().total_votes == votes
            # parsed == replayed == the suffix, whatever the prefix
            assert snapshot.through_lsn == factor * SUFFIX
            assert len(built) == replayed == SUFFIX
            assert len(fresh.engine.command_log) == snapshot.through_lsn + SUFFIX
            fresh.engine.shutdown()
            rows.append([f"{factor}x", snapshot.through_lsn, snapshot.log_offset,
                         len(built), replayed, f"{elapsed * 1000:.1f}ms"])
        return rows

    benchmark.pedantic(measure, rounds=1, iterations=1)
    save_report(
        "e7_suffix_only",
        format_table(["prefix", "prefix records", "log_offset (B)",
                      "records parsed", "records replayed", "restore time"], rows),
    )


def test_e7_only_border_inputs_logged(benchmark, save_report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    app = _prepared()
    kinds: dict[str, int] = {}
    for record in app.engine.command_log.all_records():
        kinds[record.procedure] = kinds.get(record.procedure, 0) + 1
    save_report(
        "e7_log_contents",
        format_table(["record kind", "count"], sorted(kinds.items())),
    )
    # upstream backup: ingest records (+ the seed DML) only — never a
    # validate_vote / update_leaderboard / remove_lowest TE
    assert set(kinds) <= {"<ingest>", "<adhoc>", "<tick>"}
    te_count = app.engine.workflow_status()["committed_tes"]
    assert te_count > kinds.get("<ingest>", 0)  # interior work was derived
