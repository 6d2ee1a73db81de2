"""Streaming-on-cluster crash/recover: exactly-once across worker deaths.

The acceptance battery (ISSUE 6): the unchanged
:class:`RecoveryEquivalenceChecker` passes against a :class:`DStreamEngine`
running a *cross-worker* workflow — a worker killed mid-cascade recovers by
replaying its own command log, regenerating its outbound dispatches with
identical ordering tokens, and the receiving worker's watermark dedups
anything already applied.  No acknowledgement protocol, no lost or doubled
batch.
"""

from __future__ import annotations

import pytest

from repro.core.engine import SStoreEngine
from repro.core.recovery import differential_report
from repro.faults.checker import RecoveryEquivalenceChecker
from repro.faults.plan import FaultAction, FaultPlan

from tests.dstream.conftest import build_pipe_cluster, build_pipe_single, commits_of

pytestmark = pytest.mark.dstream


def _ops(n: int = 12, tick_at: int = 4, snapshot_at: int = 9) -> list:
    ops = [("ingest", "src", [(k,)]) for k in range(n)]
    ops.insert(tick_at, ("tick", 1))
    ops.insert(snapshot_at, ("snapshot",))
    return ops


def _build():
    return build_pipe_cluster(workers=2)


# ---------------------------------------------------------------------------
# Plain durability: kill mid-cascade, recover, keep going
# ---------------------------------------------------------------------------


def test_kill_mid_cascade_then_recover_in_place(tmp_path):
    with build_pipe_cluster(workers=2) as cluster:
        cluster.enable_durability(tmp_path / "d")
        for k in range(6):
            cluster.ingest("src", [(k,)])
        cluster.take_snapshot()
        for k in range(6, 12):
            cluster.ingest("src", [(k,)])
        cluster.advance_time(2)
        before = cluster.observe()
        cluster.crash()
        cluster.recover()
        assert cluster.observe() == before


def test_restore_into_fresh_cluster_then_continue(tmp_path):
    """The exactly-once proof: a restored cluster that keeps ingesting ends
    indistinguishable from a single engine that never crashed."""
    with build_pipe_cluster(workers=2) as first:
        first.enable_durability(tmp_path / "d")
        for k in range(9):
            first.ingest("src", [(k,)])
        first.advance_time(1)
        expected = first.observe()

    single = build_pipe_single()
    for k in range(9):
        single.ingest("src", [(k,)])
    single.advance_time(1)

    with build_pipe_cluster(workers=2) as fresh:
        fresh.restore_from_disk(tmp_path / "d")
        assert fresh.observe() == expected
        for k in range(9, 15):
            single.ingest("src", [(k,)])
            fresh.ingest("src", [(k,)])
        single.run_until_quiescent()
        fresh.run_until_quiescent()
        report = differential_report(single, fresh)
        assert report.equivalent, report.summary()
        # per-stream batch order survived the crash, not just final state
        assert commits_of(fresh) == commits_of(single)


def test_shard_snapshot_stays_flat_and_commit_order_survives_it(tmp_path):
    """The consuming worker's checkpoint carries the O(streams) order digest,
    not a per-TE ledger: its size does not grow with run length, and a
    restore that starts from it still matches a never-crashed single engine
    batch for batch."""
    sizes = {}
    # 50 distinct keys: the consuming worker's own tables stay the same size
    with build_pipe_cluster(workers=2) as first:
        first.enable_durability(tmp_path / "d")
        for total in (1000, 4000):
            for k in range(len(sizes) and 1000, total):
                first.ingest("src", [(k % 50,)])
            first.take_snapshot()
            newest = max((tmp_path / "d" / "worker-1" / "snapshots").glob("*.json"))
            sizes[total] = newest.stat().st_size
        for k in range(4000, 4006):
            first.ingest("src", [(k % 50,)])
    assert abs(sizes[4000] - sizes[1000]) <= 0.10 * sizes[1000], sizes

    single = build_pipe_single()
    for k in range(4006):
        single.ingest("src", [(k % 50,)])

    with build_pipe_cluster(workers=2) as fresh:
        fresh.restore_from_disk(tmp_path / "d")
        assert fresh.last_recovery_report.had_snapshot
        for k in range(4006, 4010):
            single.ingest("src", [(k % 50,)])
            fresh.ingest("src", [(k % 50,)])
        order = commits_of(fresh)
        assert order == commits_of(single)
        assert order["commits:src"][0] == order["commits:mid"][0] == 2005
        report = differential_report(single, fresh)
        assert report.equivalent, report.summary()


def test_replay_regenerates_undelivered_dispatches(tmp_path):
    """Kill the cluster after the producer logged an ingest; on restore the
    downstream work must still happen exactly once."""
    with build_pipe_cluster(workers=2) as cluster:
        cluster.enable_durability(tmp_path / "d")
        for k in range(8):
            cluster.ingest("src", [(k,)])
        status = cluster.dstream_status()
        assert status[1]["watermarks"] == {"mid": 4}
    with build_pipe_cluster(workers=2) as fresh:
        fresh.restore_from_disk(tmp_path / "d")
        status = fresh.dstream_status()
        assert status[1]["watermarks"] == {"mid": 4}
        assert status[0]["stream_seq"] == {"mid": 4}
        counts = dict(
            fresh.execute_sql("SELECT k, n FROM sink_counts ORDER BY k").rows
        )
        assert counts == {k: 1 for k in range(8)}  # once each, no doubles


# ---------------------------------------------------------------------------
# The seeded scenario battery (checker, unchanged, ≥8 scenarios)
# ---------------------------------------------------------------------------

# occurrence counting is per worker: worker 0 logs ~13 <ingest>/<tick>
# appends, worker 1 logs ~7 <task>/<tick> appends — keep `at` within both
_SCENARIOS = [
    ("append-crash", [("log.append", FaultAction.CRASH, 3)]),
    ("flush-crash", [("log.flush", FaultAction.CRASH, 5)]),
    ("torn-write", [("log.append", FaultAction.TORN_WRITE, 6)]),
    ("ack-drop", [("log.flush", FaultAction.DROP_ACK, 4)]),
    ("corrupt-snapshot", [("snapshot.write", FaultAction.CORRUPT, 1)]),
    (
        "replay-crash",
        [
            ("log.flush", FaultAction.CRASH, 6),
            ("recovery.replay", FaultAction.CRASH, 2),
        ],
    ),
    (
        "double-crash",
        [
            ("log.append", FaultAction.CRASH, 2),
            ("log.flush", FaultAction.CRASH, 5),
        ],
    ),
    ("late-append-crash", [("log.append", FaultAction.CRASH, 7)]),
]


@pytest.mark.parametrize("label,specs", _SCENARIOS, ids=[s[0] for s in _SCENARIOS])
def test_checker_equivalence_on_streaming_cluster(label, specs, tmp_path):
    plan = FaultPlan(seed=11)
    for point, action, at in specs:
        plan.add(point, action, at=at)
    checker = RecoveryEquivalenceChecker(_build, _ops(), plan, workdir=tmp_path)
    report = checker.run()
    assert report.faults_fired, f"{label}: plan never fired — scenario is vacuous"
    assert report.equivalent, f"{label}: {report.summary()} {report.mismatched_keys}"


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1337])
def test_checker_seeded_sweep_on_streaming_cluster(seed, tmp_path):
    plan = FaultPlan.single_fault(
        seed, points=("log.append", "log.flush", "snapshot.write")
    )
    checker = RecoveryEquivalenceChecker(_build, _ops(), plan, workdir=tmp_path)
    report = checker.run()
    assert report.equivalent, report.summary()


def test_checker_matches_single_engine_shape(tmp_path):
    """The same ops through an in-process SStoreEngine — the dstream ops
    vocabulary is not cluster-only."""

    def build():
        return build_pipe_single()

    plan = FaultPlan(seed=5)
    plan.add("log.append", FaultAction.CRASH, at=4)
    checker = RecoveryEquivalenceChecker(build, _ops(), plan, workdir=tmp_path)
    report = checker.run()
    assert report.faults_fired and report.equivalent, report.summary()
