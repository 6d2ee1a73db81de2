"""Durability and crash-recovery of the process cluster.

The headline assertion: :class:`RecoveryEquivalenceChecker` — unchanged —
passes against :class:`ParallelHStoreEngine` for a battery of seeded crash
scenarios, i.e. a faulted-and-recovered cluster converges to exactly the
state of an uninterrupted run, with exactly-once client resumption.
"""

from __future__ import annotations

import pytest

from repro.errors import InjectedCrash, ReproError
from repro.faults.checker import RecoveryEquivalenceChecker
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultAction, FaultPlan

from tests.parallel.conftest import build_cluster

pytestmark = pytest.mark.parallel


# ---------------------------------------------------------------------------
# Plain durability (no faults)
# ---------------------------------------------------------------------------


def test_crash_recover_in_place(tmp_path):
    with build_cluster(workers=2) as cluster:
        cluster.enable_durability(tmp_path / "d")
        for key in range(10):
            assert cluster.call_procedure("PutKV", key, f"v{key}").success
        cluster.take_snapshot()
        for key in range(10, 16):
            assert cluster.call_procedure("PutKV", key, f"v{key}").success
        before = cluster.observe()
        cluster.crash()
        with pytest.raises(ReproError, match="crashed"):
            cluster.call_procedure("PutKV", 99, "x")
        replayed = cluster.recover()
        assert replayed == 6  # snapshot covers the first ten
        assert cluster.observe() == before


def test_restore_from_disk_into_fresh_cluster(tmp_path):
    with build_cluster(workers=2) as first:
        first.enable_durability(tmp_path / "d")
        for key in range(12):
            assert first.call_procedure("PutKV", key, f"v{key}").success
        first.call_procedure("BumpAll", 1, "fence")
        expected = first.observe()
    with build_cluster(workers=2) as second:
        replayed = second.restore_from_disk(tmp_path / "d")
        assert replayed >= 12
        assert second.observe() == expected
        report = second.last_recovery_report
        assert report is not None and report.replayed_transactions == replayed


def test_per_worker_durability_directories(tmp_path):
    with build_cluster(workers=2) as cluster:
        cluster.enable_durability(tmp_path / "d")
        cluster.call_procedure("PutKV", 0, "x")  # routes to worker 0
        cluster.call_procedure("PutKV", 1, "x")  # routes to worker 1
    assert (tmp_path / "d" / "worker-0" / "command.log").exists()
    assert (tmp_path / "d" / "worker-1" / "command.log").exists()


def test_crash_without_logging_refused():
    with build_cluster(workers=1, command_logging=False) as cluster:
        with pytest.raises(ReproError, match="command_logging=False"):
            cluster.crash()
        with pytest.raises(ReproError, match="command_logging=False"):
            cluster.enable_durability("/tmp/never-created")


# ---------------------------------------------------------------------------
# Fault injection across the process boundary
# ---------------------------------------------------------------------------


def test_injected_crash_kills_the_whole_facade(tmp_path):
    plan = FaultPlan(seed=3)
    plan.add("log.flush", FaultAction.CRASH, at=4)
    injector = FaultInjector(plan)
    cluster = build_cluster(workers=2)
    try:
        cluster.enable_durability(tmp_path / "d")
        cluster.install_fault_injector(injector)
        with pytest.raises(InjectedCrash):
            for key in range(40):
                cluster.call_procedure("PutKV", key, "x")
        # the coordinator's plan copy learned about the worker-side firing
        assert plan.specs[0].fired
        assert injector.fired_log == ["log.flush#4:crash"]
        # like a real dead process: no further work, not even recover()
        with pytest.raises(ReproError, match="fresh"):
            cluster.call_procedure("PutKV", 99, "x")
        with pytest.raises(ReproError, match="fresh"):
            cluster.recover()
    finally:
        cluster.shutdown()
    # a rebuilt cluster restores exactly the durable prefix
    with build_cluster(workers=2) as fresh:
        fresh.restore_from_disk(tmp_path / "d")
        keys = sorted(row[0] for row in fresh.table_rows("kv"))
        assert keys == list(range(len(keys)))  # a prefix, nothing torn out


# ---------------------------------------------------------------------------
# RecoveryEquivalenceChecker against the cluster — the acceptance battery
# ---------------------------------------------------------------------------


def _ops(n: int = 14, snapshot_at: int = 7) -> list:
    ops = [("call", "PutKV", (key, f"v{key}")) for key in range(n)]
    ops.insert(snapshot_at, ("snapshot",))
    return ops


_SCENARIOS = [
    ("append-crash", [("log.append", FaultAction.CRASH, 3)]),
    ("flush-crash", [("log.flush", FaultAction.CRASH, 5)]),
    ("torn-write", [("log.append", FaultAction.TORN_WRITE, 6)]),
    ("ack-drop", [("log.flush", FaultAction.DROP_ACK, 4)]),
    ("corrupt-snapshot", [("snapshot.write", FaultAction.CORRUPT, 1)]),
    # occurrence counting is per worker: with 14 keys split evenly across 2
    # workers, each worker sees ~7 appends/flushes, so `at` must stay ≤7
    (
        "replay-crash",
        [
            ("log.flush", FaultAction.CRASH, 6),
            ("recovery.replay", FaultAction.CRASH, 2),
        ],
    ),
    ("double-crash", [
        ("log.append", FaultAction.CRASH, 2),
        ("log.flush", FaultAction.CRASH, 5),
    ]),
]


@pytest.mark.parametrize("label,specs", _SCENARIOS, ids=[s[0] for s in _SCENARIOS])
def test_checker_equivalence_on_cluster(label, specs, tmp_path):
    plan = FaultPlan(seed=11)
    for point, action, at in specs:
        plan.add(point, action, at=at)
    checker = RecoveryEquivalenceChecker(
        lambda: build_cluster(workers=2),
        _ops(),
        plan,
        workdir=tmp_path,
    )
    report = checker.run()
    assert report.faults_fired, f"{label}: plan never fired — scenario is vacuous"
    assert report.equivalent, f"{label}: {report.summary()} {report.mismatched_keys}"


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1337])
def test_checker_seeded_sweep_on_cluster(seed, tmp_path):
    """The E10-style randomized sweep, pointed at a process cluster."""
    plan = FaultPlan.single_fault(
        seed, points=("log.append", "log.flush", "snapshot.write")
    )
    checker = RecoveryEquivalenceChecker(
        lambda: build_cluster(workers=2),
        _ops(),
        plan,
        workdir=tmp_path,
    )
    report = checker.run()
    assert report.equivalent, report.summary()


def test_checker_still_works_in_process(tmp_path):
    """The 'call' op extension must not be parallel-only."""
    from repro.hstore.engine import HStoreEngine

    from tests.parallel.conftest import _DDL, _PROCEDURES

    def build():
        engine = HStoreEngine(partitions=2, log_group_size=1)
        for ddl in _DDL:
            engine.execute_ddl(ddl)
        for procedure in _PROCEDURES:
            engine.register_procedure(procedure)
        return engine

    plan = FaultPlan(seed=5)
    plan.add("log.append", FaultAction.CRASH, at=4)
    checker = RecoveryEquivalenceChecker(build, _ops(), plan, workdir=tmp_path)
    report = checker.run()
    assert report.faults_fired and report.equivalent, report.summary()
