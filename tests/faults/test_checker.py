"""RecoveryEquivalenceChecker: faulted+recovered run ≡ uninterrupted run.

Each case arms one fault somewhere in a streaming tally workload and lets
the checker crash, recover, and resume until the workload completes — then
asserts table-by-table / window-by-window equality with the reference run.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, RecoveryEquivalenceChecker
from repro.faults.plan import INJECTION_POINTS, VALID_ACTIONS, FaultAction

from tests.faults.conftest import make_tally, tally_ops

pytestmark = pytest.mark.faults

ALL_CASES = [
    (point, action)
    for point in INJECTION_POINTS
    for action in VALID_ACTIONS[point]
]


def run_checker(plan, *, batch_size=1, count=20, **tally_kwargs):
    return RecoveryEquivalenceChecker(
        lambda: make_tally(batch_size=batch_size),
        tally_ops(count, **tally_kwargs),
        plan,
    ).run()


class TestEveryPointAndAction:
    @pytest.mark.parametrize("point,action", ALL_CASES, ids=lambda v: str(v))
    def test_equivalence_holds(self, point, action, fault_seed):
        plan = FaultPlan(fault_seed)
        # early enough that the fault actually fires within 20 ops (the
        # workload takes a single snapshot, so snapshot points use at=1)
        plan.add(point, action, at=1 if point.startswith("snapshot.") else 2)
        if point == "recovery.replay":
            plan.add("log.flush", FaultAction.CRASH, at=4)
        report = run_checker(plan)
        assert report.equivalent, report.summary()
        assert report.faults_fired, "fault never fired — vacuous scenario"

    def test_crash_actions_actually_crash(self, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("log.flush", FaultAction.CRASH, at=3)
        report = run_checker(plan)
        assert report.equivalent
        assert report.crashes >= 1 and report.recoveries >= 1

    def test_crash_past_the_snapshot_resumes_the_commit_digests(self, fault_seed):
        # ingests 0-8 and the tick, the snapshot, then a crash between two
        # later ingests: recovery is snapshot + suffix, and the report's
        # fingerprint includes every stream's (batches, order digest)
        plan = FaultPlan(fault_seed)
        plan.add("log.flush", FaultAction.CRASH, at=14)
        report = run_checker(plan)
        assert report.equivalent, report.summary()
        assert report.crashes == 1 and 0 < report.replayed_transactions < 10

    def test_torn_write_is_reported(self, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("log.append", FaultAction.TORN_WRITE, at=5)
        report = run_checker(plan)
        assert report.equivalent
        assert report.torn_records == 1

    def test_corrupt_snapshot_forces_fallback(self, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("snapshot.write", FaultAction.CORRUPT, at=1)
        report = run_checker(plan, snapshot_at=10)
        assert report.equivalent
        assert report.snapshots_skipped >= 1


class TestCheckerBehaviour:
    def test_no_faults_is_trivially_equivalent(self):
        report = run_checker(FaultPlan())
        assert report.equivalent
        assert report.crashes == 0 and report.recoveries == 0
        assert report.faults_fired == []

    def test_reports_are_seed_deterministic(self, fault_seed):
        def once():
            return run_checker(FaultPlan.single_fault(fault_seed))

        assert once().summary() == once().summary()

    def test_batched_nodes_survive_crashes(self, fault_seed):
        plan = FaultPlan(fault_seed)
        plan.add("log.flush", FaultAction.CRASH, at=6)
        report = run_checker(plan, batch_size=3, count=25)
        assert report.equivalent, report.summary()

    def test_seed_sweep_all_equivalent(self):
        failures = []
        for seed in range(10):
            report = run_checker(FaultPlan.single_fault(seed))
            if not report.equivalent:
                failures.append((seed, report.summary()))
        assert not failures, failures
