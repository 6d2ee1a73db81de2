"""Crash-recovery equivalence: faulted run ≡ uninterrupted run.

The checker executes one deterministic client workload twice against
engines produced by the same factory:

1. **reference** — durability on, no faults, all operations applied once;
2. **faulted** — durability on, a :class:`FaultPlan` armed.  Whenever an
   injected fault kills the simulated process, the dead engine object is
   discarded, a fresh engine is built and restored from the durable
   directory (recovery itself may be re-killed by ``recovery.replay``
   faults and is simply retried), and the client resumes.

Resumption is *exactly-once*: each client operation (``ingest`` / ``tick`` /
``call``) appends exactly one command-log record, so the engine's
``durable_op_count()`` of the recovered log says precisely which operations
survived.  An operation whose record never became durable is retried; one
whose record was durable but whose acknowledgement was dropped is **not** —
the paper's command-logging contract, made testable.  The count relies on
the directory keeping the whole log (docs/INTERNALS.md §5, "Where history
lives").

The verdict is :func:`repro.core.recovery.diverging` over the two engines'
``observe()``: every table, window, per-stream commit digest and the clock
must be equal, per partition or per worker.

The engine factory may build an in-process engine *or* a process cluster
(:class:`repro.parallel.ParallelHStoreEngine`,
:class:`repro.dstream.DStreamEngine`) — the checker drives all of them
through the same API.  Parallel factories must use ``log_group_size=1`` (so
every completed op's record is durable the moment it commits, keeping
durable-record counts a prefix of the op sequence even when ops scatter
across worker logs) and restrict ``call`` ops to single-partition
procedures (run-everywhere commits log one record *per worker*, which would
break the one-record-per-op count).
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.recovery import diverging
from repro.errors import InjectedFault, RecoveryError, ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hstore.engine import HStoreEngine

__all__ = ["Op", "EquivalenceReport", "RecoveryEquivalenceChecker"]

#: one client operation: ("ingest", stream, rows) | ("tick", ticks)
#: | ("snapshot",) | ("call", procedure_name, params)
Op = tuple

#: command-log pseudo-procedures produced by exactly one client op each
_RECORD_PER_OP = ("<ingest>", "<tick>")


@dataclass
class EquivalenceReport:
    """Outcome of one reference-vs-faulted comparison."""

    equivalent: bool
    ops_total: int
    crashes: int
    recoveries: int
    replayed_transactions: int
    torn_records: int
    snapshots_skipped: int
    faults_fired: list[str] = field(default_factory=list)
    mismatched_keys: list[str] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else "DIVERGED"
        return (
            f"{verdict}: ops={self.ops_total} crashes={self.crashes} "
            f"recoveries={self.recoveries} replayed={self.replayed_transactions} "
            f"torn={self.torn_records} snapshots_skipped={self.snapshots_skipped} "
            f"faults=[{', '.join(self.faults_fired) or 'none fired'}]"
        )


class RecoveryEquivalenceChecker:
    """Runs a seeded workload twice and asserts recovered-state equality."""

    def __init__(
        self,
        build_engine: Callable[[], HStoreEngine],
        ops: Sequence[Op],
        plan: FaultPlan,
        *,
        workdir: str | pathlib.Path | None = None,
        max_recoveries: int = 12,
    ) -> None:
        self.build_engine = build_engine
        self.ops = list(ops)
        self.plan = plan
        self.injector = FaultInjector(plan)
        self._workdir = pathlib.Path(workdir) if workdir is not None else None
        self.max_recoveries = max_recoveries
        #: log procedure names produced by exactly one client op each —
        #: the pseudo-procedures plus every procedure named by a "call" op
        #: (which must therefore be a committing single-partition writer)
        self._logged_procedures = frozenset(_RECORD_PER_OP) | {
            op[1] for op in self.ops if op[0] == "call"
        }

    # ------------------------------------------------------------------

    def run(self) -> EquivalenceReport:
        owns_workdir = self._workdir is None
        workdir = (
            pathlib.Path(tempfile.mkdtemp(prefix="repro-faults-"))
            if owns_workdir
            else self._workdir
        )
        try:
            reference = self._run_reference(workdir / "reference")
            return self._run_faulted(workdir / "faulted", reference)
        finally:
            if owns_workdir:
                shutil.rmtree(workdir, ignore_errors=True)

    # ------------------------------------------------------------------

    def _run_reference(self, directory: pathlib.Path) -> dict[str, Any]:
        engine = self.build_engine()
        try:
            engine.enable_durability(directory)
            for op in self.ops:
                self._apply(engine, op)
            self._quiesce(engine)
            return engine.observe()
        finally:
            self._dispose(engine)

    def _run_faulted(
        self, directory: pathlib.Path, reference: dict[str, Any]
    ) -> EquivalenceReport:
        crashes = 0
        recoveries = 0

        engine = self.build_engine()
        # durability is enabled before the injector is armed: flushing the
        # setup history (factory seed DML) is part of deployment, and a
        # client could not retry it op-by-op the way it retries `ops`
        engine.enable_durability(directory)
        engine.install_fault_injector(self.injector)

        totals = {"replayed": 0, "torn": 0, "snapshots_skipped": 0}

        def recover(dead: HStoreEngine) -> HStoreEngine:
            nonlocal recoveries, crashes
            self._dispose(dead)
            fresh, report = self._recover(directory)
            recoveries += 1
            crashes += report.pop("crashes")
            for key, value in report.items():
                totals[key] += value
            return fresh

        index = 0
        verified = False
        while True:
            while index < len(self.ops):
                try:
                    self._apply(engine, self.ops[index])
                    index += 1
                except InjectedFault:
                    crashes += 1
                    if crashes > self.max_recoveries:
                        raise RecoveryError(
                            f"fault plan {self.plan.describe()} did not "
                            f"converge after {crashes} crashes"
                        )
                    engine = recover(engine)
                    index = self._resume_index(engine)
            self._quiesce(engine)
            if verified or not self._needs_verification_restart(crashes):
                break
            # A damage-only fault (corrupt snapshot) never kills the process
            # by itself; force one restart so recovery actually faces the
            # damaged artifacts before we compare state.
            verified = True
            try:
                engine.command_log.flush()
            except InjectedFault:
                crashes += 1
            engine = recover(engine)
            index = self._resume_index(engine)

        replayed = totals["replayed"]
        torn = totals["torn"]
        snapshots_skipped = totals["snapshots_skipped"]
        mismatched = diverging(reference, engine.observe())
        self._dispose(engine)
        return EquivalenceReport(
            equivalent=not mismatched,
            ops_total=len(self.ops),
            crashes=crashes,
            recoveries=recoveries,
            replayed_transactions=replayed,
            torn_records=torn,
            snapshots_skipped=snapshots_skipped,
            faults_fired=list(self.injector.fired_log),
            mismatched_keys=mismatched,
        )

    def _needs_verification_restart(self, crashes: int) -> bool:
        from repro.faults.plan import FaultAction

        corrupt_fired = any(
            spec.fired and spec.action == FaultAction.CORRUPT
            for spec in self.plan.specs
        )
        return corrupt_fired or (bool(self.injector.fired_log) and crashes == 0)

    # ------------------------------------------------------------------

    def _recover(self, directory: pathlib.Path) -> tuple[HStoreEngine, dict[str, int]]:
        """Restart until recovery completes (replay faults re-kill it)."""
        crashes = 0
        while True:
            engine = self.build_engine()
            engine.install_fault_injector(self.injector)
            try:
                engine.restore_from_disk(directory)
            except InjectedFault:
                self._dispose(engine)
                crashes += 1
                if crashes > self.max_recoveries:
                    raise RecoveryError(
                        f"recovery kept dying under plan {self.plan.describe()}"
                    )
                continue
            report = engine.last_recovery_report
            assert report is not None
            return engine, {
                "replayed": report.replayed_transactions,
                "torn": report.torn_records,
                "snapshots_skipped": report.snapshots_skipped,
                "crashes": crashes,
            }

    def _resume_index(self, engine: HStoreEngine) -> int:
        """First op whose command-log record did not survive the crash."""
        durable = engine.durable_op_count(self._logged_procedures)
        index = 0
        for op in self.ops:
            if durable == 0:
                break
            if op[0] in ("ingest", "tick", "call"):
                durable -= 1
            index += 1
        return index

    # ------------------------------------------------------------------

    def _apply(self, engine: HStoreEngine, op: Op) -> None:
        kind = op[0]
        if kind == "ingest":
            engine.ingest(op[1], [tuple(row) for row in op[2]])
        elif kind == "tick":
            engine.advance_time(op[1])
        elif kind == "snapshot":
            engine.take_snapshot()
        elif kind == "call":
            result = engine.call_procedure(op[1], *op[2])
            if not result.success:
                # a deterministic abort logs no record, which would break the
                # exactly-once record-counting resumption — fail loudly
                raise ReproError(
                    f"checker 'call' op {op[1]!r} aborted ({result.error}); "
                    f"call ops must be committing single-partition writers "
                    f"so each logs exactly one record"
                )
        else:
            raise ReproError(
                f"unsupported checker op {kind!r}; supported: ingest, tick, "
                f"snapshot, call (each ingest/tick/call must log exactly one "
                f"record for exactly-once resumption)"
            )

    @staticmethod
    def _dispose(engine: HStoreEngine) -> None:
        """Release a discarded engine's resources (log handle, workers)."""
        engine.shutdown()

    @staticmethod
    def _quiesce(engine: HStoreEngine) -> None:
        drain = getattr(engine, "run_until_quiescent", None)
        if drain is not None:
            drain()
