"""Deterministic fault injection for the durability and recovery stack.

The paper's fault-tolerance claim is that upstream backup + command-log
replay recovers *bit-for-bit* the state an uninterrupted run would have
produced.  This package makes that claim testable under hostile failures
instead of only at clean quiescent points:

* :class:`FaultPlan` — a seeded, fully reproducible schedule of faults at
  named injection points (``log.append``, ``log.flush``, ``snapshot.write``,
  ``snapshot.fsync``, ``recovery.replay``);
* :class:`FaultInjector` — the runtime object the engine/durability seams
  call into; it crashes the process model, tears log records mid-write,
  drops post-flush acks, raises simulated ``OSError``\\ s, or corrupts
  snapshot files, exactly when the plan says so;
* :class:`RecoveryEquivalenceChecker` — runs one seeded workload twice
  (uninterrupted vs. faulted + recovered) and compares the two engines'
  ``observe()`` (tables, windows, commit digests, clock).

See ``docs/INTERNALS.md`` § "Fault tolerance & fault injection" for the
contract each injection point honors.
"""

from repro.faults.checker import (
    EquivalenceReport,
    RecoveryEquivalenceChecker,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    INJECTION_POINTS,
    VALID_ACTIONS,
    FaultAction,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "INJECTION_POINTS",
    "VALID_ACTIONS",
    "FaultAction",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "RecoveryEquivalenceChecker",
    "EquivalenceReport",
]
