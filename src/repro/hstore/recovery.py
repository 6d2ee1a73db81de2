"""Recovery helpers.

The actual recovery algorithm (snapshot load + command-log replay) lives on
:class:`repro.hstore.engine.HStoreEngine`; this module adds the orchestration
helpers tests and benchmarks use to exercise it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hstore.engine import HStoreEngine

__all__ = ["RecoveryReport", "crash_and_recover"]


@dataclass(frozen=True)
class RecoveryReport:
    """What a crash/recover cycle did."""

    lost_log_records: int
    replayed_transactions: int
    had_snapshot: bool
    #: torn trailing log records detected, dropped, and truncated away
    #: during a disk restore (a mid-append crash leaves at most one)
    torn_records: int = 0
    #: damaged snapshot files skipped over before a valid (older) one —
    #: each one skipped means a longer replay suffix
    snapshots_skipped: int = 0


def crash_and_recover(engine: "HStoreEngine") -> RecoveryReport:
    """Crash the engine and immediately recover it, reporting the work done.

    Un-flushed (group-commit pending) log records are lost by the crash —
    transactions whose effects survive are exactly those whose commands were
    durable, which is the guarantee command logging provides.
    """
    lost = engine.crash()
    engine.recover()
    return replace(engine.last_recovery_report, lost_log_records=lost)
