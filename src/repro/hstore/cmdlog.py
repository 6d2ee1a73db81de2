"""Command logging.

H-Store achieves durability with *command logging* [7]: instead of physical
before/after images, the log records the logical command — which stored
procedure ran, with which parameters — and recovery replays the commands
against the latest snapshot.  This is dramatically cheaper at runtime than
ARIES-style logging and is what S-Store's upstream-backup fault tolerance
builds on (the logged commands for border procedures *are* the upstream
backup of the input streams).

``group_size`` models group commit (a flush every N records), which
benchmark A3 sweeps.  LSNs are dense from 0, and a record names its
procedure (``<ingest>``, ``<tick>``, ``<adhoc>`` and ``<task>`` for the
engine's own commands) and nothing else about its kind.  Where the durable
records live — a list standing in for the log disk, or ``command.log`` once
a directory is attached, one :mod:`repro.hstore.codec` frame per record — is
tabulated in docs/INTERNALS.md §5 ("Where history lives").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import RecoveryError
from repro.hstore.stats import EngineStats
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.hstore.durability import DurabilityDirectory

__all__ = ["LogRecord", "CommandLog"]


@dataclass(slots=True)
class LogRecord:
    """One committed transaction's logical log entry (written once, then
    only read: by the flush, by replay and by tests)."""

    lsn: int
    txn_id: int
    procedure: str
    params: tuple[Any, ...]
    partition: int
    logical_time: int


class CommandLog:
    """Append-only command log with group commit."""

    def __init__(self, group_size: int = 1, stats: EngineStats | None = None) -> None:
        if group_size < 1:
            raise RecoveryError("group commit size must be >= 1")
        self.group_size = group_size
        #: memory mode's simulated log disk; empty for good once a
        #: directory is attached (the file is then the only copy)
        self._records: list[LogRecord] = []
        self._pending: list[LogRecord] = []
        self._next_lsn = 0
        #: what the durable store holds — LSN up to which records are durable
        #: (exclusive), advanced only after its write returned; LSNs are
        #: dense from 0, so it is also the durable record count
        self.durable_lsn = 0
        self._stats = stats if stats is not None else EngineStats()
        #: the durable store once enable_durability/restore_from_disk set one
        self.directory: "DurabilityDirectory | None" = None
        #: False = the engine runs without durability: appends are dropped,
        #: so a crash is unrecoverable (and the engine refuses to simulate one)
        self.enabled = True
        #: fault-injection seam for the group-commit flush path
        self.fault_injector: "FaultInjector | None" = None
        #: tracing seam; the owning engine swaps in its real tracer
        self.tracer = NULL_TRACER

    # -- appending -----------------------------------------------------------

    def append(
        self,
        txn_id: int,
        procedure: str,
        params: tuple[Any, ...],
        partition: int,
        logical_time: int,
    ) -> LogRecord | None:
        if not self.enabled:
            return None
        record = LogRecord(
            lsn=self._next_lsn,
            txn_id=txn_id,
            procedure=procedure,
            params=tuple(params),
            partition=partition,
            logical_time=logical_time,
        )
        self._next_lsn += 1
        self._pending.append(record)
        self._stats.log_records += 1
        if len(self._pending) >= self.group_size:
            self.flush()
        return record

    def flush(self) -> int:
        """Force pending records to the durable log; returns count flushed.

        Fault seam ``log.flush``: a ``crash`` fires before anything reaches
        the durable log (group-commit-pending transactions are the only
        loss); a ``drop_ack`` fires after the write is durable but before
        the flush is acknowledged.
        """
        if not self._pending:
            return 0
        if self.tracer.enabled:
            with self.tracer.span(
                "log.flush", "group_commit", records=len(self._pending)
            ):
                return self._flush_pending()
        return self._flush_pending()

    def _flush_pending(self) -> int:
        if self.fault_injector is not None:
            self.fault_injector.fire("log.flush", stage="pre")
        # a write that fails loses the group, as a crash at that instant would
        flushed, self._pending = self._pending, []
        self._stats.log_flushes += 1
        if self.directory is None:
            self._records.extend(flushed)
        else:
            try:
                self.directory.append_log_records(flushed)
            except BaseException:
                # part of the group may have landed before the failure:
                # count what a restarted process would find, not a guess,
                # and number on from there so LSNs stay dense
                self._set_durable(self.directory.scan_log(repair=False)[0])
                self._next_lsn = self.durable_lsn
                raise
        self.durable_lsn = flushed[-1].lsn + 1
        if self.fault_injector is not None:
            self.fault_injector.fire("log.flush", stage="post")
        return len(flushed)

    # -- the durable store ---------------------------------------------------

    def attach(self, directory: "DurabilityDirectory") -> None:
        """Make ``directory``'s log file the only copy of the durable records
        (the caller wrote the in-memory history into it, or reloads from it)."""
        self.directory = directory
        self._records = []

    def reload(self, through_lsn: int, offset: int) -> tuple[list[LogRecord], int]:
        """What a restarted process finds past a checkpoint:
        ``(durable records from byte offset on, torn count)``.

        ``offset`` is a snapshot's ``log_offset``, where the record at its
        ``through_lsn`` starts; nothing before it is read, and the scan
        raises unless the LSNs from there on run ``through_lsn``,
        ``through_lsn + 1``, ...  Offset 0 reads the whole log from LSN 0
        (no snapshot, or memory mode).  Pending records are gone, a torn
        tail is repaired, and the counters and the next LSN restart from
        what the store actually holds.
        """
        self._pending = []
        first_lsn = through_lsn if offset else 0
        records, torn = self._scan(offset, first_lsn, repair=True)
        self._set_durable(records, first_lsn)
        self._next_lsn = self.durable_lsn
        return records, torn

    def _scan(
        self, offset: int = 0, first_lsn: int = 0, repair: bool = False
    ) -> tuple[list[LogRecord], int]:
        if self.directory is None:
            return self._records, 0
        return self.directory.scan_log(offset, first_lsn=first_lsn, repair=repair)

    def _set_durable(self, records: list[LogRecord], first_lsn: int = 0) -> None:
        """Durable through ``records``, which start at ``first_lsn``."""
        self.durable_lsn = records[-1].lsn + 1 if records else first_lsn

    # -- reading -------------------------------------------------------------

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    def records_from(self, lsn: int) -> list[LogRecord]:
        """All durable records with ``record.lsn >= lsn`` in order."""
        return [record for record in self._scan()[0] if record.lsn >= lsn]

    def all_records(self) -> list[LogRecord]:
        """Every durable record in LSN order (read from the file once attached)."""
        return list(self._scan()[0])

    def __len__(self) -> int:
        return self.durable_lsn

    # -- maintenance -----------------------------------------------------------

    def lose_pending(self) -> int:
        """Simulate a crash before group commit: un-flushed records are lost."""
        lost = len(self._pending)
        self._pending.clear()
        return lost
