"""Transaction-consistent snapshots.

H-Store pairs command logging with periodic snapshots so recovery replays a
bounded log suffix.  Because transactions execute serially per partition, a
snapshot taken between transactions is trivially transaction-consistent.

A snapshot is every partition's table state (rows only — indexes are rebuilt
on load) plus any extra state the streaming layer registers (stream cursors,
window metadata).  A file checkpoint also records ``log_offset``, the byte
in ``command.log`` where its replay suffix begins, so recovery seeks past
the checkpointed prefix instead of parsing it.  Where checkpoints live — the
single newest one in memory, or one file each once a directory is attached
— is tabulated in docs/INTERNALS.md §5 ("Where history lives").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hstore.durability import DurabilityDirectory

__all__ = ["Snapshot", "SnapshotStore"]


@dataclass(frozen=True)
class Snapshot:
    """One transaction-consistent checkpoint."""

    snapshot_id: int
    #: log position the snapshot covers: replay starts at this LSN
    through_lsn: int
    logical_time: int
    #: partition id → ExecutionEngine.dump_state() payload
    partition_state: dict[int, dict[str, Any]]
    #: opaque extra state (the streaming layer stores cursors/windows here)
    extra: dict[str, Any] = field(default_factory=dict)
    #: byte offset in ``command.log`` where the record at ``through_lsn``
    #: starts (the file's length when the checkpoint was written), so
    #: recovery reads only the suffix; 0 = read the whole log (memory mode,
    #: or a file written before snapshots recorded it)
    log_offset: int = 0


class SnapshotStore:
    """Takes checkpoints and hands recovery the newest valid one."""

    def __init__(self) -> None:
        #: memory mode's simulated checkpoint file (only the newest matters)
        self.latest: Snapshot | None = None
        #: once attached, every checkpoint is a file there and none is kept here
        self.directory: "DurabilityDirectory | None" = None
        self._next_id = 0

    def attach(self, directory: "DurabilityDirectory") -> None:
        self.directory = directory
        self.latest = None

    def take(
        self,
        through_lsn: int,
        logical_time: int,
        partition_state: dict[int, dict[str, Any]],
        extra: dict[str, Any] | None = None,
    ) -> Snapshot:
        """Checkpoint freshly dumped state (the store keeps it uncopied)."""
        snapshot = Snapshot(
            snapshot_id=self._next_id,
            through_lsn=through_lsn,
            logical_time=logical_time,
            partition_state=partition_state,
            extra=extra or {},
            # take_snapshot flushed the group: the file ends where the
            # record at through_lsn will start
            log_offset=0 if self.directory is None else self.directory.log_size(),
        )
        self._next_id += 1
        if self.directory is not None:
            self.directory.write_snapshot(snapshot)
        else:
            self.latest = snapshot
        return snapshot

    def newest(self) -> tuple[Snapshot | None, int]:
        """``(newest valid checkpoint, damaged newer ones skipped over)``."""
        if self.directory is None:
            return self.latest, 0
        snapshot, skipped = self.directory.scan_snapshots()
        if snapshot is not None:
            self._next_id = max(self._next_id, snapshot.snapshot_id + 1)
        return snapshot, len(skipped)
