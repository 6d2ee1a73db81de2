"""Transaction contexts and undo logging.

H-Store runs transactions serially per partition, so no locks or latches are
needed; atomicity comes from an in-memory undo log.  Every mutation the EE
applies is recorded here as a logical undo entry; abort walks the entries in
reverse and restores the before-images.  State that lives outside tables
(window bookkeeping, delta views) joins the same log as a compensation
entry — a callable that restores it — so ``abort`` is the engine's only
rollback mechanism.

A :class:`TransactionContext` is bound to one partition's execution engine —
the single-sited case the paper demonstrates.  Multi-partition transactions
are built from one context per touched partition (see
:mod:`repro.hstore.engine`), which stays atomic because the engine holds all
partitions for the duration.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import NoActiveTransactionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hstore.executor import ExecutionEngine

__all__ = ["TxnState", "TransactionContext"]

#: undo-entry tags — entries are plain tuples: ``(_INSERT, table, rowid)``,
#: ``(_DELETE | _UPDATE, table, rowid, before)``, ``(_COMPENSATE, callable)``
_INSERT, _DELETE, _UPDATE, _COMPENSATE = range(4)


class TxnState(enum.Enum):
    ACTIVE = "ACTIVE"
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


class TransactionContext:
    """State of one in-flight transaction on one partition."""

    __slots__ = (
        "txn_id", "ee", "procedure_name", "state", "undo_log", "notes", "partition_id"
    )

    def __init__(
        self,
        txn_id: int,
        ee: "ExecutionEngine",
        procedure_name: str = "",
        partition_id: int = 0,
    ) -> None:
        self.txn_id = txn_id
        self.ee = ee
        self.procedure_name = procedure_name
        self.state = TxnState.ACTIVE
        self.undo_log: list[tuple] = []
        #: arbitrary per-transaction scratch used by the streaming layer
        self.notes: dict[str, Any] = {}
        self.partition_id = partition_id

    # -- undo recording -----------------------------------------------------

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise NoActiveTransactionError(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    def record_insert(self, table: str, rowid: int) -> None:
        self._require_active()
        self.undo_log.append((_INSERT, table, rowid))

    def record_delete(
        self, table: str, rowid: int, before: tuple[Any, ...]
    ) -> None:
        self._require_active()
        self.undo_log.append((_DELETE, table, rowid, before))

    def record_update(
        self, table: str, rowid: int, before: tuple[Any, ...]
    ) -> None:
        self._require_active()
        self.undo_log.append((_UPDATE, table, rowid, before))

    def record_compensation(self, compensate: Callable[[], None]) -> None:
        """Register the inverse of a change to state that is not table rows.

        Entries run in reverse order, so one registered *before* the
        owner's first row mutation runs *after* those rows are restored —
        what a window needs to rebuild its views from the backing table.
        """
        self._require_active()
        self.undo_log.append((_COMPENSATE, compensate))

    # -- lifecycle ---------------------------------------------------------

    def commit(self) -> None:
        self._require_active()
        self.state = TxnState.COMMITTED
        self.undo_log.clear()

    def abort(self) -> None:
        """Undo every recorded mutation (reverse order) and mark aborted."""
        self._require_active()
        table_of = self.ee.table
        for entry in reversed(self.undo_log):
            kind = entry[0]
            if kind == _COMPENSATE:
                entry[1]()
            elif kind == _INSERT:
                table_of(entry[1]).delete(entry[2])
            elif kind == _DELETE:
                table_of(entry[1]).insert_with_rowid(entry[2], entry[3])
            else:
                table_of(entry[1]).update(entry[2], entry[3])
        self.undo_log.clear()
        self.state = TxnState.ABORTED

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE
