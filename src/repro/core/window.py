"""Windows: finite chunks of state over (possibly unbounded) streams.

The paper adds *windows* "to define finite chunks of state over (possibly
unbounded) streams" and maintains them natively inside the execution engine:
when new tuples land in a stream, an internal EE trigger moves them into the
window's backing table and expires old tuples — all within the inserting
transaction, with **zero** extra PE↔EE round trips.  (The H-Store baseline
must issue explicit INSERT/DELETE/COUNT statements for the same effect; the
difference is benchmark E5.)

Two window kinds are supported, both with a ``slide``:

``ROWS size SLIDE slide`` (tuple-based)
    After the ``k * slide``-th arrival, the window holds the most recent
    ``size`` tuples.  ``slide == size`` is a tumbling window, ``slide == 1``
    a fully sliding one.  Between slide boundaries the window's visible
    contents do not change (classic slide semantics).

``RANGE size SLIDE slide`` (time-based)
    The window holds tuples whose timestamp column lies in
    ``(boundary - size, boundary]`` where ``boundary`` is the latest
    multiple of ``slide`` not after the engine's logical clock.  The
    timestamp column is the first TIMESTAMP-typed column of the stream.

Window state *carries over* between transaction executions of the owning
procedure — that is the whole reason the paper introduces transaction-
execution scoping (see :mod:`repro.core.scope`).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any

from repro.errors import WindowError
from repro.hstore.stats import EngineStats
from repro.hstore.types import SqlType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hstore.executor import ExecutionEngine
    from repro.hstore.txn import TransactionContext

__all__ = ["WindowKind", "WindowSpec", "WindowState"]


class WindowKind(enum.Enum):
    TUPLE = "ROWS"
    TIME = "RANGE"


@dataclass(frozen=True)
class WindowSpec:
    """Validated window definition."""

    name: str
    stream: str
    kind: WindowKind
    size: int
    slide: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise WindowError(f"window {self.name!r}: size must be >= 1")
        if self.slide < 1:
            raise WindowError(f"window {self.name!r}: slide must be >= 1")
        if self.kind is WindowKind.TUPLE and self.slide > self.size:
            raise WindowError(
                f"window {self.name!r}: slide {self.slide} > size {self.size} "
                f"would drop tuples silently; use a smaller slide"
            )


class WindowState:
    """Runtime state of one window, maintained natively by the EE.

    The visible contents live in the window's backing table (queryable with
    plain SQL by the owning procedure); this object holds the incremental
    bookkeeping that decides what enters and leaves at each slide.
    """

    def __init__(
        self,
        spec: WindowSpec,
        ee: "ExecutionEngine",
        stats: EngineStats,
        timestamp_offset: int | None = None,
    ) -> None:
        self.spec = spec
        self._ee = ee
        self._stats = stats
        self._timestamp_offset = timestamp_offset
        if spec.kind is WindowKind.TIME and timestamp_offset is None:
            raise WindowError(
                f"time-based window {spec.name!r} requires the stream to have "
                f"a TIMESTAMP column"
            )
        #: arrivals since the stream began (tuple windows)
        self._arrivals = 0
        #: tuples awaiting the next slide boundary, oldest first
        self._staging: deque[tuple[Any, ...]] = deque()
        #: rowids currently in the backing table, oldest first
        self._live_rowids: deque[int] = deque()
        #: last boundary applied (time windows)
        self._last_boundary = -1
        #: attached delta views (repro.ivm.DeltaView); admits/expires are
        #: folded into each as (rowid, row, ±1) inside the maintaining txn
        self.views: list[Any] = []
        #: the transaction whose undo log already holds this window's inverse
        self._undo_txn: "TransactionContext | None" = None

    # ------------------------------------------------------------------
    # Rollback: the window's own entry in the transaction's undo log
    # ------------------------------------------------------------------

    def _touch(self, txn: "TransactionContext") -> None:
        """Register this window's inverse the first time ``txn`` changes it.

        Must run before the window's first row mutation in ``txn``: undo
        entries run in reverse, so the inverse then finds the backing table
        already rolled back.  Nothing is copied: the staging deque is kept
        by reference (a transaction only appends to the deque it found — the
        slide paths *replace* it instead of clearing it), and the live
        rowids are re-read from the table if the transaction aborts.
        """
        if self._undo_txn is not txn:
            self._undo_txn = txn
            txn.record_compensation(
                partial(
                    self._rollback,
                    self._arrivals,
                    self._last_boundary,
                    self._staging,
                    len(self._staging),
                )
            )

    def _rollback(
        self,
        arrivals: int,
        last_boundary: int,
        staging: deque[tuple[Any, ...]],
        staged: int,
    ) -> None:
        self._arrivals = arrivals
        self._last_boundary = last_boundary
        while len(staging) > staged:
            staging.pop()
        self._staging = staging
        # the live rowids are exactly the backing table's, oldest first
        self._live_rowids = deque(self._ee.table(self.spec.name).rowids())
        self._rebuild_views()

    def _rebuild_views(self) -> None:
        """Re-derive attached views once the backing table is true again
        (rolled back by abort, restored by recovery).

        Inverse deltas would not do: re-admitting an expired rowid would
        move its group to the end of the view's first-appearance order.
        """
        if self.views:
            table = self._ee.table(self.spec.name)
            for view in self.views:
                view.rebuild(table)

    # ------------------------------------------------------------------
    # EE-trigger entry points (called inside the inserting transaction)
    # ------------------------------------------------------------------

    def on_stream_insert(
        self,
        txn: "TransactionContext",
        rows: list[tuple[Any, ...]],
        now: int,
    ) -> None:
        """New tuples arrived on the source stream: stage and maybe slide."""
        self._touch(txn)
        if self.spec.kind is WindowKind.TUPLE:
            self._on_tuples(txn, rows)
        else:
            self._staging.extend(rows)
            self.advance_time(txn, now)

    def advance_time(self, txn: "TransactionContext", now: int) -> None:
        """Apply time-window maintenance at logical time ``now``.

        Two distinct events are handled:

        * a *slide*: the boundary moved to a later multiple of ``slide``,
          so tuples older than ``boundary - size`` expire;
        * *late admission*: tuples staged for the current extent (arrived
          after the boundary was already current) enter without a slide.
        """
        if self.spec.kind is not WindowKind.TIME:
            return
        boundary = (now // self.spec.slide) * self.spec.slide
        slid = boundary > self._last_boundary
        # a tick inside the current extent of a quiet stream changes nothing
        # (and must not cost an undo entry per window)
        if boundary < self._last_boundary or not (slid or self._staging):
            return
        self._touch(txn)
        self._last_boundary = boundary
        low = boundary - self.spec.size
        assert self._timestamp_offset is not None

        # admit staged tuples inside the current window extent; tuples with
        # a future timestamp stay staged, tuples older than the extent drop.
        # Empty staging skips the whole admission pass — ticks on a quiet
        # stream must not pay a per-window list scan and deque rebuild.
        # (The deque is replaced, never filtered in place: see _touch.)
        if self._staging:
            ts = self._timestamp_offset
            admit = [
                row for row in self._staging if low < row[ts] <= boundary
            ]
            keep = [row for row in self._staging if row[ts] > boundary]
            if len(keep) != len(self._staging):
                self._staging = deque(keep)
        else:
            admit = []
        if admit:
            rowids = self._ee.insert_rows(txn, self.spec.name, admit)
            self._live_rowids.extend(rowids)
            for view in self.views:
                view.apply(rowids, admit, 1)

        if not slid and not admit:
            return
        self._stats.ee_trigger_firings += 1
        if slid:
            self._stats.window_slides += 1
            # expire tuples that fell off the back of the extent
            table = self._ee.table(self.spec.name)
            expired: list[int] = []
            expired_rows: list[tuple[Any, ...]] = []
            while self._live_rowids:
                rowid = self._live_rowids[0]
                row = table.get(rowid)
                if row[self._timestamp_offset] <= low:
                    expired.append(self._live_rowids.popleft())
                    expired_rows.append(row)
                else:
                    break
            if expired:
                self._ee.delete_rows(txn, self.spec.name, expired)
                self._stats.window_expired_rows += len(expired)
                for view in self.views:
                    view.apply(expired, expired_rows, -1)

    def _on_tuples(
        self, txn: "TransactionContext", rows: list[tuple[Any, ...]]
    ) -> None:
        for row in rows:
            self._staging.append(row)
            self._arrivals += 1
            if self._arrivals % self.spec.slide == 0:
                self._slide_tuple_window(txn)

    def _slide_tuple_window(self, txn: "TransactionContext") -> None:
        """Admit staged tuples, then trim to the newest ``size`` tuples."""
        self._stats.ee_trigger_firings += 1
        self._stats.window_slides += 1
        if self._staging:
            staged = list(self._staging)
            rowids = self._ee.insert_rows(txn, self.spec.name, staged)
            self._live_rowids.extend(rowids)
            self._staging = deque()  # replaced, not cleared: see _touch
            for view in self.views:
                view.apply(rowids, staged, 1)
        overflow = len(self._live_rowids) - self.spec.size
        if overflow > 0:
            expired = [self._live_rowids.popleft() for _ in range(overflow)]
            if self.views:
                # fetch the doomed rows before the delete: -1 deltas carry
                # the row values so views can unfeed the right group
                table = self._ee.table(self.spec.name)
                expired_rows = [table.get(rowid) for rowid in expired]
            self._ee.delete_rows(txn, self.spec.name, expired)
            self._stats.window_expired_rows += len(expired)
            if self.views:
                for view in self.views:
                    view.apply(expired, expired_rows, -1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def live_count(self) -> int:
        return len(self._live_rowids)

    @property
    def staged_count(self) -> int:
        return len(self._staging)

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        return {
            "arrivals": self._arrivals,
            "staging": [list(row) for row in self._staging],
            "live_rowids": list(self._live_rowids),
            "last_boundary": self._last_boundary,
        }

    def load_state(self, state: dict[str, Any]) -> None:
        self._arrivals = int(state.get("arrivals", 0))
        self._staging = deque(tuple(row) for row in state.get("staging", []))
        self._live_rowids = deque(int(r) for r in state.get("live_rowids", []))
        self._last_boundary = int(state.get("last_boundary", -1))
        # recovery restored the backing table before this call
        self._rebuild_views()

    def reset(self) -> None:
        self.load_state({})


def timestamp_offset_of(schema_columns: list[tuple[str, SqlType]]) -> int | None:
    """Offset of the first TIMESTAMP column (None if the schema has none)."""
    for offset, (_name, sql_type) in enumerate(schema_columns):
        if sql_type is SqlType.TIMESTAMP:
            return offset
    return None
