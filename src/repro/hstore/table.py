"""In-memory tables: the storage half of the execution engine.

A :class:`Table` stores typed tuples keyed by an internal, monotonically
increasing row id.  Row ids double as *insertion-order* markers, which the
streaming layer relies on: stream state is ordered by arrival, and windows
expire tuples in arrival order.

Constraint enforcement (primary key, unique secondary indexes) happens here,
*before* any mutation is applied, so a violating statement leaves no trace
even without consulting the undo log.

The row dict is insertion-ordered, and ordinary inserts allocate ascending
rowids — so dict order *is* rowid order except after a txn-undo
``insert_with_rowid`` re-adds a row below the high-water mark.  Scans track
that with ``_rows_sorted``: while the flag holds, ``scan``/``rowids``/
``rows`` stream the dict directly (no O(n log n) re-sort per scan); when an
undo breaks it, the next read rebuilds the dict sorted once and the flag
heals.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterator

from repro.errors import PrimaryKeyViolationError, StorageError, UniqueViolationError
from repro.hstore.catalog import Schema, TableEntry, TableKind
from repro.hstore.index import Key, make_index, _BaseIndex
from repro.hstore.types import make_row_codec

__all__ = ["Table", "Row", "row_getter"]

#: Stored rows are immutable tuples of column values.
Row = tuple[Any, ...]


def row_getter(offsets: tuple[int, ...]) -> Callable[[Row], tuple[Any, ...]]:
    """``row -> (row[o0], row[o1], ...)`` for fixed offsets — always a tuple.

    Built once where the offsets are decided (an index's key columns at DDL
    time, a projection or probe key at plan time), called per row.
    """
    if len(offsets) == 1:
        (offset,) = offsets
        return lambda row: (row[offset],)
    return itemgetter(*offsets)  # already a tuple for arity >= 2


class Table:
    """One in-memory table plus its indexes."""

    def __init__(self, entry: TableEntry) -> None:
        self.entry = entry
        self.name = entry.name
        self.schema: Schema = entry.schema
        self._rows: dict[int, Row] = {}
        self._next_rowid = 0
        self._rows_sorted = True
        self._tail_rowid = -1
        #: the row codec, fixed by the schema: ``values -> row``, coercing
        #: each value to its column's type (``types.make_row_codec``)
        self.validate_row = make_row_codec(
            self.name, [(column.sql_type, column.nullable) for column in self.schema]
        )
        self._indexes: dict[str, _BaseIndex] = {}
        #: ``(index, row -> key)`` per index, rebuilt when an index comes or goes
        self._keyed: list[tuple[_BaseIndex, Callable[[Row], Key]]] = []
        self._pk_index: _BaseIndex | None = None
        if entry.primary_key:
            offsets = tuple(self.schema.offset_of(col) for col in entry.primary_key)
            self._pk_index = make_index(f"{self.name}__pk", unique=True, ordered=False)
            self._register_index(self._pk_index, offsets)

    # -- introspection -------------------------------------------------

    @property
    def kind(self) -> TableKind:
        return self.entry.kind

    def __len__(self) -> int:
        return len(self._rows)

    def row_count(self) -> int:
        return len(self._rows)

    def _ensure_sorted(self) -> None:
        """Heal insertion order after a txn-undo re-insert (rare): the
        readers below test the flag inline and call this only when it is
        down."""
        if not self._rows_sorted:
            self._rows = dict(sorted(self._rows.items()))
            self._rows_sorted = True

    def rowids(self) -> list[int]:
        """All live row ids in insertion order."""
        if not self._rows_sorted:
            self._ensure_sorted()
        return list(self._rows)

    def first_rowid(self) -> int | None:
        """The lowest live row id (``None`` when the table is empty)."""
        if not self._rows_sorted:
            self._ensure_sorted()
        return next(iter(self._rows), None)

    def get(self, rowid: int) -> Row:
        try:
            return self._rows[rowid]
        except KeyError:
            raise StorageError(f"table {self.name!r} has no row {rowid}") from None

    def has_rowid(self, rowid: int) -> bool:
        return rowid in self._rows

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Yield ``(rowid, row)`` in insertion order."""
        if not self._rows_sorted:
            self._ensure_sorted()
        yield from self._rows.items()

    def storage(self) -> dict[int, Row]:
        """The live ``rowid -> row`` mapping itself, in rowid order.

        The compiled executor reads through this to skip the per-row
        method-call + exception machinery of :meth:`get` on scans it has
        already validated.  Callers must treat it as read-only.
        """
        if not self._rows_sorted:
            self._ensure_sorted()
        return self._rows

    def rows(self) -> list[Row]:
        """All rows in insertion order (convenience for tests/apps)."""
        if not self._rows_sorted:
            self._ensure_sorted()
        return list(self._rows.values())

    # -- index plumbing --------------------------------------------------

    def _register_index(self, index: _BaseIndex, offsets: tuple[int, ...]) -> None:
        key_of = row_getter(offsets)
        self._indexes[index.name] = index
        self._keyed.append((index, key_of))
        for rowid, row in self._rows.items():
            index.insert(key_of(row), rowid)

    def add_index(
        self,
        name: str,
        column_names: tuple[str, ...],
        *,
        unique: bool = False,
        ordered: bool = False,
    ) -> _BaseIndex:
        """Create (and backfill) a secondary index."""
        offsets = tuple(self.schema.offset_of(col) for col in column_names)
        index = make_index(name, unique=unique, ordered=ordered)
        self._register_index(index, offsets)
        return index

    def index(self, name: str) -> _BaseIndex:
        try:
            return self._indexes[name.lower()]
        except KeyError:
            raise StorageError(f"table {self.name!r} has no index {name!r}") from None

    def drop_index(self, name: str) -> None:
        """Remove a secondary index (the primary-key index cannot go)."""
        index = self.index(name)
        if index is self._pk_index:
            raise StorageError(f"cannot drop the primary-key index of {self.name!r}")
        del self._indexes[index.name]
        self._keyed = [pair for pair in self._keyed if pair[0] is not index]

    def indexes(self) -> dict[str, _BaseIndex]:
        return dict(self._indexes)

    # -- mutation ---------------------------------------------------------

    def _duplicate(self, index: _BaseIndex, key: Key) -> Exception:
        """The error for inserting ``key`` a second time into a unique index."""
        if index is self._pk_index:
            return PrimaryKeyViolationError(
                f"duplicate primary key {key!r} in table {self.name!r}"
            )
        return UniqueViolationError(
            f"duplicate key {key!r} in unique index {index.name!r}"
        )

    def _store(self, rowid: int, row: Row) -> None:
        """Append a validated, uniqueness-checked row (no index writes)."""
        self._rows[rowid] = row
        if rowid < self._tail_rowid:
            self._rows_sorted = False
        else:
            self._tail_rowid = rowid

    def insert(self, values: list[Any] | tuple[Any, ...]) -> int:
        """Validate and insert a row; returns the new rowid.

        Raises :class:`PrimaryKeyViolationError` /
        :class:`UniqueViolationError` without mutating anything.
        """
        row = self.validate_row(values)
        keyed = [(index, key_of(row)) for index, key_of in self._keyed]
        # Check all uniqueness constraints before touching any structure.
        for index, key in keyed:
            if index.would_violate(key):
                raise self._duplicate(index, key)
        rowid = self._next_rowid
        self._next_rowid += 1
        self._store(rowid, row)
        for index, key in keyed:
            index.insert(key, rowid)
        return rowid

    def insert_many(
        self, rows: list[list[Any] | tuple[Any, ...]]
    ) -> list[int]:
        """Bulk insert; returns the new rowids (see :meth:`store_many`)."""
        return self.store_many(rows)[0]

    def store_many(
        self, rows: list[list[Any] | tuple[Any, ...]]
    ) -> tuple[list[int], list[Row]]:
        """Bulk insert: one validation pass, one uniqueness pre-pass, one
        index batch; returns ``(rowids, the validated rows as stored)``.
        Atomic — a violation anywhere leaves the table untouched, raising
        the same error the single-row path would have raised for the first
        offending row.
        """
        if not rows:
            return [], []
        validated = [self.validate_row(values) for values in rows]
        # Uniqueness pre-pass: against the live indexes AND against keys
        # staged earlier in this same batch (NULL-containing keys are
        # never indexed, so they cannot collide).
        unique = [
            (index, key_of, set()) for index, key_of in self._keyed if index.unique
        ]
        for row in validated:
            for index, key_of, staged in unique:
                key = key_of(row)
                if None in key:
                    continue
                if key in staged or index.would_violate(key):
                    raise self._duplicate(index, key)
                staged.add(key)
        first = self._next_rowid
        self._next_rowid = first + len(validated)
        rowids = list(range(first, self._next_rowid))
        for rowid, row in zip(rowids, validated):
            self._store(rowid, row)
        for index, key_of in self._keyed:
            insert = index.insert
            for rowid, row in zip(rowids, validated):
                insert(key_of(row), rowid)
        return rowids, validated

    def insert_with_rowid(self, rowid: int, values: list[Any] | tuple[Any, ...]) -> None:
        """Re-insert a row under a specific rowid (undo of a delete)."""
        if rowid in self._rows:
            raise StorageError(f"rowid {rowid} already live in {self.name!r}")
        row = self.validate_row(values)
        self._store(rowid, row)
        self._next_rowid = max(self._next_rowid, rowid + 1)
        for index, key_of in self._keyed:
            index.insert(key_of(row), rowid)

    def delete(self, rowid: int) -> Row:
        """Delete a row by id; returns the deleted row (for undo logging)."""
        row = self.get(rowid)
        for index, key_of in self._keyed:
            index.remove(key_of(row), rowid)
        del self._rows[rowid]
        return row

    def update(self, rowid: int, new_values: list[Any] | tuple[Any, ...]) -> Row:
        """Replace a row in place; returns the before-image (for undo).

        Uniqueness is re-checked for any index whose key changes.
        """
        old_row = self.get(rowid)
        new_row = self.validate_row(new_values)
        # one walk: collect the keys that change (checking each against its
        # index), then move them — an index whose key stays is never touched
        moved: list[tuple[_BaseIndex, Key, Key]] = []
        for index, key_of in self._keyed:
            old_key = key_of(old_row)
            new_key = key_of(new_row)
            if old_key != new_key:
                if index.would_violate(new_key):
                    if index is self._pk_index:
                        raise self._duplicate(index, new_key)
                    raise UniqueViolationError(
                        f"unique index {index.name!r} violated by update "
                        f"to {new_key!r}"
                    )
                moved.append((index, old_key, new_key))
        for index, old_key, new_key in moved:
            index.remove(old_key, rowid)
            index.insert(new_key, rowid)
        self._rows[rowid] = new_row
        return old_row

    def truncate(self) -> int:
        """Remove every row; returns how many were removed."""
        count = len(self._rows)
        self._rows.clear()
        self._rows_sorted = True
        self._tail_rowid = -1
        for index in self._indexes.values():
            index.clear()
        return count

    # -- snapshot support ---------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        """Serializable physical state (rows only; indexes are rebuilt)."""
        return {
            "next_rowid": self._next_rowid,
            "rows": {rowid: list(row) for rowid, row in self._rows.items()},
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore from :meth:`dump_state` output, rebuilding indexes.

        Bulk path: rows land sorted by rowid in one pass and indexes are
        rebuilt index-major.
        """
        self._rows = dict(
            sorted((int(rowid), tuple(row)) for rowid, row in state["rows"].items())
        )
        self._next_rowid = int(state["next_rowid"])
        self._rows_sorted = True
        self._tail_rowid = next(reversed(self._rows), -1)
        for index, key_of in self._keyed:
            index.clear()
            for rowid, row in self._rows.items():
                index.insert(key_of(row), rowid)

    # -- iteration helpers for executor -------------------------------------

    def select_rowids(self, predicate: Callable[[Row], bool]) -> list[int]:
        """Row ids whose rows satisfy ``predicate`` (insertion order)."""
        return [rowid for rowid, row in self.scan() if predicate(row)]
