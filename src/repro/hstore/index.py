"""In-memory indexes for the execution engine.

Two physical index structures are provided, matching the two H-Store index
flavours the planner can exploit:

* :class:`HashIndex` — O(1) point lookups on equality predicates.
* :class:`OrderedIndex` — a sorted structure supporting range scans
  (``BETWEEN``, ``<``, ``>=`` ...), implemented over ``bisect`` on a sorted
  key list.

Both map a key (tuple of column values) to the set of row ids holding it, and
both can enforce uniqueness.  NULL-containing keys are not indexed (SQL
semantics: NULL never equals anything, so it can never be found by an
equality probe and never conflicts with a unique constraint).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from repro.errors import StorageError, UniqueViolationError

__all__ = ["Key", "HashIndex", "OrderedIndex", "make_index"]

#: An index key is the tuple of indexed column values for one row.
Key = tuple[Any, ...]


class _BaseIndex:
    """Shared bookkeeping for both index flavours."""

    def __init__(self, name: str, unique: bool) -> None:
        self.name = name
        self.unique = unique
        self._entries: dict[Key, set[int]] = {}

    def __len__(self) -> int:
        return sum(len(rowids) for rowids in self._entries.values())

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def insert(self, key: Key, rowid: int) -> None:
        """Register ``rowid`` under ``key``; enforces uniqueness."""
        if None in key:
            return
        rowids = self._entries.get(key)
        if rowids is None:
            self._entries[key] = {rowid}
            self._key_added(key)
            return
        if self.unique:
            raise UniqueViolationError(
                f"duplicate key {key!r} in unique index {self.name!r}"
            )
        rowids.add(rowid)

    def remove(self, key: Key, rowid: int) -> None:
        """Remove the ``(key, rowid)`` entry; raises if it is not present."""
        if None in key:
            return
        rowids = self._entries.get(key)
        if rowids is None or rowid not in rowids:
            raise StorageError(
                f"index {self.name!r} has no entry ({key!r}, rowid={rowid})"
            )
        rowids.discard(rowid)
        if not rowids:
            del self._entries[key]
            self._key_removed(key)

    def lookup(self, key: Key) -> frozenset[int]:
        """Row ids holding exactly ``key`` (empty for NULL-containing keys)."""
        if None in key:
            return frozenset()
        return frozenset(self._entries.get(key, ()))

    def entries(self) -> dict[Key, set[int]]:
        """The live ``key -> rowids`` mapping itself.

        The compiled executor probes through this to skip the per-lookup
        frozenset copy on hot join/point-lookup paths (callers must treat
        it as read-only, and must handle NULL-containing keys themselves —
        such keys are never stored).
        """
        return self._entries

    def would_violate(self, key: Key) -> bool:
        """Whether inserting ``key`` would break a unique constraint."""
        return self.unique and None not in key and key in self._entries

    def keys(self) -> Iterator[Key]:
        return iter(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    # hooks for the ordered subclass -----------------------------------

    def _key_added(self, key: Key) -> None:
        pass

    def _key_removed(self, key: Key) -> None:
        pass


class HashIndex(_BaseIndex):
    """Equality-only index (dict-backed)."""

    ordered = False


class OrderedIndex(_BaseIndex):
    """Index that additionally supports range scans in key order."""

    ordered = True

    def __init__(self, name: str, unique: bool) -> None:
        super().__init__(name, unique)
        self._sorted_keys: list[Key] = []

    def _key_added(self, key: Key) -> None:
        bisect.insort(self._sorted_keys, key)

    def _key_removed(self, key: Key) -> None:
        pos = bisect.bisect_left(self._sorted_keys, key)
        if pos < len(self._sorted_keys) and self._sorted_keys[pos] == key:
            del self._sorted_keys[pos]

    def clear(self) -> None:
        super().clear()
        self._sorted_keys.clear()

    def range_scan(
        self,
        low: Key | None = None,
        high: Key | None = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[tuple[Key, frozenset[int]]]:
        """Yield ``(key, rowids)`` for keys in ``[low, high]`` in key order.

        ``None`` bounds are open on that side.  Exclusivity is controlled per
        bound, so all four of ``<, <=, >, >=`` map onto one scan.
        """
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect.bisect_left(self._sorted_keys, low)
        else:
            start = bisect.bisect_right(self._sorted_keys, low)

        if high is None:
            stop = len(self._sorted_keys)
        elif high_inclusive:
            stop = bisect.bisect_right(self._sorted_keys, high)
        else:
            stop = bisect.bisect_left(self._sorted_keys, high)

        for pos in range(start, stop):
            key = self._sorted_keys[pos]
            yield key, frozenset(self._entries[key])


def make_index(name: str, *, unique: bool, ordered: bool) -> _BaseIndex:
    """Factory used by the table layer and DDL execution."""
    if ordered:
        return OrderedIndex(name, unique)
    return HashIndex(name, unique)
