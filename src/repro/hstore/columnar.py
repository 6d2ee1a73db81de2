"""Column vectors derived from the row store on demand.

The row store (``Table._rows``: rowid -> tuple) is the only store.  A batch
scan that wants a column gets ``[row[offset] for row in rows.values()]``,
transposed at C speed the first time the column is asked for and kept until
the table next changes — :class:`~repro.hstore.table.Table` drops the whole
cache wherever it mutates or rebinds its row dict.  Vectors are therefore in
``Table.storage()`` order by construction (what lets the executor pair a
selection mask with the row dict's values), only the columns a statement
references are ever built, and a vector is never mutated in place, so a scan
holding one mid-statement stays consistent.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

__all__ = ["ColumnCache"]


class ColumnCache:
    """The column vectors built so far over one unchanged row dict."""

    __slots__ = ("_rows", "_cols")

    def __init__(self, rows: dict[int, tuple[Any, ...]]) -> None:
        self._rows = rows
        self._cols: dict[int, list[Any]] = {}

    def size(self) -> int:
        return len(self._rows)

    def column(self, offset: int) -> list[Any]:
        col = self._cols.get(offset)
        if col is None:
            col = self._cols[offset] = list(
                map(itemgetter(offset), self._rows.values())
            )
        return col
