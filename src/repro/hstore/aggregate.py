"""COUNT / SUM / AVG / MIN / MAX, written once: :func:`fold`.

One aggregate over a whole list of argument values, with C-speed builtins.
It *is* the semantics: NULLs are skipped, DISTINCT keeps the first
occurrence (``1``, ``1.0`` and ``True`` collapse), SUM/AVG fold
left-to-right seeded with the first value, MIN/MAX keep the first of equals.
:func:`fold_groups`, the grouped driver a statement kernel calls, folds each
group's bucket of an argument column, and a delta view refolds a group's
values whenever it cannot retract exactly.

``tests/hstore/test_aggregate.py`` checks it bit for bit, type for type,
against the row-at-a-time reference the test oracle aggregates with.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import reduce
from operator import add
from typing import Any

from repro.errors import StorageError

__all__ = ["fold", "fold_groups"]

#: builtin sum is an uncompensated left fold before CPython 3.12 (Neumaier
#: summation landed in 3.12) — when so, it is the left fold on float data too
_NAIVE_BUILTIN_SUM = sys.version_info < (3, 12)


def _exact_sum(vals: list[Any]) -> Any:
    """The first-value-seeded left fold of a non-empty list.

    ``reduce(add, vals)`` is that fold by definition.  Builtin ``sum``
    seeded with the first value is the same fold, faster, whenever it runs
    at all (it refuses a ``str`` seed, which ``+`` concatenates) and its
    total is not a compensated float: from CPython 3.12 on a float total
    was Neumaier-summed, which is *better* than the naive left fold and
    therefore wrong here.
    """
    rest = iter(vals)
    try:
        total = sum(rest, next(rest))
    except TypeError:
        pass  # a str seed, or operands ``+`` itself rejects: let it say so
    else:
        if _NAIVE_BUILTIN_SUM or type(total) is not float:
            return total
    return reduce(add, vals)


def fold(name: str, vals: list[Any], distinct: bool) -> Any:
    """One aggregate over a list of argument values (NULLs skipped).

    Returns NULL for SUM/AVG/MIN/MAX of no values and 0 for COUNT.
    """
    if None in vals:
        vals = [x for x in vals if x is not None]
    if distinct:
        vals = list(dict.fromkeys(vals))
    if name == "count":
        return len(vals)
    if not vals:
        return None
    if name == "sum":
        return _exact_sum(vals)
    if name == "avg":
        return _exact_sum(vals) / len(vals)
    if name == "min":
        return min(vals)
    if name == "max":
        return max(vals)
    raise StorageError(f"unknown aggregate {name!r}")  # pragma: no cover


def fold_groups(
    specs: tuple[tuple[str, bool], ...],
    columns: tuple[Any, ...],
    key_columns: tuple[list[Any], ...] | None,
    nrows: int,
) -> list[tuple[Any, ...]]:
    """Bucket each argument column by its row's group key, then :func:`fold`
    each bucket.

    ``specs`` holds ``(name, distinct)`` per aggregate and ``columns`` one
    argument column each (``None`` for COUNT(*)); ``key_columns`` holds one
    column per GROUP BY key, or is ``None`` for a global aggregate — one
    output row, even over no rows.  Groups come out in first-appearance
    order, each as ``key + aggregate values``.
    """
    if key_columns is None:
        return [
            tuple(
                nrows if column is None else fold(name, column, distinct)
                for (name, distinct), column in zip(specs, columns)
            )
        ]
    # one key: the values themselves key the groups, no tuple per row
    keys = key_columns[0] if len(key_columns) == 1 else list(zip(*key_columns))
    # a Counter keeps first-appearance order and counts each group's rows;
    # the per-row group index is then one C-dispatched dict lookup per row
    counts = Counter(keys)
    order = list(counts)
    gidx = None
    results = []
    for (name, distinct), column in zip(specs, columns):
        if column is None:
            results.append(list(map(counts.__getitem__, order)))
            continue
        if gidx is None:
            slots = dict(zip(order, range(len(order))))
            gidx = list(map(slots.__getitem__, keys))
        buckets: list[list[Any]] = [[] for _key in order]
        appends = [bucket.append for bucket in buckets]
        for slot, value in zip(gidx, column):
            appends[slot](value)
        results.append([fold(name, bucket, distinct) for bucket in buckets])
    if len(key_columns) == 1:
        order = [(key,) for key in order]
    if not results:
        return order
    return [key + values for key, values in zip(order, zip(*results))]
