"""COUNT / SUM / AVG / MIN / MAX, written once: :func:`fold`.

One aggregate over a whole list of argument values, with C-speed builtins.
It *is* the semantics: NULLs are skipped, DISTINCT keeps the first
occurrence (``1``, ``1.0`` and ``True`` collapse), SUM/AVG fold
left-to-right seeded with the first value, MIN/MAX keep the first of equals.
The executor's grouped driver folds each group's bucket of an argument
column — filled by the column vectors or by the row closures — and a delta
view refolds a group's values whenever it cannot retract exactly.

``tests/hstore/test_aggregate.py`` checks it bit for bit, type for type,
against the row-at-a-time reference the test oracle aggregates with.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import add
from typing import Any

from repro.errors import StorageError

__all__ = ["fold"]

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
