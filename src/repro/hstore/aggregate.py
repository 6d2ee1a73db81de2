"""COUNT / SUM / AVG / MIN / MAX, written in two forms and nowhere else.

* :class:`Accumulator` — the row form: fed one evaluation context at a time
  by the row closures (and by the test oracle).  It *is* the semantics:
  NULLs are skipped, DISTINCT keeps the first occurrence (``1``, ``1.0`` and
  ``True`` collapse), SUM/AVG fold left-to-right seeded with the first
  value, MIN/MAX compare strictly so the first of equals wins.
* :func:`fold` — the column form: one aggregate over a whole list of
  argument values with C-speed builtins.  The vector lane folds a column
  (or one group's bucket of it) and a delta view refolds a group's values
  whenever it cannot retract exactly.

The two must agree bit for bit, type for type, on every input;
``tests/hstore/test_aggregate.py`` pins them together.
"""

from __future__ import annotations

import sys
from functools import reduce
from operator import add
from typing import Any, Callable

from repro.errors import StorageError

__all__ = ["Accumulator", "fold"]

#: builtin sum is an uncompensated left fold before CPython 3.12 (Neumaier
#: summation landed in 3.12) — when so, it is the accumulator's fold on
#: float data too
_NAIVE_BUILTIN_SUM = sys.version_info < (3, 12)


class Accumulator:
    """Incremental state for one aggregate call over one group."""

    __slots__ = ("_name", "_arg", "_count", "_sum", "_min", "_max", "_seen")

    def __init__(
        self, name: str, arg: Callable[[Any], Any] | None, distinct: bool
    ) -> None:
        self._name = name
        #: context -> argument value; None for COUNT(*)
        self._arg = arg
        self._count = 0
        self._sum: Any = None
        self._min: Any = None
        self._max: Any = None
        self._seen: set[Any] | None = set() if distinct else None

    def feed(self, ctx: Any) -> None:
        if self._arg is None:  # COUNT(*)
            self._count += 1
            return
        value = self._arg(ctx)
        if value is None:
            return  # SQL aggregates ignore NULLs
        if self._seen is not None:
            if value in self._seen:
                return
            self._seen.add(value)
        self._count += 1
        self._sum = value if self._sum is None else self._sum + value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def result(self) -> Any:
        name = self._name
        if name == "count":
            return self._count
        if name == "sum":
            return self._sum
        if name == "avg":
            if self._count == 0:
                return None
            return self._sum / self._count
        if name == "min":
            return self._min
        if name == "max":
            return self._max
        raise StorageError(f"unknown aggregate {name!r}")  # pragma: no cover


def _exact_sum(vals: list[Any]) -> Any:
    """The accumulator's first-value-seeded left fold of a non-empty list.

    ``reduce(add, vals)`` is that fold by definition.  Builtin ``sum``
    seeded with the first value is the same fold, faster, whenever it runs
    at all (it refuses a ``str`` seed, which ``+`` concatenates) and its
    total is not a compensated float: from CPython 3.12 on a float total
    was Neumaier-summed, which is *better* than the row path's naive fold
    and therefore wrong here.
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

    Returns NULL for SUM/AVG/MIN/MAX of no values, exactly as an
    :class:`Accumulator` that was never fed.
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
