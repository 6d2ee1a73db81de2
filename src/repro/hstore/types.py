"""SQL type system for the H-Store substrate.

H-Store stores typed tuples in main-memory tables.  This module defines the
supported SQL types, value validation/coercion, and NULL handling rules used
throughout the engine (storage, expressions, and the parser's literal
handling).

The type set intentionally matches what the S-Store demo applications need:
integers (vote counts, station ids), floats (GPS coordinates, speeds),
strings (phone numbers, contestant names), booleans and timestamps (logical
clock ticks).
"""

from __future__ import annotations

import enum
import math
from typing import Any, Callable

from repro.errors import NullViolationError, TypeSystemError

__all__ = [
    "SqlType",
    "coerce_value",
    "make_coercer",
    "is_comparable",
    "type_of_literal",
]


class SqlType(enum.Enum):
    """Supported SQL column types."""

    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    FLOAT = "FLOAT"
    VARCHAR = "VARCHAR"
    BOOLEAN = "BOOLEAN"
    TIMESTAMP = "TIMESTAMP"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Types whose Python representation is ``int``.
_INTEGRAL = {SqlType.INTEGER, SqlType.BIGINT, SqlType.TIMESTAMP}

#: Types that order/compare with one another (numeric family).
_NUMERIC = {SqlType.INTEGER, SqlType.BIGINT, SqlType.FLOAT, SqlType.TIMESTAMP}


def coerce_value(value: Any, sql_type: SqlType, *, nullable: bool = True) -> Any:
    """Validate and coerce ``value`` to the Python representation of ``sql_type``.

    Returns the coerced value.  ``None`` is the SQL NULL and passes through
    when ``nullable`` is true; otherwise :class:`NullViolationError` is
    raised.  Lossless coercions are performed (``int`` → ``float`` for FLOAT
    columns, ``float``-with-integral-value → ``int`` for INTEGER columns);
    anything lossy or mistyped raises :class:`TypeSystemError`.
    """
    if value is None:
        if not nullable:
            raise NullViolationError(f"NULL not allowed for {sql_type} column")
        return None

    if sql_type in _INTEGRAL:
        return _coerce_integral(value, sql_type)
    if sql_type is SqlType.FLOAT:
        return _coerce_float(value)
    if sql_type is SqlType.VARCHAR:
        if isinstance(value, str):
            return value
        raise TypeSystemError(f"expected string for VARCHAR, got {type(value).__name__}")
    if sql_type is SqlType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise TypeSystemError(f"expected boolean, got {value!r}")
    raise TypeSystemError(f"unsupported SQL type {sql_type!r}")  # pragma: no cover


def _coerce_integral(value: Any, sql_type: SqlType) -> int:
    if isinstance(value, bool):
        raise TypeSystemError(f"expected {sql_type}, got boolean {value!r}")
    if isinstance(value, int):
        result = value
    elif isinstance(value, float):
        if not value.is_integer():
            raise TypeSystemError(f"cannot losslessly store {value!r} in {sql_type}")
        result = int(value)
    else:
        raise TypeSystemError(f"expected {sql_type}, got {type(value).__name__}")

    if sql_type is SqlType.INTEGER and not _INT32_MIN <= result <= _INT32_MAX:
        raise TypeSystemError(f"INTEGER out of range: {result}")
    if sql_type in (SqlType.BIGINT, SqlType.TIMESTAMP) and not _INT64_MIN <= result <= _INT64_MAX:
        raise TypeSystemError(f"{sql_type} out of range: {result}")
    return result


def _coerce_float(value: Any) -> float:
    if isinstance(value, bool):
        raise TypeSystemError(f"expected FLOAT, got boolean {value!r}")
    if isinstance(value, (int, float)):
        result = float(value)
        if math.isnan(result):
            raise TypeSystemError("NaN is not a valid FLOAT value")
        return result
    raise TypeSystemError(f"expected FLOAT, got {type(value).__name__}")


def make_coercer(sql_type: SqlType, *, nullable: bool = True) -> Callable[[Any], Any]:
    """:func:`coerce_value` for one column, with the type decided once.

    A table builds one per column at DDL time.  The closure passes only a
    value that already has the column's exact Python representation (``int``
    in range, ``str``, non-NaN ``float``, ``bool``) and hands everything else
    — NULL, ``bool`` for a number, ``int`` for FLOAT, an integral ``float``
    for INTEGER, NaN, out of range — to :func:`coerce_value`, so every
    coercion and every error message has one definition.
    """

    def slow(value: Any) -> Any:
        return coerce_value(value, sql_type, nullable=nullable)

    if sql_type in _INTEGRAL:
        low, high = (
            (_INT32_MIN, _INT32_MAX)
            if sql_type is SqlType.INTEGER
            else (_INT64_MIN, _INT64_MAX)
        )
        return lambda value: (
            value if type(value) is int and low <= value <= high else slow(value)
        )
    if sql_type is SqlType.FLOAT:
        # value == value is False exactly for NaN
        return lambda value: (
            value if type(value) is float and value == value else slow(value)
        )
    exact = {SqlType.VARCHAR: str, SqlType.BOOLEAN: bool}.get(sql_type)
    if exact is None:
        return slow
    return lambda value: value if type(value) is exact else slow(value)


def is_comparable(left: SqlType, right: SqlType) -> bool:
    """Whether values of the two types may be compared with <, =, etc."""
    if left == right:
        return True
    return left in _NUMERIC and right in _NUMERIC


def type_of_literal(value: Any) -> SqlType:
    """Infer the SQL type of a Python literal (used by the parser/planner)."""
    if isinstance(value, bool):
        return SqlType.BOOLEAN
    if isinstance(value, int):
        return SqlType.INTEGER if _INT32_MIN <= value <= _INT32_MAX else SqlType.BIGINT
    if isinstance(value, float):
        return SqlType.FLOAT
    if isinstance(value, str):
        return SqlType.VARCHAR
    raise TypeSystemError(f"no SQL type for Python value {value!r}")
