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
import functools
import math
import os
import sys
from typing import Any, Callable, Sequence

from repro.errors import NullViolationError, StorageError, TypeSystemError

__all__ = [
    "SqlType",
    "coerce_value",
    "make_row_codec",
    "compile_source",
    "is_comparable",
    "type_of_literal",
]

#: generated code — statement kernels, row codecs — is compiled under this
#: name inside the package, so tracebacks and profilers (``hotpath.py
#: --count``) attribute its frames to ``repro.hstore``; no such file exists
KERNEL_FILE = os.path.join(os.path.dirname(__file__), "kernel.py")


@functools.lru_cache(maxsize=1024)
def _code(text: str) -> Any:
    # statements of one shape generate one text (values are namespace
    # names, not source), so a process compiles each text once
    return compile(text, KERNEL_FILE, "exec")


def compile_source(text: str, namespace: dict[str, Any]) -> dict[str, Any]:
    """Run generated ``text`` (function definitions) once, over a copy of
    ``namespace``; returns that namespace with the functions in it."""
    namespace = dict(namespace)
    exec(_code(text), namespace)
    return namespace


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


def _exact(sql_type: SqlType, value: str) -> str | None:
    """``sql_type``'s fast path as a condition over the local ``value``: true
    when the value already has the column's exact Python representation
    (``int`` in range, ``str``, non-NaN ``float``, ``bool``)."""
    if sql_type in _INTEGRAL:
        low, high = (
            (_INT32_MIN, _INT32_MAX)
            if sql_type is SqlType.INTEGER
            else (_INT64_MIN, _INT64_MAX)
        )
        return f"type({value}) is int and {low} <= {value} <= {high}"
    if sql_type is SqlType.FLOAT:
        # v == v is False exactly for NaN
        return f"type({value}) is float and {value} == {value}"
    exact = {SqlType.VARCHAR: "str", SqlType.BOOLEAN: "bool"}.get(sql_type)
    return None if exact is None else f"type({value}) is {exact}"


def _wrong_width(table: str, width: int, values: Sequence[Any]) -> None:
    raise StorageError(f"table {table!r} expects {width} values, got {len(values)}")


def make_row_codec(
    table: str, columns: Sequence[tuple[SqlType, bool]]
) -> Callable[[Sequence[Any]], tuple[Any, ...]]:
    """One table's row codec, ``values -> row``, compiled once at DDL time
    from its columns' ``(type, nullable)``.

    Each cell passes a value that already has the column's exact Python
    representation inline and hands everything else — NULL, ``bool`` for a
    number, ``int`` for FLOAT, an integral ``float`` for INTEGER, NaN, out of
    range — to :func:`coerce_value`, so every coercion and every error
    message has one definition.
    """
    namespace: dict[str, Any] = {
        "_wrong_width": functools.partial(_wrong_width, table, len(columns)),
        "_types": sys.modules[__name__],
    }
    names = [f"v{i}" for i in range(len(columns))]
    cells = []
    for name, (sql_type, nullable) in zip(names, columns):
        namespace[f"_{name}_type"] = sql_type
        slow = f"_types.coerce_value({name}, _{name}_type, nullable={nullable})"
        fast = _exact(sql_type, name)
        cells.append(slow if fast is None else f"{name} if {fast} else {slow}")
    lines = [
        "def validate_row(values):",
        f"    if len(values) != {len(columns)}:",
        "        _wrong_width(values)",
    ]
    if names:
        lines.append(f"    ({''.join(n + ', ' for n in names)}) = values")
    lines.append(f"    return ({''.join(c + ', ' for c in cells)})")
    return compile_source("\n".join(lines) + "\n", namespace)["validate_row"]


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
