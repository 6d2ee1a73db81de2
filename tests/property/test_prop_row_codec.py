"""Property: the per-table row codec is ``coerce_value``, column by column.

A table compiles its row codec at DDL time (``types.make_row_codec``),
whose per-column fast path passes only values that already have the
column's exact Python representation.  Whatever the value — exact type, ``bool`` for a
number, ``int`` for FLOAT, an integral ``float`` for INTEGER, NaN, ±inf, a
range edge, NULL — the codec must return the same value *of the same Python
type* as ``coerce_value``, or raise the same exception class with the same
message.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.hstore.catalog import Column, Schema, TableEntry
from repro.hstore.table import Table
from repro.hstore.types import SqlType, coerce_value, make_row_codec

EDGES = [
    -(2**63) - 1, -(2**63), -(2**31) - 1, -(2**31), -1, 0, 1,
    2**31 - 1, 2**31, 2**63 - 1, 2**63,
    0.0, -0.0, 1.0, 1.5, float(2**31), float(2**63), 1e300,
    float("inf"), float("-inf"), float("nan"),
    True, False, None, "", "7", "x", b"x", (1,), [1],
]

values = st.one_of(
    st.sampled_from(EDGES),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)


def make_coercer(sql_type, nullable):
    """One column's coercion: the codec of a one-column table."""
    codec = make_row_codec("t", [(sql_type, nullable)])
    return lambda value: codec((value,))[0]


def outcome(call, *args, **kwargs):
    """``(value, its type)`` on success, ``(class, message)`` on an engine error."""
    try:
        value = call(*args, **kwargs)
    except ReproError as exc:
        return ("raised", type(exc), str(exc))
    assert value == value, "a NaN got through"
    return (value, type(value))


@settings(max_examples=400, deadline=None)
@given(value=values, sql_type=st.sampled_from(list(SqlType)), nullable=st.booleans())
def test_column_coercer_matches_coerce_value(value, sql_type, nullable):
    coerce = make_coercer(sql_type, nullable)
    assert outcome(coerce, value) == outcome(
        coerce_value, value, sql_type, nullable=nullable
    )


def test_every_edge_on_every_type():
    # the exhaustive grid the property samples from, so no edge is left to luck
    for sql_type in SqlType:
        for nullable in (True, False):
            coerce = make_coercer(sql_type, nullable)
            for value in EDGES:
                assert outcome(coerce, value) == outcome(
                    coerce_value, value, sql_type, nullable=nullable
                ), (sql_type, nullable, value)


@settings(max_examples=200, deadline=None)
@given(row=st.tuples(*[values] * len(SqlType)), nullable=st.booleans())
def test_validate_row_is_the_column_wise_coercion(row, nullable):
    schema = Schema(
        [Column(f"c{i}", sql_type, nullable=nullable) for i, sql_type in enumerate(SqlType)]
    )
    table = Table(TableEntry("t", schema))

    def column_wise(values):
        return tuple(
            coerce_value(value, column.sql_type, nullable=column.nullable)
            for value, column in zip(values, schema)
        )

    got, want = outcome(table.validate_row, row), outcome(column_wise, row)
    assert got == want
    if got[0] != "raised":
        assert [type(v) for v in got[0]] == [type(v) for v in want[0]]
