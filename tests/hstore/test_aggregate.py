"""``fold(values)`` ≡ the oracle's row-at-a-time ``Accumulator`` fed the
same values, by type and IEEE-754 bit pattern, for every kind × DISTINCT.

Both ``_exact_sum`` strategies are exercised on whichever interpreter runs
the suite: the seeded builtin ``sum`` alone (CPython < 3.12, where it is the
naive left fold) and the ``reduce(add)`` redo of a float total (>= 3.12,
where builtin ``sum`` compensates).
"""

from __future__ import annotations

import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hstore import aggregate
from repro.hstore.aggregate import fold
from tests.oracle import Accumulator

pytestmark = pytest.mark.columnar  # fold is what every scan's aggregates run

KINDS = ("count", "sum", "avg", "min", "max")

number = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 0.2, 0.3, 1e16, -1e16, 1e308, float("inf")]),
    st.floats(allow_nan=False),
    st.just(float("nan")),
)
numbers = st.lists(number, max_size=12)


def bits(cell):
    """Type + bit-pattern identity: 1 vs 1.0 vs True must not collapse."""
    if type(cell) is float:
        return ("float", struct.pack("<d", cell))
    return (type(cell).__name__, cell)


def accumulated(kind: str, values: list, distinct: bool):
    acc = Accumulator(kind, lambda value: value, distinct)
    for value in values:
        acc.feed(value)
    return acc.result()


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except (TypeError, OverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__


#: run every test under both answers to "is builtin sum the naive fold?"
both_sum_strategies = pytest.mark.parametrize(
    "naive_sum", [True, False], ids=["sum-is-naive", "sum-compensates"]
)


def sum_strategy(naive_sum: bool):
    return mock.patch.object(aggregate, "_NAIVE_BUILTIN_SUM", naive_sum)


@both_sum_strategies
@settings(max_examples=300, deadline=None)
@given(values=numbers, distinct=st.booleans())
@example(values=[-0.0], distinct=False)
@example(values=[-0.0, -0.0], distinct=False)
@example(values=[-0.0, 0], distinct=False)
@example(values=[True], distinct=False)
@example(values=[True, 1, 1.0, 2], distinct=True)
@example(values=[1.0, 1, True], distinct=True)
@example(values=[0.1, 0.2, 0.3, 1e16, -1e16, 0.1], distinct=False)
@example(values=[1e16, 1, -1e16, 0.5], distinct=False)
@example(values=[float("nan"), 1.0, 2.0], distinct=False)
@example(values=[1.0, float("nan"), 0.5], distinct=False)
@example(values=[], distinct=False)
@example(values=[None, None], distinct=True)
@example(values=[2**70, 0.5, -(2**70)], distinct=False)
def test_fold_equals_accumulator(naive_sum, values, distinct):
    with sum_strategy(naive_sum):
        for kind in KINDS:
            want = outcome(accumulated, kind, values, distinct)
            assert outcome(fold, kind, values, distinct) == want, (kind, values)


@both_sum_strategies
@pytest.mark.parametrize(
    "values",
    [[1, "a"], ["a", 1], [1.5, "x", 2], [None, "b", 3]],
    ids=repr,
)
def test_incomparable_mix_raises_type_error_from_both(naive_sum, values):
    with sum_strategy(naive_sum):
        for kind in ("sum", "avg", "min", "max"):
            for distinct in (False, True):
                with pytest.raises(TypeError):
                    accumulated(kind, values, distinct)
                with pytest.raises(TypeError):
                    fold(kind, values, distinct)


@both_sum_strategies
def test_strings_concatenate_and_order_like_the_accumulator(naive_sum):
    values = ["b", None, "a", "b", "c"]
    with sum_strategy(naive_sum):
        for kind in ("count", "sum", "min", "max"):
            for distinct in (False, True):
                assert fold(kind, values, distinct) == accumulated(
                    kind, values, distinct
                )
        assert fold("sum", values, True) == "bac"
