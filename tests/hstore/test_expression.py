"""Unit tests for expression evaluation (including SQL three-valued logic).

Every case runs through the ``ev`` fixture, i.e. through both evaluators
of one expression: the oracle's tree walk and the engine's lowering,
compiled (see ``ev``).
"""

import pytest

from repro.errors import BindingError, PlanningError, TypeSystemError
from repro.hstore.expression import (
    AggregateCall,
    Between,
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Comparison,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    NotOp,
    Parameter,
    UnaryOp,
    contains_aggregate,
    find_parameters,
    walk,
)
from tests.oracle import OracleContext, compile_expression, evaluate


def ctx(row=(), columns=None, params=()):
    return OracleContext(columns=columns or {}, row=row, params=params)


@pytest.fixture
def ev():
    """``evaluate`` that holds the compiled lowering to the oracle: it must
    return the oracle's value, type for type, or raise its error with its
    text."""

    def evaluate_both(expr, context):
        kernel = compile_expression(expr, context.columns)
        try:
            want = evaluate(expr, context)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                kernel(context.row, context.params, context.executor)
            assert str(got.value) == str(exc)
            raise
        got = kernel(context.row, context.params, context.executor)
        assert (got, type(got)) == (want, type(want))
        return want

    return evaluate_both


def lit(value):
    return Literal(value)


class TestAtoms:
    def test_literal(self, ev):
        assert ev(lit(5), ctx()) == 5

    def test_column_ref(self, ev):
        context = ctx(row=(10, 20), columns={"a": 0, "b": 1})
        assert ev(ColumnRef("b"), context) == 20

    def test_qualified_column_ref(self, ev):
        context = ctx(row=(10,), columns={"t.a": 0})
        assert ev(ColumnRef("a", table="t"), context) == 10

    def test_unresolvable_column_raises(self, ev):
        with pytest.raises(BindingError):
            ev(ColumnRef("ghost"), ctx())

    def test_unresolvable_column_is_an_error_built_at_lowering(self, ev):
        # the map the expression is lowered against lacks the column: the
        # kernel raises the oracle's error, text and all, when evaluated
        context = ctx(row=(1, 2), columns={"a": 0, "t.a": 0})
        with pytest.raises(BindingError, match=r"known: \['a', 't.a'\]"):
            ev(ColumnRef("b"), context)

    def test_parameter(self, ev):
        assert ev(Parameter(1), ctx(params=(5, 7))) == 7

    def test_missing_parameter_raises(self, ev):
        with pytest.raises(BindingError):
            ev(Parameter(0), ctx())


class TestArithmetic:
    def test_basic_ops(self, ev):
        assert ev(BinaryOp("+", lit(2), lit(3)), ctx()) == 5
        assert ev(BinaryOp("-", lit(2), lit(3)), ctx()) == -1
        assert ev(BinaryOp("*", lit(4), lit(3)), ctx()) == 12

    def test_integer_division_truncates_toward_zero(self, ev):
        assert ev(BinaryOp("/", lit(7), lit(2)), ctx()) == 3
        assert ev(BinaryOp("/", lit(-7), lit(2)), ctx()) == -3

    def test_float_division(self, ev):
        assert ev(BinaryOp("/", lit(7.0), lit(2)), ctx()) == 3.5

    def test_division_by_zero(self, ev):
        with pytest.raises(TypeSystemError):
            ev(BinaryOp("/", lit(1), lit(0)), ctx())

    def test_modulo(self, ev):
        assert ev(BinaryOp("%", lit(7), lit(3)), ctx()) == 1

    def test_concat(self, ev):
        assert ev(BinaryOp("||", lit("a"), lit("b")), ctx()) == "ab"

    def test_null_propagates(self, ev):
        assert ev(BinaryOp("+", lit(None), lit(3)), ctx()) is None

    def test_unary_minus(self, ev):
        assert ev(UnaryOp("-", lit(5)), ctx()) == -5
        assert ev(UnaryOp("-", lit(None)), ctx()) is None


class TestComparison:
    def test_operators(self, ev):
        assert ev(Comparison("=", lit(1), lit(1)), ctx()) is True
        assert ev(Comparison("<>", lit(1), lit(2)), ctx()) is True
        assert ev(Comparison("<", lit(1), lit(2)), ctx()) is True
        assert ev(Comparison(">=", lit(2), lit(2)), ctx()) is True

    def test_null_comparison_is_null(self, ev):
        assert ev(Comparison("=", lit(None), lit(None)), ctx()) is None
        assert ev(Comparison("<", lit(1), lit(None)), ctx()) is None

    def test_incomparable_types_raise(self, ev):
        with pytest.raises(TypeSystemError):
            ev(Comparison("<", lit("a"), lit(1)), ctx())


class TestThreeValuedLogic:
    def test_and_short_circuit_false(self, ev):
        # FALSE AND NULL = FALSE
        expr = BooleanOp("AND", (lit(False), lit(None)))
        assert ev(expr, ctx()) is False

    def test_and_with_null_and_true_is_null(self, ev):
        expr = BooleanOp("AND", (lit(True), lit(None)))
        assert ev(expr, ctx()) is None

    def test_or_short_circuit_true(self, ev):
        # TRUE OR NULL = TRUE
        expr = BooleanOp("OR", (lit(True), lit(None)))
        assert ev(expr, ctx()) is True

    def test_or_with_null_and_false_is_null(self, ev):
        expr = BooleanOp("OR", (lit(False), lit(None)))
        assert ev(expr, ctx()) is None

    def test_not(self, ev):
        assert ev(NotOp(lit(True)), ctx()) is False
        assert ev(NotOp(lit(None)), ctx()) is None


class TestPredicates:
    def test_in_list(self, ev):
        assert ev(InList(lit(2), (lit(1), lit(2))), ctx()) is True
        assert ev(InList(lit(3), (lit(1), lit(2))), ctx()) is False

    def test_not_in(self, ev):
        assert ev(InList(lit(3), (lit(1), lit(2)), negated=True), ctx()) is True

    def test_in_with_null_option_not_found_is_null(self, ev):
        # 3 IN (1, NULL) is NULL, not FALSE
        assert ev(InList(lit(3), (lit(1), lit(None))), ctx()) is None

    def test_in_found_beats_null(self, ev):
        assert ev(InList(lit(1), (lit(None), lit(1))), ctx()) is True

    def test_between(self, ev):
        assert ev(Between(lit(5), lit(1), lit(10)), ctx()) is True
        assert ev(Between(lit(0), lit(1), lit(10)), ctx()) is False
        assert ev(Between(lit(0), lit(1), lit(10), negated=True), ctx()) is True

    def test_between_null(self, ev):
        assert ev(Between(lit(None), lit(1), lit(10)), ctx()) is None

    def test_is_null(self, ev):
        assert ev(IsNull(lit(None)), ctx()) is True
        assert ev(IsNull(lit(1)), ctx()) is False
        assert ev(IsNull(lit(1), negated=True), ctx()) is True


class TestLike:
    @pytest.mark.parametrize(
        "value,pattern,expected",
        [
            ("hello", "hello", True),
            ("hello", "h%", True),
            ("hello", "%o", True),
            ("hello", "%ell%", True),
            ("hello", "h_llo", True),
            ("hello", "h_y%", False),
            ("hello", "", False),
            ("", "%", True),
            ("abc", "a%b%c", True),
            ("abc", "%%", True),
            ("aXbXc", "a_b_c", True),
            ("ab", "a_b", False),
        ],
    )
    def test_patterns(self, ev, value, pattern, expected):
        assert ev(Like(lit(value), lit(pattern)), ctx()) is expected

    def test_not_like(self, ev):
        assert ev(Like(lit("x"), lit("y"), negated=True), ctx()) is True

    def test_null_like_is_null(self, ev):
        assert ev(Like(lit(None), lit("%")), ctx()) is None


class TestFunctions:
    def test_scalar_functions(self, ev):
        assert ev(FunctionCall("abs", (lit(-5),)), ctx()) == 5
        assert ev(FunctionCall("upper", (lit("ab"),)), ctx()) == "AB"
        assert ev(FunctionCall("lower", (lit("AB"),)), ctx()) == "ab"
        assert ev(FunctionCall("length", (lit("abc"),)), ctx()) == 3
        assert ev(FunctionCall("sqrt", (lit(9),)), ctx()) == 3.0
        assert ev(FunctionCall("floor", (lit(1.7),)), ctx()) == 1
        assert ev(FunctionCall("ceil", (lit(1.2),)), ctx()) == 2

    def test_coalesce(self, ev):
        expr = FunctionCall("coalesce", (lit(None), lit(None), lit(3)))
        assert ev(expr, ctx()) == 3
        assert ev(FunctionCall("coalesce", (lit(None),)), ctx()) is None

    def test_null_arg_yields_null(self, ev):
        assert ev(FunctionCall("abs", (lit(None),)), ctx()) is None

    def test_unknown_function_raises(self, ev):
        with pytest.raises(PlanningError):
            ev(FunctionCall("nope", ()), ctx())


class TestTreeUtilities:
    def test_walk_visits_all_nodes(self):
        expr = BinaryOp("+", lit(1), BinaryOp("*", lit(2), Parameter(0)))
        assert len(list(walk(expr))) == 5

    def test_contains_aggregate(self):
        agg = AggregateCall("count", None)
        assert contains_aggregate(BinaryOp("+", agg, lit(1)))
        assert not contains_aggregate(lit(1))

    def test_find_parameters_in_order(self):
        expr = BinaryOp("+", Parameter(1), Parameter(0))
        assert [p.index for p in find_parameters(expr)] == [1, 0]

    def test_aggregate_eval_outside_group_raises(self, ev):
        with pytest.raises(PlanningError):
            ev(AggregateCall("sum", lit(1)), ctx())

    def test_sql_rendering_roundtrippable_text(self):
        expr = BooleanOp(
            "AND",
            (
                Comparison("=", ColumnRef("a"), lit(1)),
                Like(ColumnRef("b"), lit("x%")),
            ),
        )
        assert expr.sql() == "((a = 1) AND (b LIKE 'x%'))"

    def test_string_literal_sql_escapes_quotes(self):
        assert lit("it's").sql() == "'it''s'"
