"""Expression AST and the kernels that give it meaning.

Expressions appear in SELECT lists, WHERE/HAVING clauses, UPDATE SET clauses
and INSERT VALUES.  The parser builds the AST; the planner lowers each tree
once into its statement's kernel (:func:`repro.hstore.compile.lower_expr`),
so the nodes here carry structure and SQL rendering, not evaluation.

What an operator *means* is written here once, as a kernel over non-NULL
operands: ``_ARITH``, ``_COMPARATORS`` and :func:`compare`, ``_concat``,
``_like`` and ``_SCALAR_FUNCTIONS`` (BETWEEN is Python's chained
comparison).  The lowering wraps each in the NULL rule (a NULL operand
yields NULL).  A WHERE predicate only accepts rows whose value is exactly
TRUE.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, eq, ge, gt, le, lt, mul, ne, sub
from typing import Any, Callable, Iterator

from repro.errors import TypeSystemError

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "Parameter",
    "BinaryOp",
    "UnaryOp",
    "Comparison",
    "BooleanOp",
    "NotOp",
    "InList",
    "Between",
    "Like",
    "IsNull",
    "FunctionCall",
    "AggregateCall",
    "Star",
    "walk",
]


class Expression:
    """Base class for all expression nodes."""

    def children(self) -> tuple["Expression", ...]:
        return ()

    def sql(self) -> str:
        """Render back to SQL text (used in plan explanations and tests)."""
        raise NotImplementedError


def walk(expr: Expression) -> Iterator[Expression]:
    """Depth-first iterator over an expression tree (node first)."""
    yield expr
    for child in expr.children():
        yield from walk(child)


@dataclass(frozen=True)
class Literal(Expression):
    value: Any

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to ``table_alias.column`` or a bare ``column``."""

    name: str
    table: str | None = None

    @property
    def key(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name

    def sql(self) -> str:
        return self.key


@dataclass(frozen=True)
class Parameter(Expression):
    """A positional ``?`` placeholder (0-based ``index``)."""

    index: int

    def sql(self) -> str:
        return "?"


def _div(a: Any, b: Any) -> Any:
    """SQL division: integer division truncates toward zero."""
    if b == 0:
        raise TypeSystemError("division by zero")
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _mod(a: Any, b: Any) -> Any:
    if b == 0:
        raise TypeSystemError("division by zero")
    return a % b


_ARITH: dict[str, Callable[[Any, Any], Any]] = {
    "+": add,
    "-": sub,
    "*": mul,
    "/": _div,
    "%": _mod,
}


def _concat(a: Any, b: Any) -> str:
    return str(a) + str(b)


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str
    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # only "-" is produced by the parser
    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def sql(self) -> str:
        return f"(-{self.operand.sql()})"


#: the ``operator`` functions; incomparable operands raise ``TypeError``
_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": eq,
    "<>": ne,
    "!=": ne,
    "<": lt,
    "<=": le,
    ">": gt,
    ">=": ge,
}


def compare(op: str, a: Any, b: Any) -> bool:
    """``a op b`` over non-NULL operands; incomparable ones are SQL's type
    error, not Python's."""
    try:
        return _COMPARATORS[op](a, b)
    except TypeError:
        raise TypeSystemError(f"cannot compare {a!r} {op} {b!r}") from None


@dataclass(frozen=True)
class Comparison(Expression):
    op: str
    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class BooleanOp(Expression):
    """N-ary AND / OR with SQL three-valued logic."""

    op: str  # "AND" | "OR"
    operands: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return self.operands

    def sql(self) -> str:
        joined = f" {self.op} ".join(part.sql() for part in self.operands)
        return f"({joined})"


@dataclass(frozen=True)
class NotOp(Expression):
    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def sql(self) -> str:
        return f"(NOT {self.operand.sql()})"


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    options: tuple[Expression, ...]
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, *self.options)

    def sql(self) -> str:
        options = ", ".join(option.sql() for option in self.options)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} ({options}))"


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, self.low, self.high)

    def sql(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand.sql()} {keyword} {self.low.sql()} AND {self.high.sql()})"


@dataclass(frozen=True)
class Like(Expression):
    """SQL LIKE with ``%`` (any run) and ``_`` (any one char) wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, self.pattern)

    def sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.sql()} {keyword} {self.pattern.sql()})"


def _like_match(value: str, pattern: str) -> bool:
    """Iterative LIKE matcher (no regex, no catastrophic backtracking)."""
    # Classic two-pointer wildcard match, '%' == '*', '_' == '?'.
    v_idx = p_idx = 0
    star_p = star_v = -1
    while v_idx < len(value):
        if p_idx < len(pattern) and (pattern[p_idx] == "_" or pattern[p_idx] == value[v_idx]):
            v_idx += 1
            p_idx += 1
        elif p_idx < len(pattern) and pattern[p_idx] == "%":
            star_p = p_idx
            star_v = v_idx
            p_idx += 1
        elif star_p != -1:
            star_v += 1
            v_idx = star_v
            p_idx = star_p + 1
        else:
            return False
    while p_idx < len(pattern) and pattern[p_idx] == "%":
        p_idx += 1
    return p_idx == len(pattern)


def _like(value: Any, pattern: Any) -> bool:
    return _like_match(str(value), str(pattern))


def _not_like(value: Any, pattern: Any) -> bool:
    return not _like_match(str(value), str(pattern))


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.sql()} {keyword})"


def _sql_coalesce(*values: Any) -> Any:
    for value in values:
        if value is not None:
            return value
    return None


_SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "abs": abs,
    "lower": lambda s: s.lower(),
    "upper": lambda s: s.upper(),
    "length": lambda s: len(s),
    "coalesce": _sql_coalesce,
    "sqrt": lambda x: x**0.5,
    "floor": lambda x: int(x // 1),
    "ceil": lambda x: -int((-x) // 1),
    "min2": min,
    "max2": max,
}


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str
    args: tuple[Expression, ...] = ()

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def sql(self) -> str:
        args = ", ".join(arg.sql() for arg in self.args)
        return f"{self.name.upper()}({args})"


AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


@dataclass(frozen=True)
class AggregateCall(Expression):
    """``COUNT(*)``, ``COUNT(x)``, ``SUM/AVG/MIN/MAX(expr)``.

    Aggregates never evaluate directly: the aggregate executor computes them
    over a group and substitutes their value.  Evaluating one raises.
    """

    name: str  # lower-cased
    arg: Expression | None = None  # None means COUNT(*)
    distinct: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.arg,) if self.arg is not None else ()

    def sql(self) -> str:
        inner = "*" if self.arg is None else self.arg.sql()
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name.upper()}({inner})"


@dataclass(frozen=True, eq=False)
class InSubquery(Expression):
    """``operand [NOT] IN (SELECT ...)`` — parsed form.

    The planner replaces this with :class:`PlannedInSubquery`; evaluating
    the raw form is a planning bug.  The inner query may reference columns
    of the enclosing statement (one level up); the planner decorrelates
    such references into parameters.
    """

    operand: Expression
    select: Any  # SelectStmt (kept loose to avoid an import cycle)
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} (<subquery>))"


@dataclass(frozen=True, eq=False)
class Exists(Expression):
    """``EXISTS (SELECT ...)`` — parsed form (correlation allowed, one level)."""

    select: Any  # SelectStmt

    def sql(self) -> str:
        return "(EXISTS (<subquery>))"


@dataclass(frozen=True, eq=False)
class PlannedInSubquery(Expression):
    """Planned ``IN (SELECT ...)``: the inner plan runs per evaluation.

    ``outer_offsets`` lists the combined-row positions of correlated outer
    columns; their current values are appended to the statement parameters
    (the planner rewrote the inner references to the matching ``?`` slots).
    """

    operand: Expression
    plan: Any  # SelectPlan
    negated: bool = False
    outer_offsets: tuple[int, ...] = ()

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} (<subquery>))"


@dataclass(frozen=True, eq=False)
class PlannedExists(Expression):
    """Planned ``EXISTS (SELECT ...)`` (optionally correlated)."""

    plan: Any  # SelectPlan
    outer_offsets: tuple[int, ...] = ()

    def sql(self) -> str:
        return "(EXISTS (<subquery>))"


@dataclass(frozen=True, eq=False)
class ScalarSubquery(Expression):
    """``(SELECT ...)`` used as a value — parsed form."""

    select: Any  # SelectStmt

    def sql(self) -> str:
        return "(<scalar subquery>)"


@dataclass(frozen=True, eq=False)
class PlannedScalarSubquery(Expression):
    """Planned scalar subquery: yields the single value, NULL when empty.

    More than one row is a runtime error, per standard SQL.
    """

    plan: Any  # SelectPlan
    outer_offsets: tuple[int, ...] = ()

    def sql(self) -> str:
        return "(<scalar subquery>)"


@dataclass(frozen=True)
class CaseExpr(Expression):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``.

    With an operand it is a *simple* CASE (operand compared to each WHEN
    value); without, a *searched* CASE (each WHEN is a predicate).
    """

    whens: tuple[tuple[Expression, Expression], ...]
    operand: Expression | None = None
    default: Expression | None = None

    def children(self) -> tuple[Expression, ...]:
        nodes: list[Expression] = []
        if self.operand is not None:
            nodes.append(self.operand)
        for when, then in self.whens:
            nodes.append(when)
            nodes.append(then)
        if self.default is not None:
            nodes.append(self.default)
        return tuple(nodes)

    def sql(self) -> str:
        parts = ["CASE"]
        if self.operand is not None:
            parts.append(self.operand.sql())
        for when, then in self.whens:
            parts.append(f"WHEN {when.sql()} THEN {then.sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.sql()}")
        parts.append("END")
        return "(" + " ".join(parts) + ")"


@dataclass(frozen=True)
class Star(Expression):
    """``SELECT *`` (optionally ``alias.*``); expanded by the planner."""

    table: str | None = None

    def sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


def rewrite(
    expr: Expression,
    transform: Callable[[Expression], Expression | None],
) -> Expression:
    """Generic top-down expression rewriter.

    ``transform`` is called on each node first; returning a replacement stops
    descent into that node, returning ``None`` rebuilds it with rewritten
    children.  Frozen dataclass nodes are reconstructed only when a child
    actually changed.
    """
    import dataclasses as _dataclasses

    replacement = transform(expr)
    if replacement is not None:
        return replacement

    kwargs: dict[str, Any] = {}
    changed = False
    for fld in _dataclasses.fields(expr):
        value = getattr(expr, fld.name)
        if isinstance(value, Expression):
            new_value = rewrite(value, transform)
            changed = changed or new_value is not value
            kwargs[fld.name] = new_value
        elif (
            isinstance(value, tuple)
            and value
            and all(isinstance(item, Expression) for item in value)
        ):
            new_tuple = tuple(rewrite(item, transform) for item in value)
            changed = changed or any(
                new is not old for new, old in zip(new_tuple, value)
            )
            kwargs[fld.name] = new_tuple
        elif (
            isinstance(value, tuple)
            and value
            and all(
                isinstance(item, tuple)
                and len(item) == 2
                and isinstance(item[0], Expression)
                for item in value
            )
        ):
            new_pairs = tuple(
                (rewrite(a, transform), rewrite(b, transform)) for a, b in value
            )
            changed = changed or new_pairs != value
            kwargs[fld.name] = new_pairs
        else:
            kwargs[fld.name] = value
    if not changed:
        return expr
    return _dataclasses.replace(expr, **kwargs)


def contains_aggregate(expr: Expression) -> bool:
    """Whether any node in the tree is an :class:`AggregateCall`."""
    return any(isinstance(node, AggregateCall) for node in walk(expr))


def find_parameters(expr: Expression) -> list[Parameter]:
    """All parameter placeholders in the tree, in tree order."""
    return [node for node in walk(expr) if isinstance(node, Parameter)]
