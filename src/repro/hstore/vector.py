"""Batch-at-a-time (vectorized) expression evaluation over column vectors.

This is the vectorized twin of :func:`repro.hstore.compile.compile_expr`.
Where the row compiler lowers an expression tree to a closure evaluated
once per row, :func:`lower_expr` lowers it to a closure evaluated once per
*statement*: it takes a :class:`VectorContext` over a table's
:class:`~repro.hstore.columnar.ColumnCache` and returns either a whole
column of results or a :class:`Broadcast` (one value standing for the
entire vector — literals, parameters, and constant folds).

Semantics contract
------------------

The vector path must be *bit-identical* to the interpreter on success:

* NULL propagation is elementwise (a NULL operand yields NULL for that
  element) and AND/OR implement the same three-valued logic as
  ``BooleanOp.eval`` — including its "falsy is false" treatment of
  non-boolean operands.
* Aggregates are :func:`repro.hstore.aggregate.fold` over the selected
  argument column, the column form of the row accumulator.
* Evaluation is *eager* — there is no per-row short-circuit, so an
  expression that the interpreter would never evaluate for some row
  (``x <> 0 AND 10 / x > 1``) can raise here.  Lowered closures therefore
  make no attempt to replicate error channels: the executor catches any
  exception from a vector evaluation *before* mutating anything and
  re-runs the statement through the row-at-a-time path, which raises (or
  doesn't) with oracle semantics.

Anything not lowerable — CASE, subqueries, unresolvable columns, unknown
functions — returns ``None`` from ``lower_expr`` and the whole statement
stays on the row path at plan-compile time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_, eq, ge, gt, is_, is_not, le, lt, ne, or_
from typing import Any, Callable, Sequence

from repro.errors import BindingError
from repro.hstore.expression import (
    _ARITH,
    _COMPARATORS,
    _SCALAR_FUNCTIONS,
    Between,
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    NotOp,
    Parameter,
    UnaryOp,
    _like_match,
)
from repro.hstore.planner import SeqScan

__all__ = [
    "Broadcast",
    "VectorContext",
    "VectorSelect",
    "lower_expr",
    "lower_select",
    "normalize_mask",
    "selected_values",
]

#: aggregate names the columnar fold implements (== the planner's full set)
VECTOR_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})

#: operator-module twins of ``_COMPARATORS``: same semantics (same rich
#: comparison, same TypeError on incomparables), but C-dispatchable by
#: ``map`` with no per-row Python frame
_C_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": eq,
    "<>": ne,
    "!=": ne,
    "<": lt,
    "<=": le,
    ">": gt,
    ">=": ge,
}


class Broadcast:
    """A per-statement constant: one value standing for a whole vector."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


class VectorContext:
    """Evaluation context for one statement over one columnar view."""

    __slots__ = ("store", "params", "n")

    def __init__(self, store: Any, params: Sequence[Any], n: int) -> None:
        self.store = store
        self.params = params
        self.n = n


#: a lowered expression: VectorContext -> column (a list) | Broadcast
VecFn = Callable[[VectorContext], Any]


class BoolVec(list):
    """A vector known by construction to hold only ``True``/``False``.

    Produced by the NULL-free fast lanes of comparison, IS NULL and
    AND/OR lowering.  The tag lets downstream consumers skip whole C
    passes: :func:`normalize_mask` returns it as-is (a pure-bool vector
    *is* its own selection mask) and the 3VL fold skips its NULL scan
    and truthiness conversion.
    """

    __slots__ = ()


# ----------------------------------------------------------------------
# elementwise lifting helpers

def _lift1(scalar_fn: Callable[[Any], Any], operand: VecFn | None) -> VecFn | None:
    if operand is None:
        return None

    def run(v: VectorContext) -> Any:
        a = operand(v)
        if type(a) is Broadcast:
            x = a.value
            return Broadcast(None if x is None else scalar_fn(x))
        if None in a:
            return [None if x is None else scalar_fn(x) for x in a]
        return list(map(scalar_fn, a))

    return run


def _lift2(
    scalar_fn: Callable[[Any, Any], Any],
    left: VecFn | None,
    right: VecFn | None,
    wrap: type = list,
) -> VecFn | None:
    """Elementwise binary lift; ``wrap`` tags the NULL-free map outputs.

    Callers whose scalar function returns pure booleans (comparisons)
    pass ``wrap=BoolVec`` so the provenance survives into mask handling;
    the NULL-carrying comprehension branches always stay plain lists.
    """
    if left is None or right is None:
        return None

    def run(v: VectorContext) -> Any:
        a = left(v)
        b = right(v)
        a_bc = type(a) is Broadcast
        b_bc = type(b) is Broadcast
        if a_bc and b_bc:
            x, y = a.value, b.value
            return Broadcast(None if x is None or y is None else scalar_fn(x, y))
        if a_bc:
            x = a.value
            if x is None:
                return Broadcast(None)
            if None in b:
                return [None if y is None else scalar_fn(x, y) for y in b]
            return wrap(map(scalar_fn, repeat(x), b))
        if b_bc:
            y = b.value
            if y is None:
                return Broadcast(None)
            if None in a:
                return [None if x is None else scalar_fn(x, y) for x in a]
            return wrap(map(scalar_fn, a, repeat(y)))
        if None not in a and None not in b:
            return wrap(map(scalar_fn, a, b))
        return [
            None if x is None or y is None else scalar_fn(x, y)
            for x, y in zip(a, b)
        ]

    return run


def _liftn(
    scalar_fn: Callable[..., Any], operands: list[VecFn | None]
) -> VecFn | None:
    if any(fn is None for fn in operands):
        return None

    def run(v: VectorContext) -> Any:
        vals = [fn(v) for fn in operands]
        if all(type(x) is Broadcast for x in vals):
            args = [x.value for x in vals]
            if any(a is None for a in args):
                return Broadcast(None)
            return Broadcast(scalar_fn(*args))
        n = v.n
        cols = [
            [x.value] * n if type(x) is Broadcast else x for x in vals
        ]
        out = []
        append = out.append
        for args in zip(*cols):
            if None in args:
                append(None)
            else:
                append(scalar_fn(*args))
        return out

    return run


def _expand(x: Any, n: int) -> Any:
    return [x.value] * n if type(x) is Broadcast else x


# ----------------------------------------------------------------------
# node lowerers with bespoke NULL handling

def _lower_bool(op: str, operands: list[VecFn | None]) -> VecFn | None:
    if any(fn is None for fn in operands):
        return None
    conjunction = op == "AND"

    def run(v: VectorContext) -> Any:
        vals = [fn(v) for fn in operands]
        # fold broadcast operands first — 3VL AND/OR are commutative over
        # {T, F, N}, with F (resp. T) dominating and N beating T (resp. F)
        saw_null_const = False
        vectors = []
        for x in vals:
            if type(x) is Broadcast:
                value = x.value
                if value is None:
                    saw_null_const = True
                elif conjunction and not value:
                    return Broadcast(False)
                elif not conjunction and value:
                    return Broadcast(True)
            else:
                vectors.append(x)
        if not vectors:
            return Broadcast(None if saw_null_const else conjunction)
        if not saw_null_const and all(
            type(vec) is BoolVec or None not in vec for vec in vectors
        ):
            # NULL-free fast path: 3VL collapses to plain boolean algebra
            # over truthiness, all folds C-dispatched (BoolVec operands
            # skip both the NULL scan and the truthiness conversion)
            first = vectors[0]
            acc = first if type(first) is BoolVec else BoolVec(map(bool, first))
            fold = and_ if conjunction else or_
            for vec in vectors[1:]:
                acc = BoolVec(
                    map(fold, acc, vec if type(vec) is BoolVec else map(bool, vec))
                )
            return acc
        out = []
        append = out.append
        if conjunction:
            for tup in zip(*vectors):
                saw_null = saw_null_const
                result = True
                for value in tup:
                    if value is None:
                        saw_null = True
                    elif not value:
                        result = False
                        break
                append(False if result is False else (None if saw_null else True))
        else:
            for tup in zip(*vectors):
                saw_null = saw_null_const
                result = False
                for value in tup:
                    if value is None:
                        saw_null = True
                    elif value:
                        result = True
                        break
                append(True if result else (None if saw_null else False))
        return out

    return run


def _lower_is_null(operand: VecFn | None, negated: bool) -> VecFn | None:
    if operand is None:
        return None

    def run(v: VectorContext) -> Any:
        a = operand(v)
        if type(a) is Broadcast:
            return Broadcast(
                (a.value is not None) if negated else (a.value is None)
            )
        if negated:
            return BoolVec(map(is_not, a, repeat(None)))
        return BoolVec(map(is_, a, repeat(None)))

    return run


def _lower_in_list(
    operand: VecFn | None, options: list[VecFn | None], negated: bool
) -> VecFn | None:
    if operand is None or any(fn is None for fn in options):
        return None

    def run(v: VectorContext) -> Any:
        a = operand(v)
        opts = [fn(v) for fn in options]
        if all(type(o) is Broadcast for o in opts):
            values = [o.value for o in opts]
            saw_null_opt = None in values
            candidates = [x for x in values if x is not None]
            option_set = set(candidates)
            miss = None if saw_null_opt else negated
            hit = not negated
            if type(a) is Broadcast:
                x = a.value
                if x is None:
                    return Broadcast(None)
                return Broadcast(hit if x in option_set else miss)
            return [
                None if x is None else (hit if x in option_set else miss)
                for x in a
            ]
        # per-row option values (rare: options referencing columns)
        n = v.n
        cols = [_expand(o, n) for o in opts]
        avec = _expand(a, n)
        out = []
        append = out.append
        for idx, x in enumerate(avec):
            if x is None:
                append(None)
                continue
            saw_null = False
            found = False
            for col in cols:
                candidate = col[idx]
                if candidate is None:
                    saw_null = True
                elif candidate == x:
                    found = True
                    break
            if found:
                append(not negated)
            else:
                append(None if saw_null else negated)
        return out

    return run


# ----------------------------------------------------------------------
# the lowering entry point

def lower_expr(expr: Expression, columns: dict[str, int]) -> VecFn | None:
    """Lower ``expr`` to a batch evaluator, or ``None`` if it can't be.

    ``columns`` maps column keys to offsets, exactly as for
    :func:`repro.hstore.compile.compile_expr`.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda v: Broadcast(value)

    if isinstance(expr, ColumnRef):
        offset = columns.get(expr.key)
        if offset is None:
            return None
        return lambda v: v.store.column(offset)

    if isinstance(expr, Parameter):
        index = expr.index

        def run_param(v: VectorContext) -> Any:
            params = v.params
            if index >= len(params):
                # executor falls back; the row path raises the canonical
                # BindingError (or doesn't, if no row reaches the parameter)
                raise BindingError(f"statement parameter ${index + 1} not bound")
            return Broadcast(params[index])

        return run_param

    if isinstance(expr, Comparison):
        scalar = _C_COMPARATORS.get(expr.op) or _COMPARATORS.get(expr.op)
        if scalar is None:
            return None
        return _lift2(
            scalar,
            lower_expr(expr.left, columns),
            lower_expr(expr.right, columns),
            wrap=BoolVec,
        )

    if isinstance(expr, BinaryOp):
        if expr.op == "||":
            scalar = lambda x, y: str(x) + str(y)  # noqa: E731
        else:
            scalar = _ARITH.get(expr.op)
            if scalar is None:
                return None
        return _lift2(
            scalar,
            lower_expr(expr.left, columns),
            lower_expr(expr.right, columns),
        )

    if isinstance(expr, UnaryOp):
        if expr.op != "-":
            return None
        return _lift1(lambda x: -x, lower_expr(expr.operand, columns))

    if isinstance(expr, BooleanOp):
        return _lower_bool(
            expr.op, [lower_expr(part, columns) for part in expr.operands]
        )

    if isinstance(expr, NotOp):
        return _lift1(lambda x: not x, lower_expr(expr.operand, columns))

    if isinstance(expr, IsNull):
        return _lower_is_null(lower_expr(expr.operand, columns), expr.negated)

    if isinstance(expr, InList):
        return _lower_in_list(
            lower_expr(expr.operand, columns),
            [lower_expr(option, columns) for option in expr.options],
            expr.negated,
        )

    if isinstance(expr, Between):
        negated = expr.negated

        def scalar_between(value: Any, low: Any, high: Any) -> bool:
            result = low <= value <= high
            return not result if negated else result

        return _liftn(
            scalar_between,
            [
                lower_expr(expr.operand, columns),
                lower_expr(expr.low, columns),
                lower_expr(expr.high, columns),
            ],
        )

    if isinstance(expr, Like):
        negated = expr.negated

        def scalar_like(value: Any, pattern: Any) -> bool:
            result = _like_match(str(value), str(pattern))
            return not result if negated else result

        return _lift2(
            scalar_like,
            lower_expr(expr.operand, columns),
            lower_expr(expr.pattern, columns),
        )

    if isinstance(expr, FunctionCall):
        name = expr.name.lower()
        scalar = _SCALAR_FUNCTIONS.get(name)
        if scalar is None:
            return None
        arg_fns = [lower_expr(arg, columns) for arg in expr.args]
        if name == "coalesce":
            return _lower_coalesce(arg_fns)
        return _liftn(scalar, arg_fns)

    # CASE, subqueries, aggregates, Star, anything future: row path
    return None


def _lower_coalesce(arg_fns: list[VecFn | None]) -> VecFn | None:
    if any(fn is None for fn in arg_fns):
        return None

    def run(v: VectorContext) -> Any:
        vals = [fn(v) for fn in arg_fns]
        if all(type(x) is Broadcast for x in vals):
            for x in vals:
                if x.value is not None:
                    return Broadcast(x.value)
            return Broadcast(None)
        n = v.n
        cols = [_expand(x, n) for x in vals]
        out = []
        append = out.append
        for args in zip(*cols):
            result = None
            for value in args:
                if value is not None:
                    result = value
                    break
            append(result)
        return out

    return run


# ----------------------------------------------------------------------
# selection vectors (used by the executor)

def normalize_mask(mask: Any, n: int) -> list[bool] | None:
    """Predicate result -> selection vector.

    Returns ``None`` for "every row selected", else a list of bools.  The
    executor's row semantics keep a row only when the predicate ``is
    True`` (never merely truthy, never NULL), hence the identity map.
    """
    if type(mask) is Broadcast:
        return None if mask.value is True else [False] * n
    if type(mask) is BoolVec:
        return mask  # already pure True/False — it IS the selection vector
    return list(map(is_, mask, repeat(True)))


def selected_values(
    result: Any, bmask: list[bool] | None, n: int, nsel: int
) -> Any:
    """Materialize a vector result restricted to the selection (read-only)."""
    if type(result) is Broadcast:
        return [result.value] * nsel
    if bmask is None:
        return result
    return list(compress(result, bmask))


# ----------------------------------------------------------------------
# statement-level lowering (attached to compiled plans)

@dataclass
class VectorSelect:
    """Vector artifacts for a full-scan SELECT.

    ``outputs`` is the fully-lowered projection for plain filter+project
    statements (no grouping, DISTINCT, ORDER BY or HAVING): when present
    the executor zips the selected output columns straight into result
    rows and never touches the row store at all.
    """

    where: VecFn | None
    group_keys: tuple[VecFn, ...]
    agg_specs: tuple[tuple[str, VecFn | None, bool], ...]
    outputs: tuple[VecFn, ...] | None = None


def lower_select(plan: Any) -> VectorSelect | None:
    """Attach a vector plan to a single-table full-scan SELECT, or None."""
    if not isinstance(plan.access, SeqScan) or plan.joins:
        return None
    columns = plan.columns
    where_fn = None
    if plan.where is not None:
        where_fn = lower_expr(plan.where, columns)
        if where_fn is None:
            return None
    group_fns: list[VecFn] = []
    agg_specs: list[tuple[str, VecFn | None, bool]] = []
    if plan.grouped:
        for expr in plan.group_exprs:
            fn = lower_expr(expr, columns)
            if fn is None:
                return None
            group_fns.append(fn)
        for agg in plan.aggregates:
            if agg.name not in VECTOR_AGGREGATES:
                return None
            arg_fn = None
            if agg.arg is not None:
                arg_fn = lower_expr(agg.arg, columns)
                if arg_fn is None:
                    return None
            agg_specs.append((agg.name, arg_fn, agg.distinct))
    elif where_fn is None:
        # plain SELECT * full scan: the row path is already a dict copy
        return None
    outputs = None
    if (
        not plan.grouped
        and not plan.distinct
        and not plan.order_by
        and plan.post_having is None
        and plan.ext_columns is plan.columns
    ):
        out_fns: list[VecFn] | None = []
        for expr in plan.output_exprs:
            fn = lower_expr(expr, columns)
            if fn is None:
                out_fns = None
                break
            out_fns.append(fn)
        if out_fns is not None:
            outputs = tuple(out_fns)
    return VectorSelect(where_fn, tuple(group_fns), tuple(agg_specs), outputs)
