"""Plan lowering: one node dispatch builds every expression evaluator.

:func:`lower_expr` walks an expression tree once, at plan time, and builds
its evaluator in one of two forms:

* :data:`SCALAR` — ``EvalFn``, a closure ``fn(ctx) -> value`` evaluated per
  row, column references burned in as row offsets (``ctx.row[7]``);
* :data:`repro.hstore.vector.COLUMN` — ``VecFn``, a closure over a whole
  column batch, or ``None`` where the column form has no evaluator.

Each node's semantics is written once, as a kernel in
:mod:`repro.hstore.expression`; a form is a handful of primitives with no
per-node code (the scalar form wraps a strict kernel in a NULL check
specialised by arity, the column form lifts it elementwise).  The scalar
closures are the engine's reference semantics — SQL three-valued logic,
NULL propagation, ``BindingError`` on missing parameters and unresolvable
columns, ``TypeSystemError`` on bad comparisons and division by zero — and
the differential suites hold them, and the column form, to the
tree-walking oracle in ``tests/oracle.py``.

:func:`compile_plan` threads closures through a whole physical plan
(:class:`CompiledSelect` / ``Insert`` / ``Update`` / ``Delete``), including:

* compiled index-probe key builders for every access path;
* a *point-lookup* flag when a SELECT is a pure covered equality lookup
  (no joins, no residual WHERE, no grouping/ordering): the executor's
  source is then the index probe alone;
* tuple-builder specialization for small projection arities and
  ``operator.itemgetter`` fast paths when every output is a plain column
  (projection) or every INSERT value is a plain parameter;
* per-aggregate specs (name, compiled argument, DISTINCT): the row
  closures fill one argument column per aggregate, which the executor's
  one grouped driver buckets and hands to
  :func:`repro.hstore.aggregate.fold`;
* the column program (:class:`~repro.hstore.vector.VectorSelect`) of a
  full-scan SELECT whose expressions all have a column form.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from operator import neg, not_
from typing import Any, Callable

from repro.errors import BindingError, PlanningError, TypeSystemError
from repro.hstore.expression import (
    _ARITH,
    _COMPARATORS,
    _SCALAR_FUNCTIONS,
    AggregateCall,
    Between,
    BinaryOp,
    BooleanOp,
    CaseExpr,
    ColumnRef,
    Comparison,
    EvalContext,
    Exists,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Like,
    Literal,
    NotOp,
    Parameter,
    PlannedExists,
    PlannedInSubquery,
    PlannedScalarSubquery,
    ScalarSubquery,
    Star,
    UnaryOp,
    _between,
    _concat,
    _like,
    _not_between,
    _not_like,
    walk,
)
from repro.hstore.planner import (
    DeletePlan,
    IndexEqScan,
    IndexRangeScan,
    InsertPlan,
    Plan,
    SelectPlan,
    SeqScan,
    UpdatePlan,
)
from repro.hstore.table import row_getter
from repro.hstore.vector import COLUMN, VectorSelect

__all__ = [
    "EvalFn",
    "SCALAR",
    "lower_expr",
    "lower_select",
    "compile_plan",
    "make_tuple_fn",
    "CompiledAccess",
    "CompiledJoin",
    "GroupFirst",
    "CompiledSelect",
    "CompiledInsert",
    "CompiledUpdate",
    "CompiledDelete",
]

#: a scalar evaluator: one call per evaluation, zero AST dispatch
EvalFn = Callable[[EvalContext], Any]


# ---------------------------------------------------------------------------
# The node dispatch
# ---------------------------------------------------------------------------

#: nodes the planner rewrites away before anything is evaluated
_UNPLANNED = {
    InSubquery: "IN (SELECT ...) must be planned before evaluation",
    Exists: "EXISTS must be planned before evaluation",
    ScalarSubquery: "scalar subquery must be planned before evaluation",
    Star: "* must be expanded by the planner before evaluation",
}


def lower_expr(expr: Expression, columns: dict[str, int], form: Any) -> Any:
    """Build ``expr``'s evaluator in ``form`` (:data:`SCALAR` or ``COLUMN``).

    ``columns`` maps column keys to row offsets; offsets are burned into
    the evaluator.  A node that can only raise — an unresolvable column,
    an unknown operator or function, an aggregate outside GROUP BY —
    lowers to an evaluator that raises the error when it is evaluated
    (the column form has none: the statement stays on the row path).
    """

    def lower(node: Expression | None) -> Any:
        return None if node is None else lower_expr(node, columns, form)

    if isinstance(expr, Literal):
        return form.const(expr.value)
    if isinstance(expr, ColumnRef):
        offset = columns.get(expr.key)
        if offset is None:
            return form.fail(
                BindingError,
                f"cannot resolve column {expr.key!r}; known: {sorted(columns)}",
            )
        return form.column(offset)
    if isinstance(expr, Parameter):
        return form.param(expr.index)
    if isinstance(expr, Comparison):
        if expr.op not in _COMPARATORS:
            return form.fail(PlanningError, f"unknown comparator {expr.op!r}")
        return form.compare(expr.op, lower(expr.left), lower(expr.right))
    if isinstance(expr, BinaryOp):
        kernel = _concat if expr.op == "||" else _ARITH.get(expr.op)
        if kernel is None:
            return form.fail(PlanningError, f"unknown binary operator {expr.op!r}")
        return form.strict(kernel, lower(expr.left), lower(expr.right))
    if isinstance(expr, UnaryOp):
        if expr.op != "-":
            return form.fail(PlanningError, f"unknown unary operator {expr.op!r}")
        return form.strict(neg, lower(expr.operand))
    if isinstance(expr, NotOp):
        return form.strict(not_, lower(expr.operand))
    if isinstance(expr, Between):
        kernel = _not_between if expr.negated else _between
        return form.strict(
            kernel, lower(expr.operand), lower(expr.low), lower(expr.high)
        )
    if isinstance(expr, Like):
        kernel = _not_like if expr.negated else _like
        return form.strict(kernel, lower(expr.operand), lower(expr.pattern))
    if isinstance(expr, FunctionCall):
        name = expr.name.lower()
        if name not in _SCALAR_FUNCTIONS:
            return form.fail(PlanningError, f"unknown function {expr.name!r}")
        args = [lower(arg) for arg in expr.args]
        if name == "coalesce":
            return form.coalesce(args)
        return form.strict(_SCALAR_FUNCTIONS[name], *args)
    if isinstance(expr, BooleanOp):
        if expr.op not in ("AND", "OR"):
            return form.fail(PlanningError, f"unknown boolean operator {expr.op!r}")
        return form.boolean(expr.op == "AND", [lower(part) for part in expr.operands])
    if isinstance(expr, IsNull):
        return form.is_null(lower(expr.operand), expr.negated)
    if isinstance(expr, InList):
        options = [lower(option) for option in expr.options]
        return form.in_list(lower(expr.operand), options, expr.negated)
    if isinstance(expr, CaseExpr):
        return form.case(
            lower(expr.operand),
            [(lower(when), lower(then)) for when, then in expr.whens],
            lower(expr.default),
        )
    if isinstance(expr, PlannedInSubquery):
        return form.in_subquery(
            lower(expr.operand), expr.plan, expr.outer_offsets, expr.negated
        )
    if isinstance(expr, PlannedExists):
        return form.exists(expr.plan, expr.outer_offsets)
    if isinstance(expr, PlannedScalarSubquery):
        return form.scalar_subquery(expr.plan, expr.outer_offsets)
    if isinstance(expr, AggregateCall):
        return form.fail(
            PlanningError,
            f"aggregate {expr.name.upper()} evaluated outside GROUP BY context",
        )
    return form.fail(PlanningError, _UNPLANNED[type(expr)])


# ---------------------------------------------------------------------------
# The scalar form
# ---------------------------------------------------------------------------


def _membership(value: Any, candidates: Any, negated: bool) -> Any:
    """``value [NOT] IN candidates`` for a non-NULL ``value``: a match
    decides, else a NULL candidate makes the answer NULL."""
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif candidate == value:
            return not negated
    return None if saw_null else negated


def _inner_rows(plan: SelectPlan, outer_offsets: tuple[int, ...]) -> EvalFn:
    """A planned subquery's rows for the current outer row: the statement
    params extended with the correlated outer-column values."""

    def run_inner(ctx: EvalContext) -> list[tuple[Any, ...]]:
        params = tuple(ctx.params) + tuple(ctx.row[offset] for offset in outer_offsets)
        return ctx.executor.execute_select_plan(plan, params).rows

    return run_inner


class _ScalarForm:
    """The scalar form of :func:`lower_expr`: ``ctx -> value`` closures."""

    def const(self, value: Any) -> EvalFn:
        return lambda ctx: value

    def column(self, offset: int) -> EvalFn:
        return lambda ctx: ctx.row[offset]

    def param(self, index: int) -> EvalFn:
        def eval_param(ctx: EvalContext) -> Any:
            params = ctx.params
            if index >= len(params):
                raise BindingError(
                    f"statement requires parameter #{index + 1}, "
                    f"only {len(params)} bound"
                )
            return params[index]

        return eval_param

    def fail(self, error: type[Exception], message: str) -> EvalFn:
        def raise_error(ctx: EvalContext) -> Any:
            raise error(message)

        return raise_error

    def strict(self, kernel: Callable[..., Any], *fns: EvalFn) -> EvalFn:
        """``kernel`` over the operands' values, NULL if any operand is NULL.

        Every operand is evaluated before the NULL check, so an operand's
        error surfaces even beside a NULL.
        """
        if len(fns) == 1:
            (f0,) = fns

            def strict1(ctx: EvalContext) -> Any:
                a = f0(ctx)
                return None if a is None else kernel(a)

            return strict1
        if len(fns) == 2:
            f0, f1 = fns

            def strict2(ctx: EvalContext) -> Any:
                a = f0(ctx)
                b = f1(ctx)
                if a is None or b is None:
                    return None
                return kernel(a, b)

            return strict2
        if len(fns) == 3:
            f0, f1, f2 = fns

            def strict3(ctx: EvalContext) -> Any:
                a = f0(ctx)
                b = f1(ctx)
                c = f2(ctx)
                if a is None or b is None or c is None:
                    return None
                return kernel(a, b, c)

            return strict3

        def strictn(ctx: EvalContext) -> Any:
            values = [fn(ctx) for fn in fns]
            for value in values:
                if value is None:
                    return None
            return kernel(*values)

        return strictn

    def compare(self, op: str, left: EvalFn, right: EvalFn) -> EvalFn:
        """A strict comparison whose ``TypeError`` becomes SQL's error."""
        kernel = _COMPARATORS[op]

        def compare(ctx: EvalContext) -> Any:
            a = left(ctx)
            b = right(ctx)
            if a is None or b is None:
                return None
            try:
                return kernel(a, b)
            except TypeError:
                raise TypeSystemError(f"cannot compare {a!r} {op} {b!r}") from None

        return compare

    def boolean(self, conjunction: bool, fns: list[EvalFn]) -> EvalFn:
        """N-ary AND / OR in three-valued logic, short-circuiting left to
        right: the first falsy operand decides an AND, the first truthy one
        an OR."""

        def eval_boolean(ctx: EvalContext) -> Any:
            saw_null = False
            for fn in fns:
                value = fn(ctx)
                if value is None:
                    saw_null = True
                elif (not value) is conjunction:
                    return not conjunction
            return None if saw_null else conjunction

        return eval_boolean

    def is_null(self, operand: EvalFn, negated: bool) -> EvalFn:
        if negated:
            return lambda ctx: operand(ctx) is not None
        return lambda ctx: operand(ctx) is None

    def in_list(self, operand: EvalFn, options: list[EvalFn], negated: bool) -> EvalFn:
        def eval_in(ctx: EvalContext) -> Any:
            value = operand(ctx)
            if value is None:
                return None
            return _membership(value, (option(ctx) for option in options), negated)

        return eval_in

    def coalesce(self, fns: list[EvalFn]) -> EvalFn:
        def eval_coalesce(ctx: EvalContext) -> Any:
            for fn in fns:
                value = fn(ctx)
                if value is not None:
                    return value
            return None

        return eval_coalesce

    def case(
        self,
        operand: EvalFn | None,
        whens: list[tuple[EvalFn, EvalFn]],
        default: EvalFn | None,
    ) -> EvalFn:
        """Simple CASE (operand = each WHEN value) or searched CASE (each
        WHEN is a predicate that must be exactly TRUE)."""
        if operand is not None:

            def eval_simple_case(ctx: EvalContext) -> Any:
                subject = operand(ctx)
                for when, then in whens:
                    candidate = when(ctx)
                    if subject is not None and candidate == subject:
                        return then(ctx)
                return default(ctx) if default is not None else None

            return eval_simple_case

        def eval_searched_case(ctx: EvalContext) -> Any:
            for when, then in whens:
                if when(ctx) is True:
                    return then(ctx)
            return default(ctx) if default is not None else None

        return eval_searched_case

    def in_subquery(
        self,
        operand: EvalFn,
        plan: SelectPlan,
        outer_offsets: tuple[int, ...],
        negated: bool,
    ) -> EvalFn:
        inner = _inner_rows(plan, outer_offsets)

        def eval_in_subquery(ctx: EvalContext) -> Any:
            value = operand(ctx)
            if value is None:
                return None
            return _membership(value, (row[0] for row in inner(ctx)), negated)

        return eval_in_subquery

    def exists(self, plan: SelectPlan, outer_offsets: tuple[int, ...]) -> EvalFn:
        inner = _inner_rows(plan, outer_offsets)
        return lambda ctx: bool(inner(ctx))

    def scalar_subquery(
        self, plan: SelectPlan, outer_offsets: tuple[int, ...]
    ) -> EvalFn:
        inner = _inner_rows(plan, outer_offsets)

        def eval_scalar_subquery(ctx: EvalContext) -> Any:
            rows = inner(ctx)
            if not rows:
                return None
            if len(rows) > 1:
                raise TypeSystemError(f"scalar subquery returned {len(rows)} rows")
            return rows[0][0]

        return eval_scalar_subquery


#: the scalar form of :func:`lower_expr`
SCALAR = _ScalarForm()


def _scalar(expr: Expression | None, columns: dict[str, int]) -> Any:
    """``expr``'s scalar evaluator; None for an absent clause."""
    return None if expr is None else lower_expr(expr, columns, SCALAR)


def make_tuple_fn(fns: tuple[EvalFn, ...]) -> EvalFn:
    """A closure building the tuple of all ``fns`` results, arity-specialized.

    Building ``(f0(ctx), f1(ctx))`` directly beats a genexp-into-``tuple``
    for the 1–4 column rows that dominate the streaming workloads.
    """
    if len(fns) == 0:
        return lambda ctx: ()
    if len(fns) == 1:
        (f0,) = fns
        return lambda ctx: (f0(ctx),)
    if len(fns) == 2:
        f0, f1 = fns
        return lambda ctx: (f0(ctx), f1(ctx))
    if len(fns) == 3:
        f0, f1, f2 = fns
        return lambda ctx: (f0(ctx), f1(ctx), f2(ctx))
    if len(fns) == 4:
        f0, f1, f2, f3 = fns
        return lambda ctx: (f0(ctx), f1(ctx), f2(ctx), f3(ctx))
    return lambda ctx: tuple(fn(ctx) for fn in fns)


def _column_offsets(
    exprs: list[Expression], columns: dict[str, int]
) -> tuple[int, ...] | None:
    """Row offsets when every expression is a plain resolvable column."""
    offsets: list[int] = []
    for expr in exprs:
        if not isinstance(expr, ColumnRef) or expr.key not in columns:
            return None
        offsets.append(columns[expr.key])
    return tuple(offsets)


# ---------------------------------------------------------------------------
# Plan artifacts
# ---------------------------------------------------------------------------


@dataclass
class CompiledAccess:
    """Closure form of one access path (probe builders pre-compiled)."""

    kind: str  # "seq" | "eq" | "range"
    #: eq: builds the probe key tuple from the (outer-row) context
    key_fn: EvalFn | None = None
    #: eq, all-plain-column keys: row offsets to build the probe key from
    #: the outer row directly, skipping the closure calls entirely
    key_offsets: tuple[int, ...] | None = None
    #: range bounds (None = unbounded on that side)
    low_fn: EvalFn | None = None
    high_fn: EvalFn | None = None


@dataclass
class CompiledJoin:
    """One join step: inner access probe + residual ON predicate."""

    access: CompiledAccess
    on: EvalFn | None


@dataclass
class GroupFirst:
    """Group-before-join: the outer table aggregated alone, then one probe
    per *group* instead of one per row (see :func:`_group_first`)."""

    #: the plan minus its joins: same WHERE, GROUP BY and aggregates, so its
    #: extended rows have the full plan's layout; compiled like any plan
    outer: SelectPlan
    #: per join step ``(inner table, unique index, extended row -> probe key)``
    probes: tuple[tuple[str, str, Callable[[tuple], tuple]], ...]


@dataclass
class CompiledSelect:
    access: CompiledAccess
    joins: list[CompiledJoin]
    where: EvalFn | None
    #: group-key builder over the combined row ( () -> () when ungrouped )
    group_key: EvalFn
    #: all-plain-column group key: row offsets for direct key extraction
    group_offsets: tuple[int, ...] | None
    #: per-aggregate (name, compiled arg or None for COUNT(*), distinct)
    agg_specs: tuple[tuple[str, EvalFn | None, bool], ...]
    #: every aggregate is a bare COUNT(*): groups reduce to int counters
    count_star_only: bool
    post_having: EvalFn | None
    #: projection over the extended row, as a single tuple-builder
    project: EvalFn
    #: pure-column projection: ext_row -> out tuple without any context
    row_project: Callable[[tuple], tuple] | None
    #: ORDER BY sort-key builder and the sort over the precomputed key
    #: tuples (see :func:`_order_sort`)
    order_keys: EvalFn | None
    order_sort: Callable[[list], list] | None
    #: pure covered equality lookup: the index probe is the whole source
    point_lookup: bool = False
    #: batch-at-a-time artifacts (repro.hstore.vector.VectorSelect) for
    #: full scans whose WHERE/GROUP BY/aggregates all lower; None = row path
    vector: Any = None
    #: grouped unique-key inner joins: aggregate first, probe per group
    group_first: GroupFirst | None = None


@dataclass
class CompiledInsert:
    #: one tuple-builder per VALUES row
    row_fns: list[EvalFn]
    #: when every value of every row is a plain parameter: params -> tuple
    param_rows: list[Callable[[tuple], tuple]] | None
    #: slots are 0..n-1 with no defaults needed: values tuple IS the row
    identity_slots: bool


@dataclass
class CompiledUpdate:
    access: CompiledAccess
    where: EvalFn | None
    assignments: tuple[tuple[int, EvalFn], ...]


@dataclass
class CompiledDelete:
    access: CompiledAccess
    where: EvalFn | None


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------


def compile_plan(plan: Plan) -> Plan:
    """Attach compiled artifacts to a physical plan (idempotent, in place).

    The planner calls this as each plan is built, nested subquery plans and
    ``INSERT ... SELECT`` sources included, so every plan an execution can
    reach carries its closures.  A full-scan SELECT whose expressions all
    lower additionally carries batch-at-a-time artifacts
    (``.compiled.vector``): the plan alone decides the lane, and the
    executor leaves it only when a batch evaluation raises.
    """
    if getattr(plan, "compiled", None) is not None:
        return plan
    if isinstance(plan, SelectPlan):
        plan.compiled = _compile_select(plan)
        plan.compiled.vector = lower_select(plan)
        plan.compiled.group_first = _group_first(plan)
    elif isinstance(plan, InsertPlan):
        plan.compiled = _compile_insert(plan)
    elif isinstance(plan, UpdatePlan):
        plan.compiled = _compile_update(plan)
    elif isinstance(plan, DeletePlan):
        plan.compiled = _compile_delete(plan)
    return plan


def lower_select(plan: SelectPlan) -> VectorSelect | None:
    """The column program of a single-table full-scan SELECT, or None when
    its WHERE, GROUP BY keys or aggregate arguments have no column form."""
    if not isinstance(plan.access, SeqScan) or plan.joins:
        return None

    def column(expr: Expression | None) -> Any:
        return None if expr is None else lower_expr(expr, plan.columns, COLUMN)

    where_fn = column(plan.where)
    if plan.where is not None and where_fn is None:
        return None
    group_fns: list[Any] = []
    agg_specs: list[tuple[str, Any, bool]] = []
    if plan.grouped:
        group_fns = [column(expr) for expr in plan.group_exprs]
        agg_specs = [
            (agg.name, column(agg.arg), agg.distinct) for agg in plan.aggregates
        ]
        if None in group_fns or any(
            agg.arg is not None and fn is None
            for agg, (_name, fn, _distinct) in zip(plan.aggregates, agg_specs)
        ):
            return None
    elif where_fn is None:
        # plain SELECT * full scan: the row path is already a dict copy
        return None
    return VectorSelect(where_fn, tuple(group_fns), tuple(agg_specs))


def _compile_access(access: Any, columns: dict[str, int]) -> CompiledAccess:
    if isinstance(access, IndexEqScan):
        key_fns = tuple(_scalar(expr, columns) for expr in access.key_exprs)
        return CompiledAccess(
            kind="eq",
            key_fn=make_tuple_fn(key_fns),
            key_offsets=_column_offsets(list(access.key_exprs), columns),
        )
    if isinstance(access, IndexRangeScan):
        return CompiledAccess(
            kind="range",
            low_fn=_scalar(access.low, columns),
            high_fn=_scalar(access.high, columns),
        )
    return CompiledAccess(kind="seq")


def _order_sort(ascending: tuple[bool, ...]) -> Callable[[list], list]:
    """Sort ``(key_tuple, ext_row, out)`` items by the ORDER BY keys.

    The normal path is one stable ``list.sort`` pass per key, last key
    first: each pass keys on ``(value is None, value)``, or ``(value is not
    None, value)`` with ``reverse=True`` for DESC, so NULLs sort last in
    both directions and ties keep the order the later keys' passes left.
    A pass compares its key between any two rows, also rows an earlier key
    already separates; when such a comparison raises ``TypeError`` the
    items are sorted again by comparator, which compares a later key only
    between rows the earlier keys tie on — the oracle's order and errors.
    """
    passes = []
    for i in reversed(range(len(ascending))):
        if ascending[i]:
            passes.append((lambda item, i=i: ((v := item[0][i]) is None, v), False))
        else:
            passes.append((lambda item, i=i: ((v := item[0][i]) is not None, v), True))
    (first_key, first_reverse), later = passes[0], passes[1:]

    def compare(left: tuple, right: tuple) -> int:
        for a, b, asc in zip(left[0], right[0], ascending):
            if a is None and b is None:
                continue
            if a is None:
                return 1  # NULLs sort last
            if b is None:
                return -1
            if a == b:
                continue
            result = -1 if a < b else 1
            return result if asc else -result
        return 0

    def sort(items: list) -> list:
        try:
            ordered = sorted(items, key=first_key, reverse=first_reverse)
            for key, reverse in later:
                ordered.sort(key=key, reverse=reverse)
        except TypeError:
            ordered = sorted(items, key=functools.cmp_to_key(compare))
        return ordered

    return sort


def _compile_select(plan: SelectPlan) -> CompiledSelect:
    columns = plan.columns
    ext_columns = plan.ext_columns

    access = _compile_access(plan.access, columns)
    joins = [
        CompiledJoin(
            access=_compile_access(step.access, columns),
            on=_scalar(step.on, columns),
        )
        for step in plan.joins
    ]
    where_fn = _scalar(plan.where, columns)

    group_key = make_tuple_fn(
        tuple(_scalar(expr, columns) for expr in plan.group_exprs)
    )
    group_offsets = _column_offsets(plan.group_exprs, columns)
    agg_specs = tuple(
        (
            agg.name,
            _scalar(agg.arg, columns),
            agg.distinct,
        )
        for agg in plan.aggregates
    )
    count_star_only = bool(agg_specs) and all(
        name == "count" and arg_fn is None and not distinct
        for name, arg_fn, distinct in agg_specs
    )

    post_having_fn = _scalar(plan.post_having, ext_columns)
    project = make_tuple_fn(
        tuple(_scalar(expr, ext_columns) for expr in plan.post_exprs)
    )
    output_offsets = _column_offsets(plan.post_exprs, ext_columns)
    row_project = (
        row_getter(output_offsets) if output_offsets is not None else None
    )

    if plan.post_order:
        order_keys = make_tuple_fn(
            tuple(
                _scalar(expr, ext_columns)
                for expr, _asc in plan.post_order
            )
        )
        order_sort = _order_sort(tuple(asc for _expr, asc in plan.post_order))
    else:
        order_keys = None
        order_sort = None

    point_lookup = (
        isinstance(plan.access, IndexEqScan)
        and not plan.joins
        and plan.where is None
        and not plan.grouped
        and not plan.distinct
        and not plan.post_order
    )

    return CompiledSelect(
        access=access,
        joins=joins,
        where=where_fn,
        group_key=group_key,
        group_offsets=group_offsets,
        agg_specs=agg_specs,
        count_star_only=count_star_only,
        post_having=post_having_fn,
        project=project,
        row_project=row_project,
        order_keys=order_keys,
        order_sort=order_sort,
        point_lookup=point_lookup,
    )


def _group_first(plan: SelectPlan) -> GroupFirst | None:
    """Plan-time rewrite of a grouped join into aggregate-then-probe.

    Fires when every join step is an INNER equality probe of a *unique*
    index with no residual ON, its probe key made of plain outer-table
    columns that are GROUP BY keys, and WHERE, GROUP BY and the aggregates
    read outer-table columns only.  Such a join matches each outer row zero
    or one time and every row of a group alike, so aggregating the outer
    table first and dropping the groups whose key misses yields the same
    groups, the same aggregates and the same first-appearance order — for
    one probe per group.  HAVING, projection and ORDER BY run over the
    extended rows either way.  The oracle (``tests/oracle.py``) keeps the
    join order.

    The outer side keeps the lanes the join plan had — a delta view when one
    matches, else the row closures.  It is not lowered to column vectors:
    measured on Voter's ``trending_counts`` (a ROWS 100 window), the vector
    group-count's four list passes cost more than a 100-row dict loop
    (55.0 vs 43.3 us per call in ``make hotpath``).
    """
    if not plan.joins or not plan.group_exprs:
        return None
    columns = plan.columns
    outer_width = plan.joins[0].base_offset

    def outer_only(expr: Expression) -> bool:
        for node in walk(expr):
            if isinstance(node, ColumnRef):
                if columns.get(node.key, outer_width) >= outer_width:
                    return False
            elif isinstance(
                node, (PlannedInSubquery, PlannedExists, PlannedScalarSubquery)
            ):
                return False
        return True

    evaluated = list(plan.group_exprs)
    evaluated.extend(agg.arg for agg in plan.aggregates if agg.arg is not None)
    if plan.where is not None:
        evaluated.append(plan.where)
    if not all(outer_only(expr) for expr in evaluated):
        return None

    #: combined-row offset of a plain-column group key -> its extended-row slot
    key_slots = {
        columns[expr.key]: slot
        for slot, expr in enumerate(plan.group_exprs)
        if isinstance(expr, ColumnRef)
    }
    probes = []
    for step in plan.joins:
        access = step.access
        if (
            step.left_outer
            or step.on is not None
            or not isinstance(access, IndexEqScan)
            or not access.unique
        ):
            return None
        offsets = _column_offsets(list(access.key_exprs), columns)
        if offsets is None or not all(offset in key_slots for offset in offsets):
            return None
        slots = tuple(key_slots[offset] for offset in offsets)
        probes.append((access.table, access.index, row_getter(slots)))

    outer = dataclasses.replace(plan, joins=[], compiled=None, view_read=None)
    outer.compiled = _compile_select(outer)
    return GroupFirst(outer=outer, probes=tuple(probes))


def _compile_insert(plan: InsertPlan) -> CompiledInsert:
    no_columns: dict[str, int] = {}
    row_fns: list[EvalFn] = []
    param_rows: list[Callable[[tuple], tuple]] | None = []
    for row in plan.rows:
        row_fns.append(
            make_tuple_fn(tuple(_scalar(expr, no_columns) for expr in row))
        )
        if param_rows is not None and row and all(
            isinstance(expr, Parameter) for expr in row
        ):
            param_rows.append(
                row_getter(tuple(expr.index for expr in row))
            )
        else:
            param_rows = None
    if not plan.rows:
        param_rows = None
    identity_slots = plan.slots == list(range(len(plan.slots)))
    return CompiledInsert(
        row_fns=row_fns,
        param_rows=param_rows,
        identity_slots=identity_slots,
    )


def _compile_update(plan: UpdatePlan) -> CompiledUpdate:
    columns = plan.columns
    return CompiledUpdate(
        access=_compile_access(plan.access, columns),
        where=_scalar(plan.where, columns),
        assignments=tuple(
            (offset, _scalar(expr, columns))
            for offset, expr in plan.assignments
        ),
    )


def _compile_delete(plan: DeletePlan) -> CompiledDelete:
    columns = plan.columns
    return CompiledDelete(
        access=_compile_access(plan.access, columns),
        where=_scalar(plan.where, columns),
    )
