"""Closure compilation: flatten expression ASTs into plain Python callables.

The interpreted evaluator (:mod:`repro.hstore.expression`) dispatches through
one ``eval`` method per AST node *per row*.  For the streaming hot path —
thousands of trigger firings per second, each running several statements —
that dispatch dominates the per-tuple transaction cost the paper's throughput
claims hinge on.  This module performs the dispatch exactly once, at plan
time: :func:`compile_expr` walks the tree and returns a flat closure
``fn(ctx) -> value`` whose column references are pre-resolved to row offsets
(``ctx.row[7]`` instead of a dict lookup through ``ctx.resolve``).

Compiled closures are **semantics-identical** to the interpreted evaluator —
including SQL three-valued logic, NULL propagation, ``BindingError`` on
missing parameters, ``TypeSystemError`` on bad comparisons and division by
zero.  The interpreted path stays available behind the engine's
``compile=False`` switch as the correctness oracle; the hypothesis
differential suite (``tests/property/test_prop_compile_diff.py``) fuzzes the
two against each other.

:func:`compile_plan` threads closures through a whole physical plan
(:class:`CompiledSelect` / ``Insert`` / ``Update`` / ``Delete``), including:

* compiled index-probe key builders for every access path;
* a *point-lookup* descriptor when a SELECT is a pure covered equality
  lookup (no joins, no residual WHERE, no grouping/ordering), letting the
  executor skip the scan pipeline entirely;
* tuple-builder specialization for small projection arities and
  ``operator.itemgetter`` fast paths when every output is a plain column
  (projection) or every INSERT value is a plain parameter;
* per-aggregate feed specs (name, compiled argument, DISTINCT) for
  :class:`repro.hstore.aggregate.Accumulator`.

Anything the compiler does not recognize falls back to the node's own bound
``eval`` method — still one call, never a wrong answer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import BindingError, TypeSystemError
from repro.hstore.expression import (
    _ARITH,
    _COMPARATORS,
    _SCALAR_FUNCTIONS,
    _like_match,
    Between,
    BinaryOp,
    BooleanOp,
    CaseExpr,
    ColumnRef,
    Comparison,
    EvalContext,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    NotOp,
    Parameter,
    PlannedExists,
    PlannedInSubquery,
    PlannedScalarSubquery,
    UnaryOp,
    walk,
)
from repro.hstore.planner import (
    DeletePlan,
    IndexEqScan,
    IndexRangeScan,
    InsertPlan,
    Plan,
    SelectPlan,
    UpdatePlan,
)
from repro.hstore.table import row_getter
from repro.hstore.vector import lower_select

__all__ = [
    "EvalFn",
    "compile_expr",
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

#: a compiled expression: one call per evaluation, zero AST dispatch
EvalFn = Callable[[EvalContext], Any]


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


def compile_expr(expr: Expression, columns: dict[str, int]) -> EvalFn:
    """Compile one expression tree against a column map into a closure.

    ``columns`` maps column keys to row offsets exactly as the plan's
    ``EvalContext`` will at execution time; offsets are burned into the
    closure so per-row resolution is a single indexed load.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda ctx: value

    if isinstance(expr, ColumnRef):
        try:
            offset = columns[expr.key]
        except KeyError:
            # unresolvable at compile time: let the interpreted node raise
            # its BindingError at evaluation time, same as the oracle
            return expr.eval
        return lambda ctx: ctx.row[offset]

    if isinstance(expr, Parameter):
        index = expr.index

        def eval_param(ctx: EvalContext) -> Any:
            params = ctx.params
            if index >= len(params):
                raise BindingError(
                    f"statement requires parameter #{index + 1}, "
                    f"only {len(params)} bound"
                )
            return params[index]

        return eval_param

    if isinstance(expr, BinaryOp):
        left_fn = compile_expr(expr.left, columns)
        right_fn = compile_expr(expr.right, columns)
        op = expr.op
        if op == "||":

            def eval_concat(ctx: EvalContext) -> Any:
                left = left_fn(ctx)
                right = right_fn(ctx)
                if left is None or right is None:
                    return None
                return str(left) + str(right)

            return eval_concat
        if op not in _ARITH:
            return expr.eval  # unknown operator: interpreted error path
        arith = _ARITH[op]
        if op in ("/", "%"):

            def eval_div(ctx: EvalContext) -> Any:
                left = left_fn(ctx)
                right = right_fn(ctx)
                if left is None or right is None:
                    return None
                if right == 0:
                    raise TypeSystemError("division by zero")
                return arith(left, right)

            return eval_div

        def eval_arith(ctx: EvalContext) -> Any:
            left = left_fn(ctx)
            right = right_fn(ctx)
            if left is None or right is None:
                return None
            return arith(left, right)

        return eval_arith

    if isinstance(expr, UnaryOp):
        if expr.op != "-":
            return expr.eval
        operand_fn = compile_expr(expr.operand, columns)

        def eval_neg(ctx: EvalContext) -> Any:
            value = operand_fn(ctx)
            return None if value is None else -value

        return eval_neg

    if isinstance(expr, Comparison):
        if expr.op not in _COMPARATORS:
            return expr.eval
        compare = _COMPARATORS[expr.op]
        op = expr.op
        left_fn = compile_expr(expr.left, columns)
        right_fn = compile_expr(expr.right, columns)

        def eval_cmp(ctx: EvalContext) -> Any:
            left = left_fn(ctx)
            right = right_fn(ctx)
            if left is None or right is None:
                return None
            try:
                return compare(left, right)
            except TypeError:
                raise TypeSystemError(
                    f"cannot compare {left!r} {op} {right!r}"
                ) from None

        return eval_cmp

    if isinstance(expr, BooleanOp):
        fns = tuple(compile_expr(op_expr, columns) for op_expr in expr.operands)
        if expr.op == "AND":

            def eval_and(ctx: EvalContext) -> Any:
                saw_null = False
                for fn in fns:
                    value = fn(ctx)
                    if value is None:
                        saw_null = True
                    elif not value:
                        return False
                return None if saw_null else True

            return eval_and
        if expr.op == "OR":

            def eval_or(ctx: EvalContext) -> Any:
                saw_null = False
                for fn in fns:
                    value = fn(ctx)
                    if value is None:
                        saw_null = True
                    elif value:
                        return True
                return None if saw_null else False

            return eval_or
        return expr.eval

    if isinstance(expr, NotOp):
        operand_fn = compile_expr(expr.operand, columns)

        def eval_not(ctx: EvalContext) -> Any:
            value = operand_fn(ctx)
            return None if value is None else not value

        return eval_not

    if isinstance(expr, InList):
        operand_fn = compile_expr(expr.operand, columns)
        option_fns = tuple(compile_expr(opt, columns) for opt in expr.options)
        negated = expr.negated

        def eval_in(ctx: EvalContext) -> Any:
            value = operand_fn(ctx)
            if value is None:
                return None
            saw_null = False
            for option_fn in option_fns:
                candidate = option_fn(ctx)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return not negated
            if saw_null:
                return None
            return negated

        return eval_in

    if isinstance(expr, Between):
        operand_fn = compile_expr(expr.operand, columns)
        low_fn = compile_expr(expr.low, columns)
        high_fn = compile_expr(expr.high, columns)
        negated = expr.negated

        def eval_between(ctx: EvalContext) -> Any:
            value = operand_fn(ctx)
            low = low_fn(ctx)
            high = high_fn(ctx)
            if value is None or low is None or high is None:
                return None
            result = low <= value <= high
            return not result if negated else result

        return eval_between

    if isinstance(expr, Like):
        operand_fn = compile_expr(expr.operand, columns)
        pattern_fn = compile_expr(expr.pattern, columns)
        negated = expr.negated

        def eval_like(ctx: EvalContext) -> Any:
            value = operand_fn(ctx)
            pattern = pattern_fn(ctx)
            if value is None or pattern is None:
                return None
            result = _like_match(str(value), str(pattern))
            return not result if negated else result

        return eval_like

    if isinstance(expr, IsNull):
        operand_fn = compile_expr(expr.operand, columns)
        if expr.negated:
            return lambda ctx: operand_fn(ctx) is not None
        return lambda ctx: operand_fn(ctx) is None

    if isinstance(expr, FunctionCall):
        name = expr.name.lower()
        if name not in _SCALAR_FUNCTIONS:
            return expr.eval  # unknown function: interpreted error path
        fn = _SCALAR_FUNCTIONS[name]
        arg_fns = tuple(compile_expr(arg, columns) for arg in expr.args)
        if name == "coalesce":

            def eval_coalesce(ctx: EvalContext) -> Any:
                for arg_fn in arg_fns:
                    value = arg_fn(ctx)
                    if value is not None:
                        return value
                return None

            return eval_coalesce

        def eval_function(ctx: EvalContext) -> Any:
            values = [arg_fn(ctx) for arg_fn in arg_fns]
            if any(value is None for value in values):
                return None
            return fn(*values)

        return eval_function

    if isinstance(expr, CaseExpr):
        when_fns = tuple(
            (compile_expr(when, columns), compile_expr(then, columns))
            for when, then in expr.whens
        )
        default_fn = (
            compile_expr(expr.default, columns)
            if expr.default is not None
            else None
        )
        if expr.operand is not None:
            operand_fn = compile_expr(expr.operand, columns)

            def eval_simple_case(ctx: EvalContext) -> Any:
                subject = operand_fn(ctx)
                for when_fn, then_fn in when_fns:
                    candidate = when_fn(ctx)
                    if subject is not None and candidate == subject:
                        return then_fn(ctx)
                return default_fn(ctx) if default_fn is not None else None

            return eval_simple_case

        def eval_searched_case(ctx: EvalContext) -> Any:
            for when_fn, then_fn in when_fns:
                if when_fn(ctx) is True:
                    return then_fn(ctx)
            return default_fn(ctx) if default_fn is not None else None

        return eval_searched_case

    if isinstance(expr, PlannedInSubquery):
        operand_fn = compile_expr(expr.operand, columns)
        inner_plan = expr.plan
        outer_offsets = expr.outer_offsets
        negated = expr.negated

        def eval_in_subquery(ctx: EvalContext) -> Any:
            if ctx.executor is None:
                return expr.eval(ctx)  # raises the interpreted PlanningError
            value = operand_fn(ctx)
            if value is None:
                return None
            result = ctx.executor.execute_select_plan(
                inner_plan,
                tuple(ctx.params)
                + tuple(ctx.row[offset] for offset in outer_offsets),
            )
            saw_null = False
            for (candidate,) in result.rows:
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return not negated
            if saw_null:
                return None
            return negated

        return eval_in_subquery

    if isinstance(expr, PlannedExists):
        inner_plan = expr.plan
        outer_offsets = expr.outer_offsets

        def eval_exists(ctx: EvalContext) -> Any:
            if ctx.executor is None:
                return expr.eval(ctx)
            result = ctx.executor.execute_select_plan(
                inner_plan,
                tuple(ctx.params)
                + tuple(ctx.row[offset] for offset in outer_offsets),
            )
            return bool(result.rows)

        return eval_exists

    if isinstance(expr, PlannedScalarSubquery):
        inner_plan = expr.plan
        outer_offsets = expr.outer_offsets

        def eval_scalar_subquery(ctx: EvalContext) -> Any:
            if ctx.executor is None:
                return expr.eval(ctx)
            result = ctx.executor.execute_select_plan(
                inner_plan,
                tuple(ctx.params)
                + tuple(ctx.row[offset] for offset in outer_offsets),
            )
            if not result.rows:
                return None
            if len(result.rows) > 1:
                raise TypeSystemError(
                    f"scalar subquery returned {len(result.rows)} rows"
                )
            return result.rows[0][0]

        return eval_scalar_subquery

    # AggregateCall, Star, unplanned subqueries, future node types: the
    # interpreted eval raises the right error (or is never reached).
    return expr.eval


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
    #: ORDER BY sort-key builder + one stable sort pass per key over the
    #: precomputed key tuples (see :func:`_order_passes`)
    order_keys: EvalFn | None
    order_passes: tuple[tuple[Callable[[Any], Any], bool], ...]
    #: pure covered equality lookup: skip the scan pipeline entirely
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


def _compile_access(access: Any, columns: dict[str, int]) -> CompiledAccess:
    if isinstance(access, IndexEqScan):
        key_fns = tuple(compile_expr(expr, columns) for expr in access.key_exprs)
        return CompiledAccess(
            kind="eq",
            key_fn=make_tuple_fn(key_fns),
            key_offsets=_column_offsets(list(access.key_exprs), columns),
        )
    if isinstance(access, IndexRangeScan):
        return CompiledAccess(
            kind="range",
            low_fn=(
                compile_expr(access.low, columns)
                if access.low is not None
                else None
            ),
            high_fn=(
                compile_expr(access.high, columns)
                if access.high is not None
                else None
            ),
        )
    return CompiledAccess(kind="seq")


def _order_passes(
    ascending: tuple[bool, ...]
) -> tuple[tuple[Callable[[Any], Any], bool], ...]:
    """``(key, reverse)`` per ORDER BY key, last key first, for stable
    ``list.sort`` passes over ``(key_tuple, ext_row, out)`` sort items.

    Same order as the interpreted ``_make_comparator``: NULLs sort last in
    both directions (the NULL flag leads each pass key and flips with
    ``reverse``), and ties keep the order the later keys' passes left.
    """
    passes = []
    for i in reversed(range(len(ascending))):
        if ascending[i]:
            passes.append((lambda item, i=i: ((v := item[0][i]) is None, v), False))
        else:
            passes.append((lambda item, i=i: ((v := item[0][i]) is not None, v), True))
    return tuple(passes)


def _compile_select(plan: SelectPlan) -> CompiledSelect:
    columns = plan.columns
    ext_columns = plan.ext_columns

    access = _compile_access(plan.access, columns)
    joins = [
        CompiledJoin(
            access=_compile_access(step.access, columns),
            on=compile_expr(step.on, columns) if step.on is not None else None,
        )
        for step in plan.joins
    ]
    where_fn = (
        compile_expr(plan.where, columns) if plan.where is not None else None
    )

    group_key = make_tuple_fn(
        tuple(compile_expr(expr, columns) for expr in plan.group_exprs)
    )
    group_offsets = _column_offsets(plan.group_exprs, columns)
    agg_specs = tuple(
        (
            agg.name,
            compile_expr(agg.arg, columns) if agg.arg is not None else None,
            agg.distinct,
        )
        for agg in plan.aggregates
    )
    count_star_only = bool(agg_specs) and all(
        name == "count" and arg_fn is None and not distinct
        for name, arg_fn, distinct in agg_specs
    )

    post_having_fn = (
        compile_expr(plan.post_having, ext_columns)
        if plan.post_having is not None
        else None
    )
    project = make_tuple_fn(
        tuple(compile_expr(expr, ext_columns) for expr in plan.post_exprs)
    )
    output_offsets = _column_offsets(plan.post_exprs, ext_columns)
    row_project = (
        row_getter(output_offsets) if output_offsets is not None else None
    )

    if plan.post_order:
        order_keys = make_tuple_fn(
            tuple(
                compile_expr(expr, ext_columns)
                for expr, _asc in plan.post_order
            )
        )
        order_passes = _order_passes(tuple(asc for _expr, asc in plan.post_order))
    else:
        order_keys = None
        order_passes = ()

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
        order_passes=order_passes,
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
    extended rows either way.  Compiled lowering only: ``compile=False``
    keeps the join order as the oracle.

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
            make_tuple_fn(tuple(compile_expr(expr, no_columns) for expr in row))
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
        where=(
            compile_expr(plan.where, columns)
            if plan.where is not None
            else None
        ),
        assignments=tuple(
            (offset, compile_expr(expr, columns))
            for offset, expr in plan.assignments
        ),
    )


def _compile_delete(plan: DeletePlan) -> CompiledDelete:
    columns = plan.columns
    return CompiledDelete(
        access=_compile_access(plan.access, columns),
        where=(
            compile_expr(plan.where, columns)
            if plan.where is not None
            else None
        ),
    )
