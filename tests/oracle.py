"""The tree-walking interpreter: the oracle of the differential suites.

The engine lowers every expression once, at plan time, into its statement's
generated kernel (``repro.hstore.compile.lower_expr``) and has no other way
to evaluate one.  This module is the independent reference those kernels
are checked against: :func:`evaluate` walks the AST per row, resolving
column names through a dict, and the runners below drive scan, join,
aggregate, sort and DML with it — the semantics the engine's lanes must
reproduce row for row, error for error.

:func:`oracle_arm` points an engine's plans at these runners, from the
outside.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import BindingError, PlanningError, StorageError, TypeSystemError
from repro.hstore.compile import Source, lower_expr
from repro.hstore.engine import HStoreEngine
from repro.hstore.executor import ExecutionEngine, ResultSet
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
    _like_match,
    walk,
)
from repro.hstore.planner import (
    AccessPath,
    DeletePlan,
    IndexEqScan,
    IndexRangeScan,
    InsertPlan,
    SelectPlan,
    SeqScan,
    UpdatePlan,
)
from repro.hstore.table import Row
from repro.hstore.txn import TransactionContext

__all__ = ["OracleContext", "evaluate", "compile_expression", "oracle_arm"]


@dataclass
class OracleContext:
    """What :func:`evaluate` reads: the current ``row``, the statement
    ``params``, the ``executor`` planned subqueries run their inner plans
    through, and ``columns``, which maps a fully-qualified column key
    (``"alias.column"``) and, when unambiguous, the bare column name to its
    position in ``row``.
    """

    row: tuple[Any, ...] = ()
    params: tuple[Any, ...] = ()
    executor: Any = None
    columns: dict[str, int] = field(default_factory=dict)

    def resolve(self, name: str) -> Any:
        try:
            return self.row[self.columns[name]]
        except KeyError:
            raise BindingError(
                f"cannot resolve column {name!r}; known: {sorted(self.columns)}"
            ) from None

    def with_row(self, row: tuple[Any, ...]) -> "OracleContext":
        return OracleContext(
            columns=self.columns,
            row=row,
            params=self.params,
            executor=self.executor,
        )


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def evaluate(expr: Expression, ctx: OracleContext) -> Any:
    """Evaluate ``expr`` against one row, walking the tree."""
    return _EVAL[type(expr)](expr, ctx)


def compile_expression(expr: Expression, columns: dict[str, int]) -> Callable[..., Any]:
    """The engine's lowering of ``expr`` alone, compiled as a function
    ``(row, params, ee=None) -> value``: what :func:`evaluate` is held to
    node by node.

    A statement's parameters are counted before it runs; here a missing one
    raises the ``BindingError`` :func:`evaluate` raises when it reaches it.
    """
    src = Source()
    src.define("expression", "row, params, ee", lower_expr(expr, columns, src))
    kernel = src.build()["expression"]
    indexes = [node.index for node in walk(expr) if isinstance(node, Parameter)]

    def run(row: tuple = (), params: tuple = (), ee: Any = None) -> Any:
        for index in indexes:
            if index >= len(params):
                raise BindingError(
                    f"statement requires parameter #{index + 1}, "
                    f"only {len(params)} bound"
                )
        return kernel(row, params, ee)

    return run


def _literal(self: Literal, ctx: OracleContext) -> Any:
    return self.value


def _column_ref(self: ColumnRef, ctx: OracleContext) -> Any:
    return ctx.resolve(self.key)


def _parameter(self: Parameter, ctx: OracleContext) -> Any:
    if self.index >= len(ctx.params):
        raise BindingError(
            f"statement requires parameter #{self.index + 1}, "
            f"only {len(ctx.params)} bound"
        )
    return ctx.params[self.index]


def _binary_op(self: BinaryOp, ctx: OracleContext) -> Any:
    left = evaluate(self.left, ctx)
    right = evaluate(self.right, ctx)
    if left is None or right is None:
        return None
    if self.op == "||":
        return str(left) + str(right)
    try:
        fn = _ARITH[self.op]
    except KeyError:  # pragma: no cover - parser only emits known ops
        raise PlanningError(f"unknown binary operator {self.op!r}") from None
    if self.op in ("/", "%") and right == 0:
        raise TypeSystemError("division by zero")
    return fn(left, right)


def _unary_op(self: UnaryOp, ctx: OracleContext) -> Any:
    value = evaluate(self.operand, ctx)
    if value is None:
        return None
    if self.op == "-":
        return -value
    raise PlanningError(f"unknown unary operator {self.op!r}")  # pragma: no cover


def _comparison(self: Comparison, ctx: OracleContext) -> Any:
    left = evaluate(self.left, ctx)
    right = evaluate(self.right, ctx)
    if left is None or right is None:
        return None
    try:
        return _COMPARATORS[self.op](left, right)
    except KeyError:  # pragma: no cover
        raise PlanningError(f"unknown comparator {self.op!r}") from None
    except TypeError:
        raise TypeSystemError(
            f"cannot compare {left!r} {self.op} {right!r}"
        ) from None


def _boolean_op(self: BooleanOp, ctx: OracleContext) -> Any:
    saw_null = False
    for operand in self.operands:
        value = evaluate(operand, ctx)
        if value is None:
            saw_null = True
        elif self.op == "AND" and not value:
            return False
        elif self.op == "OR" and value:
            return True
    if saw_null:
        return None
    return self.op == "AND"


def _not_op(self: NotOp, ctx: OracleContext) -> Any:
    value = evaluate(self.operand, ctx)
    if value is None:
        return None
    return not value


def _in_list(self: InList, ctx: OracleContext) -> Any:
    value = evaluate(self.operand, ctx)
    if value is None:
        return None
    saw_null = False
    found = False
    for option in self.options:
        candidate = evaluate(option, ctx)
        if candidate is None:
            saw_null = True
        elif candidate == value:
            found = True
            break
    if found:
        return not self.negated
    if saw_null:
        return None
    return self.negated


def _between(self: Between, ctx: OracleContext) -> Any:
    value = evaluate(self.operand, ctx)
    low = evaluate(self.low, ctx)
    high = evaluate(self.high, ctx)
    if value is None or low is None or high is None:
        return None
    result = low <= value <= high
    return not result if self.negated else result


def _like(self: Like, ctx: OracleContext) -> Any:
    value = evaluate(self.operand, ctx)
    pattern = evaluate(self.pattern, ctx)
    if value is None or pattern is None:
        return None
    result = _like_match(str(value), str(pattern))
    return not result if self.negated else result


def _is_null(self: IsNull, ctx: OracleContext) -> Any:
    value = evaluate(self.operand, ctx)
    return (value is not None) if self.negated else (value is None)


def _function_call(self: FunctionCall, ctx: OracleContext) -> Any:
    try:
        fn = _SCALAR_FUNCTIONS[self.name.lower()]
    except KeyError:
        raise PlanningError(f"unknown function {self.name!r}") from None
    values = [evaluate(arg, ctx) for arg in self.args]
    if self.name.lower() != "coalesce" and any(value is None for value in values):
        return None
    return fn(*values)


def _aggregate_call(self: AggregateCall, ctx: OracleContext) -> Any:
    raise PlanningError(
        f"aggregate {self.name.upper()} evaluated outside GROUP BY context"
    )


def _in_subquery(self: InSubquery, ctx: OracleContext) -> Any:  # pragma: no cover
    raise PlanningError("IN (SELECT ...) must be planned before evaluation")


def _exists(self: Exists, ctx: OracleContext) -> Any:  # pragma: no cover
    raise PlanningError("EXISTS must be planned before evaluation")


def _subquery_params(ctx: OracleContext, outer_offsets: tuple[int, ...]) -> tuple:
    """Statement params extended with the correlated outer-column values."""
    return tuple(ctx.params) + tuple(ctx.row[offset] for offset in outer_offsets)


def _planned_in_subquery(self: PlannedInSubquery, ctx: OracleContext) -> Any:
    if ctx.executor is None:
        raise PlanningError("subquery evaluation requires an executor")
    value = evaluate(self.operand, ctx)
    if value is None:
        return None
    result = ctx.executor.execute_select_plan(
        self.plan, _subquery_params(ctx, self.outer_offsets)
    )
    saw_null = False
    for (candidate,) in result.rows:
        if candidate is None:
            saw_null = True
        elif candidate == value:
            return not self.negated
    if saw_null:
        return None
    return self.negated


def _planned_exists(self: PlannedExists, ctx: OracleContext) -> Any:
    if ctx.executor is None:
        raise PlanningError("subquery evaluation requires an executor")
    result = ctx.executor.execute_select_plan(
        self.plan, _subquery_params(ctx, self.outer_offsets)
    )
    return bool(result.rows)


def _scalar_subquery(self: ScalarSubquery, ctx: OracleContext) -> Any:  # pragma: no cover
    raise PlanningError("scalar subquery must be planned before evaluation")


def _planned_scalar_subquery(self: PlannedScalarSubquery, ctx: OracleContext) -> Any:
    if ctx.executor is None:
        raise PlanningError("subquery evaluation requires an executor")
    result = ctx.executor.execute_select_plan(
        self.plan, _subquery_params(ctx, self.outer_offsets)
    )
    if not result.rows:
        return None
    if len(result.rows) > 1:
        raise TypeSystemError(
            f"scalar subquery returned {len(result.rows)} rows"
        )
    return result.rows[0][0]


def _case_expr(self: CaseExpr, ctx: OracleContext) -> Any:
    if self.operand is not None:
        subject = evaluate(self.operand, ctx)
        for when, then in self.whens:
            candidate = evaluate(when, ctx)
            if subject is not None and candidate == subject:
                return evaluate(then, ctx)
    else:
        for when, then in self.whens:
            if evaluate(when, ctx) is True:
                return evaluate(then, ctx)
    if self.default is not None:
        return evaluate(self.default, ctx)
    return None


def _star(self: Star, ctx: OracleContext) -> Any:  # pragma: no cover - planner expands
    raise PlanningError("* must be expanded by the planner before evaluation")


_EVAL: dict[type, Callable[[Any, OracleContext], Any]] = {
    Literal: _literal,
    ColumnRef: _column_ref,
    Parameter: _parameter,
    BinaryOp: _binary_op,
    UnaryOp: _unary_op,
    Comparison: _comparison,
    BooleanOp: _boolean_op,
    NotOp: _not_op,
    InList: _in_list,
    Between: _between,
    Like: _like,
    IsNull: _is_null,
    FunctionCall: _function_call,
    AggregateCall: _aggregate_call,
    InSubquery: _in_subquery,
    Exists: _exists,
    PlannedInSubquery: _planned_in_subquery,
    PlannedExists: _planned_exists,
    ScalarSubquery: _scalar_subquery,
    PlannedScalarSubquery: _planned_scalar_subquery,
    CaseExpr: _case_expr,
    Star: _star,
}


# ---------------------------------------------------------------------------
# Statements: ``plan.run(ee, plan, params, txn)`` runners
# ---------------------------------------------------------------------------


def _iter_access(
    self: ExecutionEngine,
    access: AccessPath,
    params: tuple[Any, ...],
    outer_columns: dict[str, int] | None = None,
    outer_row: tuple[Any, ...] = (),
    probe_ctx: OracleContext | None = None,
) -> Iterator[tuple[int, Row]]:
    table = self.table(access.table)

    if isinstance(access, SeqScan):
        yield from table.scan()
        return

    if probe_ctx is None:
        probe_ctx = OracleContext(
            columns=outer_columns or {}, row=outer_row, params=params,
            executor=self,
        )

    if isinstance(access, IndexEqScan):
        key = tuple(evaluate(expr, probe_ctx) for expr in access.key_exprs)
        index = table.index(access.index)
        for rowid in sorted(index.lookup(key)):
            yield rowid, table.get(rowid)
        return

    if isinstance(access, IndexRangeScan):
        index = table.index(access.index)
        low = (
            (evaluate(access.low, probe_ctx),) if access.low is not None else None
        )
        high = (
            (evaluate(access.high, probe_ctx),) if access.high is not None else None
        )
        # A NULL bound matches nothing (SQL comparison semantics).
        if (access.low is not None and low == (None,)) or (
            access.high is not None and high == (None,)
        ):
            return
        for _key, rowids in index.range_scan(
            low,
            high,
            low_inclusive=access.low_inclusive,
            high_inclusive=access.high_inclusive,
        ):
            for rowid in sorted(rowids):
                yield rowid, table.get(rowid)
        return

    raise StorageError(f"unknown access path {type(access).__name__}")  # pragma: no cover


def _select_interpreted(
    self: ExecutionEngine, plan: SelectPlan, params: tuple[Any, ...], _txn: object = None
) -> ResultSet:
    combined_rows = _combined_rows(self, plan, params)

    if plan.grouped:
        ext_rows = _aggregate(self, plan, params, combined_rows)
    else:
        ext_rows = combined_rows

    # one reusable context per statement: mutate .row instead of
    # allocating a context per row (same trick as the compiled path)
    ctx = OracleContext(columns=plan.ext_columns, params=params, executor=self)

    if plan.post_having is not None:
        filtered: list[tuple[Any, ...]] = []
        for row in ext_rows:
            ctx.row = row
            if evaluate(plan.post_having, ctx) is True:
                filtered.append(row)
        ext_rows = filtered

    produced: list[tuple[tuple[Any, ...], tuple[Any, ...]]] = []
    for ext_row in ext_rows:
        ctx.row = ext_row
        out = tuple(evaluate(expr, ctx) for expr in plan.post_exprs)
        produced.append((ext_row, out))

    if plan.distinct:
        seen: set[tuple[Any, ...]] = set()
        unique: list[tuple[tuple[Any, ...], tuple[Any, ...]]] = []
        for ext_row, out in produced:
            if out not in seen:
                seen.add(out)
                unique.append((ext_row, out))
        produced = unique

    if plan.post_order:
        comparator = _make_comparator(self, plan, params)
        produced.sort(key=functools.cmp_to_key(comparator))

    rows = [out for _ext, out in produced]
    if plan.offset:
        rows = rows[plan.offset :]
    if plan.limit is not None:
        rows = rows[: plan.limit]
    return ResultSet(columns=list(plan.output_names), rows=rows)


def _combined_rows(
    self: ExecutionEngine, plan: SelectPlan, params: tuple[Any, ...]
) -> list[tuple[Any, ...]]:
    """Drive the scan + join pipeline; returns fully joined rows."""
    ctx = OracleContext(columns=plan.columns, params=params, executor=self)
    rows: list[tuple[Any, ...]] = [
        row for _rowid, row in _iter_access(self, plan.access, params)
    ]

    # one reusable probe context per statement — index probes of inner
    # join sides evaluate against the current outer row via .row
    probe_ctx = OracleContext(
        columns=plan.columns, params=params, executor=self
    )
    for step in plan.joins:
        joined: list[tuple[Any, ...]] = []
        null_pad = (None,) * step.inner_width
        for outer in rows:
            matched = False
            probe_ctx.row = outer
            for _rowid, inner in _iter_access(
                self, step.access, params, probe_ctx=probe_ctx
            ):
                candidate = outer + inner
                if step.on is not None:
                    ctx.row = candidate
                    if evaluate(step.on, ctx) is not True:
                        continue
                matched = True
                joined.append(candidate)
            if step.left_outer and not matched:
                joined.append(outer + null_pad)
        rows = joined

    if plan.where is not None:
        filtered: list[tuple[Any, ...]] = []
        for row in rows:
            ctx.row = row
            if evaluate(plan.where, ctx) is True:
                filtered.append(row)
        rows = filtered
    return rows


class Accumulator:
    """Incremental state for one aggregate call over one group, fed one row
    at a time: the reference :func:`repro.hstore.aggregate.fold` is checked
    against (``tests/hstore/test_aggregate.py``) and :func:`_aggregate`'s
    aggregate step."""

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


def _aggregate(
    self: ExecutionEngine,
    plan: SelectPlan,
    params: tuple[Any, ...],
    rows: list[tuple[Any, ...]],
) -> list[tuple[Any, ...]]:
    ctx = OracleContext(columns=plan.columns, params=params, executor=self)
    specs = [
        (
            agg.name,
            functools.partial(evaluate, agg.arg) if agg.arg is not None else None,
            agg.distinct,
        )
        for agg in plan.aggregates
    ]
    groups: dict[tuple[Any, ...], list[Accumulator]] = {}
    order: list[tuple[Any, ...]] = []

    for row in rows:
        ctx.row = row
        key = tuple(evaluate(expr, ctx) for expr in plan.group_exprs)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = [Accumulator(*spec) for spec in specs]
            groups[key] = accumulators
            order.append(key)
        for accumulator in accumulators:
            accumulator.feed(ctx)

    # Global aggregation over an empty input still yields one row.
    if not groups and not plan.group_exprs:
        groups[()] = [Accumulator(*spec) for spec in specs]
        order.append(())

    ext_rows: list[tuple[Any, ...]] = []
    for key in order:
        values = tuple(acc.result() for acc in groups[key])
        ext_rows.append(key + values)
    return ext_rows


def _make_comparator(
    self: ExecutionEngine, plan: SelectPlan, params: tuple[Any, ...]
) -> Callable[[Any, Any], int]:
    left_ctx = OracleContext(
        columns=plan.ext_columns, params=params, executor=self
    )
    right_ctx = OracleContext(
        columns=plan.ext_columns, params=params, executor=self
    )
    order = plan.post_order

    def compare(
        left: tuple[tuple[Any, ...], tuple[Any, ...]],
        right: tuple[tuple[Any, ...], tuple[Any, ...]],
    ) -> int:
        left_ctx.row = left[0]
        right_ctx.row = right[0]
        for expr, ascending in order:
            a = evaluate(expr, left_ctx)
            b = evaluate(expr, right_ctx)
            if a is None and b is None:
                continue
            if a is None:
                return 1  # NULLs sort last
            if b is None:
                return -1
            if a == b:
                continue
            result = -1 if a < b else 1
            return result if ascending else -result
        return 0

    return compare


def _insert_interpreted(
    self: ExecutionEngine, plan: InsertPlan, params: tuple[Any, ...], txn: TransactionContext
) -> int:
    table = self.table(plan.table)
    value_rows: list[tuple[Any, ...]]
    if plan.select is not None:
        source = plan.select
        value_rows = list(source.run(self, source, params, None).rows)
    else:
        ctx = OracleContext(columns={}, params=params, executor=self)
        value_rows = [
            tuple(evaluate(expr, ctx) for expr in row) for row in plan.rows
        ]

    new_rowids: list[int] = []
    for values in value_rows:
        full_row = [
            values[slot] if slot is not None else column.default
            for slot, column in zip(plan.slots, table.schema)
        ]
        rowid = table.insert(full_row)
        txn.record_insert(plan.table, rowid)
        new_rowids.append(rowid)

    self.stats.rows_inserted += len(new_rowids)
    self._fire_insert_hooks(txn, plan.table, new_rowids)
    return len(new_rowids)


def _update_interpreted(
    self: ExecutionEngine, plan: UpdatePlan, params: tuple[Any, ...], txn: TransactionContext
) -> int:
    table = self.table(plan.table)
    ctx = OracleContext(columns=plan.columns, params=params, executor=self)

    matches: list[int] = []
    for rowid, row in _iter_access(self, plan.access, params):
        if plan.where is None:
            matches.append(rowid)
        else:
            ctx.row = row
            if evaluate(plan.where, ctx) is True:
                matches.append(rowid)

    for rowid in matches:
        old_row = table.get(rowid)
        ctx.row = old_row
        new_row = list(old_row)
        for offset, expr in plan.assignments:
            new_row[offset] = evaluate(expr, ctx)
        before = table.update(rowid, new_row)
        txn.record_update(plan.table, rowid, before)

    self.stats.rows_updated += len(matches)
    return len(matches)


def _delete_interpreted(
    self: ExecutionEngine, plan: DeletePlan, params: tuple[Any, ...], txn: TransactionContext
) -> int:
    table = self.table(plan.table)
    ctx = OracleContext(columns=plan.columns, params=params, executor=self)

    matches: list[int] = []
    for rowid, row in _iter_access(self, plan.access, params):
        if plan.where is None:
            matches.append(rowid)
        else:
            ctx.row = row
            if evaluate(plan.where, ctx) is True:
                matches.append(rowid)

    for rowid in matches:
        before = table.delete(rowid)
        txn.record_delete(plan.table, rowid, before)

    self.stats.rows_deleted += len(matches)
    return len(matches)


_RUNNERS: dict[type, Callable[..., Any]] = {
    SelectPlan: _select_interpreted,
    InsertPlan: _insert_interpreted,
    UpdatePlan: _update_interpreted,
    DeletePlan: _delete_interpreted,
}


def oracle_arm(engine: HStoreEngine) -> HStoreEngine:
    """Run every plan ``engine`` builds on the interpreter, for its lifetime.

    Each plan is finished as usual and then re-bound to the runner above
    for its type, so it never reads a delta view or runs a kernel: the same
    statements, answered by the oracle.  Other engines alive at the same
    time are not affected.
    """
    finish = engine.planner._finish

    def finish_on_oracle(plan):
        finish(plan)
        run = _RUNNERS.get(type(plan))
        if run is not None:
            plan.run = run

    engine.planner._finish = finish_on_oracle
    return engine
