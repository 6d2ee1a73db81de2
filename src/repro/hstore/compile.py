"""Plan lowering: one generated kernel per statement.

:func:`lower_expr` walks an expression tree once, at plan time, and returns
Python source: one expression over the locals ``row`` (the current row),
``params`` (the statement's parameters) and ``ee`` (the executor planned
subqueries run their inner plans through).  Column references become row
offsets (``row[7]``) and parameters ``params[2]``; every other value the
expression needs — each SQL literal, each inner plan — is a name in the
kernel's namespace (:class:`Source`), so no text from SQL is ever spliced
into source.

What a node *means* is written once, in :mod:`repro.hstore.expression`: the
lowering spells the NULL rule (a NULL operand yields NULL, every operand
evaluated first), three-valued AND/OR and the short-circuits of IN, CASE
and COALESCE as Python conditionals, and calls the kernels there for the
rest — ``_div`` / ``_mod`` raise ``TypeSystemError("division by zero")``,
``compare`` turns an ordered comparison's ``TypeError`` into
``TypeSystemError("cannot compare …")``.  A node that can only raise — an
unresolvable column, an unknown operator or function, an aggregate outside
GROUP BY — lowers to a call that raises the oracle's error when evaluated.
``tests/oracle.py`` is the tree-walking reference the kernels are held to.

:func:`compile_plan` emits, per statement, the functions of every per-row
stage the executor drives — probe keys, filter, group-key and
aggregate-argument columns (folded by
:func:`repro.hstore.aggregate.fold_groups`), projection, ORDER BY keys, SET
values, INSERT tuples — and builds them with one ``compile()``.  A stage
over many rows is one comprehension, so a scan costs one Python frame per
stage, not one per expression node per row.  ``EXPLAIN`` prints the source.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import BindingError, PlanningError, TypeSystemError
from repro.hstore.aggregate import fold_groups
from repro.hstore.expression import (
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
    _concat,
    _div,
    _like,
    _mod,
    _not_like,
    compare,
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
from repro.hstore.types import compile_source

__all__ = [
    "Source",
    "lower_expr",
    "compile_plan",
    "CompiledAccess",
    "GroupFirst",
    "CompiledSelect",
    "CompiledInsert",
    "CompiledUpdate",
    "CompiledDelete",
]

#: the arguments of a stage over one row, and of a stage over many
_ROW = "row, params, ee"
_ROWS = "rows, params, ee"

#: expression levels one function nests at most.  A level adds at most three
#: parentheses (see :meth:`Source.strict`) and a stage a few more, so a
#: function stays well inside CPython's limit of 200 nested parentheses.
_MAX_DEPTH = 40


# ---------------------------------------------------------------------------
# Run-time helpers a kernel calls by name
# ---------------------------------------------------------------------------


def _raise(error: type[Exception], message: str) -> Any:
    raise error(message)


def _membership(value: Any, rows: list[tuple[Any, ...]], negated: bool) -> Any:
    """``value [NOT] IN`` a subquery's one-column rows, ``value`` non-NULL:
    a match decides, else a NULL candidate makes the answer NULL."""
    saw_null = False
    for row in rows:
        candidate = row[0]
        if candidate is None:
            saw_null = True
        elif candidate == value:
            return not negated
    return None if saw_null else negated


def _scalar_value(rows: list[tuple[Any, ...]]) -> Any:
    if not rows:
        return None
    if len(rows) > 1:
        raise TypeSystemError(f"scalar subquery returned {len(rows)} rows")
    return rows[0][0]


#: every kernel starts from these names
_HELPERS: dict[str, Any] = {
    "_raise": _raise,
    "_membership": _membership,
    "_scalar_value": _scalar_value,
    "_compare": compare,
    "_div": _div,
    "_mod": _mod,
    "_concat": _concat,
    "_like": _like,
    "_not_like": _not_like,
    "_fold_groups": fold_groups,
    **{f"_fn_{name}": fn for name, fn in _SCALAR_FUNCTIONS.items()},
}

#: how each strict operator is spelled over its operands' temps
_BINARY = {
    "+": "{0} + {1}",
    "-": "{0} - {1}",
    "*": "{0} * {1}",
    "/": "_div({0}, {1})",
    "%": "_mod({0}, {1})",
    "||": "_concat({0}, {1})",
}
#: ``=`` and ``<>`` never raise; an ordered comparison of two values of one
#: class runs inline, any other pair through ``compare`` for SQL's error
_ORDERED = "{0} %s {1} if {0}.__class__ is {1}.__class__ else _compare(%r, {0}, {1})"
_COMPARISON = {
    "=": "{0} == {1}",
    "<>": "{0} != {1}",
    "!=": "{0} != {1}",
    **{op: _ORDERED % (op, op) for op in ("<", "<=", ">", ">=")},
}

#: nodes the planner rewrites away before anything is evaluated
_UNPLANNED = {
    InSubquery: "IN (SELECT ...) must be planned before evaluation",
    Exists: "EXISTS must be planned before evaluation",
    ScalarSubquery: "scalar subquery must be planned before evaluation",
    Star: "* must be expanded by the planner before evaluation",
}


def _tuple(items: list[str]) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


# ---------------------------------------------------------------------------
# The lowering
# ---------------------------------------------------------------------------


class Source:
    """One statement's kernel under construction: its functions' source and
    the namespace they are compiled against."""

    def __init__(self) -> None:
        self.namespace: dict[str, Any] = dict(_HELPERS)
        self.functions: list[str] = []
        self.text = ""
        #: the names bound to a non-NULL literal: they need no NULL test
        self.non_null: set[str] = set()
        self._bound = 0
        self._temps = 0
        self._subs = 0

    def bind(self, value: Any) -> str:
        """A fresh name for ``value`` in the namespace."""
        name = f"_k{self._bound}"
        self._bound += 1
        self.namespace[name] = value
        return name

    def literal(self, value: Any) -> str:
        name = self.bind(value)
        if value is not None:
            self.non_null.add(name)
        return name

    def temp(self) -> str:
        """A fresh local, assigned by ``:=`` where an operand is evaluated."""
        self._temps += 1
        return f"_t{self._temps}"

    def fail(self, error: type[Exception], message: str) -> str:
        return f"_raise({self.bind(error)}, {self.bind(message)})"

    def define(self, name: str, args: str, *lines: str) -> None:
        """Add ``def name(args)``: ``lines`` run in order, the last is returned."""
        body = [*lines[:-1], f"return {lines[-1]}"]
        self.functions.append(
            f"def {name}({args}):\n" + "".join(f"    {line}\n" for line in body)
        )

    def function(self, body: str) -> str:
        """``body`` as a function of the row of its own: a call to it."""
        self._subs += 1
        name = f"_sub{self._subs}"
        self.define(name, _ROW, body)
        return f"{name}(row, params, ee)"

    def build(self) -> dict[str, Any]:
        """Compile every function defined so far, once; returns the namespace."""
        self.text = "\n".join(self.functions)
        return compile_source(self.text, self.namespace)

    # -- the shapes nodes lower to -------------------------------------------

    def strict(self, template: str, *operands: str) -> str:
        """``template`` over the operands' values, NULL if any is NULL; every
        operand is evaluated first, so its error surfaces beside a NULL."""
        values, nulls = [], []
        for operand in operands:
            if operand in self.non_null:
                values.append(operand)
            else:
                values.append(self.temp())
                nulls.append(f"(({values[-1]} := {operand}) is None)")
        if not nulls:
            return f"({template.format(*values)})"
        return f"(None if {' | '.join(nulls)} else {template.format(*values)})"

    def boolean(self, conjunction: bool, operands: list[str]) -> str:
        """N-ary AND / OR in three-valued logic, left to right: the first
        falsy operand decides an AND, the first truthy one an OR.  One flat
        ``or`` over the operands, so a long chain nests nothing."""
        temps = [self.temp() for _ in operands]
        if conjunction:
            decides = [
                f"(({t} := {o}) is not None and not {t})" for t, o in zip(temps, operands)
            ]
        else:
            decides = [f"({t} := {o})" for t, o in zip(temps, operands)]
        nulls = " or ".join(f"{t} is None" for t in temps)
        return (
            f"({not conjunction} if {' or '.join(decides)} "
            f"else None if {nulls} else {conjunction})"
        )

    def in_list(self, operand: str, options: list[str], negated: bool) -> str:
        """Options evaluated in order up to the first match; a NULL option
        turns a miss into NULL."""
        value = self.temp()
        temps = [self.temp() for _ in options]
        hits = " or ".join(f"({t} := {o}) == {value}" for t, o in zip(temps, options))
        nulls = " or ".join(f"{t} is None" for t in temps)
        return (
            f"(None if ({value} := {operand}) is None "
            f"else {not negated} if {hits or False} "
            f"else None if {nulls or False} else {negated})"
        )

    def coalesce(self, args: list[str]) -> str:
        if not args:
            return "None"
        temps = [self.temp() for _ in args[:-1]]
        parts = [f"{t} if ({t} := {a}) is not None" for t, a in zip(temps, args)]
        return f"({' else '.join([*parts, args[-1]])})"

    def case(
        self, operand: str | None, whens: list[tuple[str, str]], default: str | None
    ) -> str:
        """Simple CASE (operand = each WHEN value, every WHEN evaluated up to
        the match) or searched CASE (each WHEN a predicate that must be
        exactly TRUE)."""
        default = "None" if default is None else default
        if not whens:
            return default
        if operand is None:
            parts = [f"{then} if {when} is True" for when, then in whens]
        else:
            subject = self.temp()
            first = f"({subject} := {operand})"
            parts = [
                f"{then} if ({first if i == 0 else subject} is not None) "
                f"& ({when} == {subject})"
                for i, (when, then) in enumerate(whens)
            ]
        return f"({' else '.join([*parts, default])})"

    def inner_rows(self, plan: SelectPlan, outer_offsets: tuple[int, ...]) -> str:
        """A planned subquery's rows: the statement params extended with the
        correlated outer-column values of the current row."""
        params = "params"
        if outer_offsets:
            params = f"(*params, {', '.join(f'row[{o}]' for o in outer_offsets)})"
        return f"ee.execute_select_plan({self.bind(plan)}, {params}).rows"


def lower_expr(
    expr: Expression, columns: dict[str, int], src: Source, depth: int = 0
) -> str:
    """``expr`` as one Python expression over ``row``, ``params`` and ``ee``.

    ``columns`` maps column keys to row offsets, which are burned into the
    source; ``src`` receives the values the expression names.  ``depth`` is
    how deeply ``expr`` sits in the function being written: a subtree at
    :data:`_MAX_DEPTH` becomes a function of its own, so a long left-deep
    chain (``a + b + ...``, ``NOT NOT ...``) never nests more parentheses
    than CPython's parser accepts.  The recursion is one Python frame per
    tree level, so a 500-level chain stays inside the default recursion limit.
    """
    if depth >= _MAX_DEPTH and not isinstance(expr, (Literal, ColumnRef, Parameter)):
        return src.function(lower_expr(expr, columns, src))
    d = depth + 1
    if isinstance(expr, Literal):
        return src.literal(expr.value)
    if isinstance(expr, ColumnRef):
        offset = columns.get(expr.key)
        if offset is None:
            return src.fail(
                BindingError,
                f"cannot resolve column {expr.key!r}; known: {sorted(columns)}",
            )
        return f"row[{offset}]"
    if isinstance(expr, Parameter):
        return f"params[{expr.index}]"
    if isinstance(expr, Comparison):
        if expr.op not in _COMPARISON:
            return src.fail(PlanningError, f"unknown comparator {expr.op!r}")
        return src.strict(
            _COMPARISON[expr.op],
            lower_expr(expr.left, columns, src, d),
            lower_expr(expr.right, columns, src, d),
        )
    if isinstance(expr, BinaryOp):
        if expr.op not in _BINARY:
            return src.fail(PlanningError, f"unknown binary operator {expr.op!r}")
        return src.strict(
            _BINARY[expr.op],
            lower_expr(expr.left, columns, src, d),
            lower_expr(expr.right, columns, src, d),
        )
    if isinstance(expr, UnaryOp):
        if expr.op != "-":
            return src.fail(PlanningError, f"unknown unary operator {expr.op!r}")
        return src.strict("-{0}", lower_expr(expr.operand, columns, src, d))
    if isinstance(expr, NotOp):
        return src.strict("not {0}", lower_expr(expr.operand, columns, src, d))
    if isinstance(expr, Between):
        template = "{1} <= {0} <= {2}"
        return src.strict(
            f"not {template}" if expr.negated else template,
            *(lower_expr(e, columns, src, d) for e in (expr.operand, expr.low, expr.high)),
        )
    if isinstance(expr, Like):
        kernel = "_not_like" if expr.negated else "_like"
        return src.strict(
            kernel + "({0}, {1})",
            lower_expr(expr.operand, columns, src, d),
            lower_expr(expr.pattern, columns, src, d),
        )
    if isinstance(expr, FunctionCall):
        name = expr.name.lower()
        if name not in _SCALAR_FUNCTIONS:
            return src.fail(PlanningError, f"unknown function {expr.name!r}")
        args = [lower_expr(arg, columns, src, d) for arg in expr.args]
        if name == "coalesce":
            return src.coalesce(args)
        slots = ", ".join(f"{{{i}}}" for i in range(len(args)))
        return src.strict(f"_fn_{name}({slots})", *args)
    if isinstance(expr, BooleanOp):
        if expr.op not in ("AND", "OR"):
            return src.fail(PlanningError, f"unknown boolean operator {expr.op!r}")
        return src.boolean(
            expr.op == "AND", [lower_expr(part, columns, src, d) for part in expr.operands]
        )
    if isinstance(expr, IsNull):
        operand = lower_expr(expr.operand, columns, src, d)
        return f"({operand} is {'not ' if expr.negated else ''}None)"
    if isinstance(expr, InList):
        options = [lower_expr(option, columns, src, d) for option in expr.options]
        return src.in_list(lower_expr(expr.operand, columns, src, d), options, expr.negated)
    if isinstance(expr, CaseExpr):
        return src.case(
            None if expr.operand is None else lower_expr(expr.operand, columns, src, d),
            [
                (lower_expr(when, columns, src, d), lower_expr(then, columns, src, d))
                for when, then in expr.whens
            ],
            None if expr.default is None else lower_expr(expr.default, columns, src, d),
        )
    if isinstance(expr, PlannedInSubquery):
        value = src.temp()
        rows = src.inner_rows(expr.plan, expr.outer_offsets)
        return (
            f"(None if ({value} := {lower_expr(expr.operand, columns, src, d)}) is None "
            f"else _membership({value}, {rows}, {expr.negated}))"
        )
    if isinstance(expr, PlannedExists):
        return f"bool({src.inner_rows(expr.plan, expr.outer_offsets)})"
    if isinstance(expr, PlannedScalarSubquery):
        return f"_scalar_value({src.inner_rows(expr.plan, expr.outer_offsets)})"
    if isinstance(expr, AggregateCall):
        return src.fail(
            PlanningError,
            f"aggregate {expr.name.upper()} evaluated outside GROUP BY context",
        )
    return src.fail(PlanningError, _UNPLANNED[type(expr)])


# ---------------------------------------------------------------------------
# Plan artifacts
# ---------------------------------------------------------------------------


@dataclass
class CompiledAccess:
    """One access path's probe: ``key`` / ``low`` / ``high`` are kernel
    functions ``(row, params, ee)`` of the outer row (``()`` for the base
    table)."""

    kind: str  # "seq" | "eq" | "range"
    key: Callable[..., tuple] | None = None
    #: range bounds (None = unbounded on that side)
    low: Callable[..., Any] | None = None
    high: Callable[..., Any] | None = None


@dataclass
class GroupFirst:
    """Group-before-join: the outer table aggregated alone, then one probe
    per *group* instead of one per row (see :func:`_group_first`)."""

    #: the plan minus its joins: same WHERE, GROUP BY and aggregates, so its
    #: extended rows have the full plan's layout; compiled like any plan
    outer: SelectPlan
    #: per join step ``(inner table, unique index, filter)``, the filter a
    #: kernel function ``(rows, entries)`` keeping the rows whose key hits
    probes: tuple[tuple[str, str, Callable[..., list]], ...]


@dataclass
class CompiledSelect:
    """A SELECT's kernel: each stage a function of the kernel (None where
    the statement has no such stage), ``(rows, params, ee) -> rows``."""

    access: CompiledAccess
    #: per join step: its inner access and ON filter
    joins: list[tuple[CompiledAccess, Callable[..., list] | None]]
    where: Callable[..., list] | None
    #: rows -> extended rows (group keys + aggregate values)
    group: Callable[..., list] | None
    having: Callable[..., list] | None
    project: Callable[..., list]
    #: rows -> one ``(is-NULL flag, value)`` column per ORDER BY key, and the
    #: sort that orders the output rows by them (see :func:`_order_sort`)
    order: Callable[..., tuple] | None
    order_sort: Callable[[tuple, list], list] | None
    source: str
    #: pure covered equality lookup: the index probe is the whole source
    point_lookup: bool = False
    #: grouped unique-key inner joins: aggregate first, probe per group
    group_first: GroupFirst | None = None


@dataclass
class CompiledInsert:
    #: ``(row, params, ee) -> [values tuple per VALUES row]``
    values: Callable[..., list] | None
    #: slots are 0..n-1 with no defaults needed: values tuple IS the row
    identity_slots: bool
    source: str


@dataclass
class CompiledUpdate:
    access: CompiledAccess
    #: ``(rowids, storage, params, ee) -> the rowids whose row passes``
    match: Callable[..., list] | None
    #: ``(row, params, ee) -> the new row``
    assign: Callable[..., tuple]
    source: str


@dataclass
class CompiledDelete:
    access: CompiledAccess
    match: Callable[..., list] | None
    source: str


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------


def compile_plan(plan: Plan) -> Plan:
    """Attach a compiled kernel to a physical plan (idempotent, in place).

    The planner calls this as each plan is built, nested subquery plans and
    ``INSERT ... SELECT`` sources included, so every plan an execution can
    reach carries its kernel.
    """
    if getattr(plan, "compiled", None) is not None:
        return plan
    if isinstance(plan, SelectPlan):
        plan.compiled = _compile_select(plan)[0]
        plan.compiled.group_first = _group_first(plan)
    elif isinstance(plan, InsertPlan):
        plan.compiled = _compile_insert(plan)
    elif isinstance(plan, UpdatePlan):
        plan.compiled = _compile_update(plan)
    elif isinstance(plan, DeletePlan):
        plan.compiled = _compile_delete(plan)
    return plan


def _width(columns: dict[str, int]) -> int:
    return max(columns.values(), default=-1) + 1


def _define_access(
    src: Source, prefix: str, access: Any, columns: dict[str, int]
) -> None:
    if isinstance(access, IndexEqScan):
        key = [lower_expr(expr, columns, src) for expr in access.key_exprs]
        src.define(f"{prefix}key", _ROW, _tuple(key))
    elif isinstance(access, IndexRangeScan):
        for bound in ("low", "high"):
            expr = getattr(access, bound)
            if expr is not None:
                src.define(f"{prefix}{bound}", _ROW, lower_expr(expr, columns, src))


def _access(kernel: dict[str, Any], prefix: str, access: Any) -> CompiledAccess:
    if isinstance(access, IndexEqScan):
        return CompiledAccess(kind="eq", key=kernel[f"{prefix}key"])
    if isinstance(access, IndexRangeScan):
        return CompiledAccess(
            kind="range", low=kernel.get(f"{prefix}low"), high=kernel.get(f"{prefix}high")
        )
    return CompiledAccess(kind="seq")


def _define_filter(
    src: Source, name: str, expr: Expression | None, columns: dict[str, int]
) -> None:
    if expr is not None:
        predicate = lower_expr(expr, columns, src)
        src.define(name, _ROWS, f"[row for row in rows if {predicate} is True]")


def _columns(names: list[str], items: list[str]) -> list[str]:
    """Lines binding each ``names[i]`` to the column of ``items[i]`` over
    ``rows``, one comprehension each (no tuple per row).  Should one of
    several raise, the rows are evaluated again in the oracle's order — row
    by row, items left to right — so the error raised is the one it meets
    first."""
    lines = [f"{name} = [{item} for row in rows]" for name, item in zip(names, items)]
    if len(lines) == 1:
        return lines
    return [
        "try:",
        *(f"    {line}" for line in lines),
        "except Exception:",
        "    for row in rows:",
        f"        {_tuple(items)}",
        "    raise",
    ]


def _define_group(src: Source, plan: SelectPlan) -> None:
    """Every row's group keys and aggregate arguments, as columns for
    :func:`fold_groups`."""
    items = [lower_expr(e, plan.columns, src) for e in plan.group_exprs]
    keys = [f"c{i}" for i in range(len(items))]
    args = []
    for agg in plan.aggregates:
        if agg.arg is None:
            args.append("None")
        else:
            args.append(f"c{len(items)}")
            items.append(lower_expr(agg.arg, plan.columns, src))
    lines = _columns([f"c{i}" for i in range(len(items))], items) if items else []
    specs = src.bind(tuple((agg.name, agg.distinct) for agg in plan.aggregates))
    src.define(
        "group",
        _ROWS,
        *lines,
        f"_fold_groups({specs}, {_tuple(args) if args else '()'}, "
        f"{_tuple(keys) if keys else None}, len(rows))",
    )


def _define_project(src: Source, plan: SelectPlan) -> None:
    ext = plan.ext_columns
    exprs = plan.post_exprs
    identity = [ColumnRef] * len(exprs) == [type(e) for e in exprs] and [
        ext.get(e.key) for e in exprs
    ] == list(range(_width(ext)))
    if identity:  # SELECT * over one table: the rows are the output
        src.define("project", _ROWS, "list(rows)")
        return
    out = _tuple([lower_expr(e, ext, src) for e in exprs]) if exprs else "()"
    src.define("project", _ROWS, f"[{out} for row in rows]")


def _define_order(src: Source, plan: SelectPlan) -> None:
    """One ``(flag, value)`` column per ORDER BY key: ``value is None`` for
    ASC, ``value is not None`` for DESC (sorted reversed), so NULLs sort last
    either way."""
    keys = []
    for expr, ascending in plan.post_order:
        value = src.temp()
        flag = "is None" if ascending else "is not None"
        key = lower_expr(expr, plan.ext_columns, src)
        keys.append(f"(({value} := {key}) {flag}, {value})")
    names = [f"k{i}" for i in range(len(keys))]
    src.define("order", _ROWS, *_columns(names, keys), _tuple(names))


def _order_sort(ascending: tuple[bool, ...]) -> Callable[[tuple, list], list]:
    """Order ``items`` by the ORDER BY key columns the kernel built.

    The normal path is one stable ``list.sort`` of row indexes per key, last
    key first, keyed on the column's ``(flag, value)`` pairs (C-level, no
    Python call per comparison).  A pass compares its key between any two
    rows, also rows an earlier key already separates; when such a comparison
    raises ``TypeError`` the rows are sorted again by comparator, which
    compares a later key only between rows the earlier keys tie on — the
    oracle's order and errors.
    """

    def sort(columns: tuple, items: list) -> list:
        order = list(range(len(items)))
        try:
            for column, asc in zip(reversed(columns), reversed(ascending)):
                order.sort(key=column.__getitem__, reverse=not asc)
        except TypeError:

            def compare(left: int, right: int) -> int:
                for column, asc in zip(columns, ascending):
                    a, b = column[left][1], column[right][1]
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

            order = sorted(range(len(items)), key=functools.cmp_to_key(compare))
        return [items[i] for i in order]

    return sort


def _compile_select(
    plan: SelectPlan, probes: tuple[tuple[int, ...], ...] = ()
) -> tuple[CompiledSelect, dict[str, Any]]:
    """The compiled SELECT and its kernel's namespace.  ``probes`` are
    group-before-join's key slots (see :func:`_group_first`): one filter
    function ``probe<i>`` each over the extended rows."""
    src = Source()
    columns = plan.columns
    _define_access(src, "", plan.access, columns)
    for i, step in enumerate(plan.joins):
        _define_access(src, f"join{i}_", step.access, columns)
        _define_filter(src, f"join{i}_on", step.on, columns)
    _define_filter(src, "where", plan.where, columns)
    if plan.grouped:
        _define_group(src, plan)
    _define_filter(src, "having", plan.post_having, plan.ext_columns)
    _define_project(src, plan)
    if plan.post_order:
        _define_order(src, plan)
    for i, slots in enumerate(probes):
        key = _tuple([f"row[{slot}]" for slot in slots])
        src.define(
            f"probe{i}", "rows, entries", f"[row for row in rows if {key} in entries]"
        )
    kernel = src.build()
    compiled = CompiledSelect(
        access=_access(kernel, "", plan.access),
        joins=[
            (_access(kernel, f"join{i}_", step.access), kernel.get(f"join{i}_on"))
            for i, step in enumerate(plan.joins)
        ],
        where=kernel.get("where"),
        group=kernel.get("group"),
        having=kernel.get("having"),
        project=kernel["project"],
        order=kernel.get("order"),
        order_sort=(
            _order_sort(tuple(asc for _expr, asc in plan.post_order))
            if plan.post_order
            else None
        ),
        source=src.text,
        point_lookup=(
            isinstance(plan.access, IndexEqScan)
            and not plan.joins
            and plan.where is None
            and not plan.grouped
            and not plan.distinct
            and not plan.post_order
        ),
    )
    return compiled, kernel


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

    The outer side keeps the lanes the join plan had: a delta view when one
    matches, else its own kernel.
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
    targets = []
    slots = []
    for step in plan.joins:
        access = step.access
        if (
            step.left_outer
            or step.on is not None
            or not isinstance(access, IndexEqScan)
            or not access.unique
            or not all(
                isinstance(expr, ColumnRef) and columns.get(expr.key) in key_slots
                for expr in access.key_exprs
            )
        ):
            return None
        targets.append((access.table, access.index))
        slots.append(tuple(key_slots[columns[expr.key]] for expr in access.key_exprs))

    outer = dataclasses.replace(plan, joins=[], compiled=None, view_read=None)
    outer.compiled, kernel = _compile_select(outer, tuple(slots))
    return GroupFirst(
        outer=outer,
        probes=tuple(
            (table, index, kernel[f"probe{i}"])
            for i, (table, index) in enumerate(targets)
        ),
    )


def _compile_insert(plan: InsertPlan) -> CompiledInsert:
    src = Source()
    if plan.select is None:
        rows = [_tuple([lower_expr(e, {}, src) for e in row]) for row in plan.rows]
        src.define("values", _ROW, f"[{', '.join(rows)}]")
    kernel = src.build()
    return CompiledInsert(
        values=kernel.get("values"),
        identity_slots=plan.slots == list(range(len(plan.slots))),
        source=src.text,
    )


def _define_match(src: Source, plan: UpdatePlan | DeletePlan) -> None:
    _define_access(src, "", plan.access, plan.columns)
    if plan.where is not None:
        predicate = lower_expr(plan.where, plan.columns, src)
        src.define(
            "match",
            "rowids, storage, params, ee",
            f"[rowid for rowid in rowids for row in (storage[rowid],) "
            f"if {predicate} is True]",
        )


def _compile_update(plan: UpdatePlan) -> CompiledUpdate:
    """SET values are evaluated in the statement's order (the last of two
    assignments to one column wins), then the new row is built."""
    src = Source()
    _define_match(src, plan)
    lines = []
    new_row = [f"row[{offset}]" for offset in range(_width(plan.columns))]
    for offset, expr in plan.assignments:
        value = src.temp()
        lines.append(f"{value} = {lower_expr(expr, plan.columns, src)}")
        new_row[offset] = value
    src.define("assign", _ROW, *lines, _tuple(new_row))
    kernel = src.build()
    return CompiledUpdate(
        access=_access(kernel, "", plan.access),
        match=kernel.get("match"),
        assign=kernel["assign"],
        source=src.text,
    )


def _compile_delete(plan: DeletePlan) -> CompiledDelete:
    src = Source()
    _define_match(src, plan)
    kernel = src.build()
    return CompiledDelete(
        access=_access(kernel, "", plan.access),
        match=kernel.get("match"),
        source=src.text,
    )
