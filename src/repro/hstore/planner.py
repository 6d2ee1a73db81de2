"""Query planner: compiles parsed statements into physical plans.

H-Store pre-plans every statement of a stored procedure at registration time
(procedures are "pre-defined parameterized stored procedures"), so planning
happens once and execution binds parameters only.  The planner:

* resolves every column reference against the catalog (errors surface at
  registration, not mid-transaction);
* picks access paths — hash-index point lookups for equality predicates,
  ordered-index range scans for range predicates, sequential scans otherwise;
* builds left-deep join trees, using index nested-loop joins when the inner
  table has a usable index on the join key;
* expands ``*`` projections and rewrites aggregate queries into an
  aggregate + post-projection pipeline.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import PlanningError
from repro.hstore.catalog import Catalog
from repro.hstore.expression import (
    AggregateCall,
    Between,
    BooleanOp,
    ColumnRef,
    Comparison,
    Exists,
    Expression,
    InSubquery,
    Parameter,
    PlannedExists,
    PlannedInSubquery,
    PlannedScalarSubquery,
    ScalarSubquery,
    Star,
    rewrite as rewrite_expr,
    walk,
)
from repro.hstore.parser import (
    CreateIndexStmt,
    CreateStreamStmt,
    CreateTableStmt,
    CreateViewStmt,
    CreateWindowStmt,
    DeleteStmt,
    DropViewStmt,
    InsertStmt,
    SelectStmt,
    Statement,
    TableRef,
    UpdateStmt,
)

__all__ = [
    "Planner",
    "Plan",
    "SelectPlan",
    "InsertPlan",
    "UpdatePlan",
    "DeletePlan",
    "DdlPlan",
    "AccessPath",
    "SeqScan",
    "IndexEqScan",
    "IndexRangeScan",
]


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessPath:
    """How to produce candidate rows of one table."""

    table: str
    alias: str


@dataclass(frozen=True)
class SeqScan(AccessPath):
    """Full scan in insertion order."""


@dataclass(frozen=True)
class IndexEqScan(AccessPath):
    """Point lookup: ``index`` probed with the values of ``key_exprs``.

    ``key_exprs`` may reference parameters and outer-row columns (when used
    as the inner side of an index nested-loop join).
    """

    index: str
    key_exprs: tuple[Expression, ...]
    #: primary key or UNIQUE index: a probe finds at most one row
    unique: bool = False


@dataclass(frozen=True)
class IndexRangeScan(AccessPath):
    """Range scan over an ordered single-column index."""

    index: str
    low: Expression | None
    high: Expression | None
    low_inclusive: bool
    high_inclusive: bool


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class Plan:
    """Base class for physical plans."""

    #: filled by the planner: the source SQL statement type, for diagnostics
    statement: Statement
    #: ``run(ee, plan, params, txn)``, bound once by the planner from the
    #: plan's type and artifacts (``executor.bind_runner``); None = not for the EE
    run: Any = None
    #: whether ``run`` mutates storage (and so needs a transaction)
    needs_txn = True
    #: what ``SStoreEngine.check_plan_access`` last passed this plan under
    access_pass: Any = None


@dataclass
class JoinStep:
    """One inner table of a left-deep join pipeline."""

    access: AccessPath
    #: residual predicate evaluated against the combined row (may be None)
    on: Expression | None
    #: column map contribution of this table (combined-row offsets)
    base_offset: int = 0
    #: LEFT OUTER: emit unmatched outer rows padded with NULLs
    left_outer: bool = False
    #: width of the inner table's row (for NULL padding)
    inner_width: int = 0


@dataclass
class SelectPlan(Plan):
    needs_txn = False

    statement: SelectStmt
    access: AccessPath
    joins: list[JoinStep]
    #: residual WHERE predicate over the combined row (None if consumed)
    where: Expression | None
    #: combined-row column map used to evaluate every expression
    columns: dict[str, int]
    #: projection expressions and output names (post-aggregate when grouped)
    output_exprs: list[Expression]
    output_names: list[str]
    #: aggregate pipeline (empty group_exprs + empty aggregates = no grouping)
    group_exprs: list[Expression]
    aggregates: list[AggregateCall]
    grouped: bool
    having: Expression | None
    order_by: list[tuple[Expression, bool]]
    limit: int | None
    offset: int | None
    distinct: bool
    #: number of parameters the statement expects
    param_count: int = 0
    #: post-aggregation pipeline: expressions rewritten to reference the
    #: extended row (group keys + aggregate values) via ``ext_columns``;
    #: for ungrouped queries these equal the originals / ``columns``
    post_exprs: list[Expression] = dataclasses.field(default_factory=list)
    post_having: Expression | None = None
    post_order: list[tuple[Expression, bool]] = dataclasses.field(default_factory=list)
    ext_columns: dict[str, int] = dataclasses.field(default_factory=dict)
    #: the compiled kernel (repro.hstore.compile.CompiledSelect)
    compiled: Any = None
    #: repro.ivm.ViewRead when this plan's scan+aggregate stage is served
    #: from a delta view (attached by the S-Store engine at plan time);
    #: None = scan execution
    view_read: Any = None


@dataclass
class InsertPlan(Plan):
    statement: InsertStmt
    table: str
    #: for each target-table column: the position in the supplied value
    #: tuple, or None to use the column default
    slots: list[int | None]
    rows: list[tuple[Expression, ...]]
    select: SelectPlan | None
    param_count: int = 0
    compiled: Any = None


@dataclass
class UpdatePlan(Plan):
    statement: UpdateStmt
    table: str
    access: AccessPath
    where: Expression | None
    columns: dict[str, int]
    #: (column offset in the table row, value expression)
    assignments: list[tuple[int, Expression]]
    param_count: int = 0
    compiled: Any = None


@dataclass
class DeletePlan(Plan):
    statement: DeleteStmt
    table: str
    access: AccessPath
    where: Expression | None
    columns: dict[str, int]
    param_count: int = 0
    compiled: Any = None


@dataclass
class DdlPlan(Plan):
    """DDL executes directly against the catalog/storage — no planning."""

    statement: Statement


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


class Planner:
    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog

    # -- public entry points -------------------------------------------------

    def plan(self, statement: Statement) -> Plan:
        if isinstance(statement, SelectStmt):
            return self.plan_select(statement)
        if isinstance(statement, InsertStmt):
            return self.plan_insert(statement)
        if isinstance(statement, UpdateStmt):
            return self.plan_update(statement)
        if isinstance(statement, DeleteStmt):
            return self.plan_delete(statement)
        if isinstance(
            statement,
            (
                CreateTableStmt,
                CreateStreamStmt,
                CreateWindowStmt,
                CreateIndexStmt,
                CreateViewStmt,
                DropViewStmt,
            ),
        ):
            return DdlPlan(statement)
        raise PlanningError(f"cannot plan {type(statement).__name__}")

    def _finish(self, plan: Plan) -> None:
        """Everything decided once per plan: compile it, bind its runner.

        Every ``plan_*`` method ends here, so nested plans (subqueries,
        ``INSERT ... SELECT`` sources) leave the planner executable too.
        """
        from repro.hstore.compile import compile_plan
        from repro.hstore.executor import bind_runner

        compile_plan(plan)
        bind_runner(plan)

    # -- scopes ---------------------------------------------------------------

    def _scope_for(self, refs: list[TableRef]) -> tuple[dict[str, int], list[int]]:
        """Column map + per-table base offsets for a FROM-clause table list."""
        columns: dict[str, int] = {}
        ambiguous: set[str] = set()
        bases: list[int] = []
        offset = 0
        seen_aliases: set[str] = set()
        for ref in refs:
            entry = self._catalog.table(ref.name)
            alias = ref.effective_alias.lower()
            if alias in seen_aliases:
                raise PlanningError(f"duplicate table alias {alias!r}")
            seen_aliases.add(alias)
            bases.append(offset)
            for i, column in enumerate(entry.schema):
                columns[f"{alias}.{column.name}"] = offset + i
                if column.name in ambiguous:
                    continue
                if column.name in columns:
                    del columns[column.name]
                    ambiguous.add(column.name)
                else:
                    columns[column.name] = offset + i
            offset += len(entry.schema)
        return columns, bases

    def _validate_refs(self, expr: Expression, columns: dict[str, int]) -> None:
        for node in walk(expr):
            if isinstance(node, ColumnRef) and node.key not in columns:
                raise PlanningError(
                    f"unknown column {node.key!r}; known: {sorted(columns)}"
                )

    # -- predicate decomposition ----------------------------------------------

    @staticmethod
    def _conjuncts(expr: Expression | None) -> list[Expression]:
        """Split a predicate into top-level AND conjuncts."""
        if expr is None:
            return []
        if isinstance(expr, BooleanOp) and expr.op == "AND":
            result: list[Expression] = []
            for operand in expr.operands:
                result.extend(Planner._conjuncts(operand))
            return result
        return [expr]

    @staticmethod
    def _recombine(conjuncts: list[Expression]) -> Expression | None:
        if not conjuncts:
            return None
        if len(conjuncts) == 1:
            return conjuncts[0]
        return BooleanOp("AND", tuple(conjuncts))

    def _plan_subqueries(
        self,
        expr: Expression,
        outer_columns: dict[str, int] | None = None,
        param_alloc: "Iterator[int] | None" = None,
        stmt: Statement | None = None,
    ) -> Expression:
        """Replace parsed subquery nodes with planned ones (recursively).

        Correlated subqueries (inner references to columns of the enclosing
        statement, one level up) are decorrelated by parameterization: each
        distinct outer reference becomes a fresh ``?`` parameter of the
        inner plan, and the planned node records the outer-row offset whose
        value binds it at evaluation time.
        """
        if outer_columns is None:
            outer_columns = {}
        if param_alloc is None:
            base = self._count_params(stmt) if stmt is not None else 0
            param_alloc = iter(range(base, base + 1_000_000))

        def transform(node: Expression) -> Expression | None:
            if isinstance(node, InSubquery):
                inner, offsets = self._plan_correlated_select(
                    node.select, outer_columns, param_alloc
                )
                if len(inner.output_exprs) != 1:
                    raise PlanningError(
                        "IN (SELECT ...) requires exactly one output column"
                    )
                return PlannedInSubquery(
                    operand=self._plan_subqueries(
                        node.operand, outer_columns, param_alloc
                    ),
                    plan=inner,
                    negated=node.negated,
                    outer_offsets=offsets,
                )
            if isinstance(node, Exists):
                inner, offsets = self._plan_correlated_select(
                    node.select, outer_columns, param_alloc
                )
                return PlannedExists(plan=inner, outer_offsets=offsets)
            if isinstance(node, ScalarSubquery):
                inner, offsets = self._plan_correlated_select(
                    node.select, outer_columns, param_alloc
                )
                if len(inner.output_exprs) != 1:
                    raise PlanningError(
                        "a scalar subquery requires exactly one output column"
                    )
                return PlannedScalarSubquery(plan=inner, outer_offsets=offsets)
            return None

        return rewrite_expr(expr, transform)

    def _plan_correlated_select(
        self,
        stmt: SelectStmt,
        outer_columns: dict[str, int],
        param_alloc: "Iterator[int]",
    ) -> tuple["SelectPlan", tuple[int, ...]]:
        """Plan an inner SELECT, extracting one-level outer correlations."""
        inner_refs = [stmt.table] + [join.table for join in stmt.joins]
        inner_columns, _bases = self._scope_for(inner_refs)

        #: outer column key → (parameter node, outer-row offset)
        bound: dict[str, Parameter] = {}
        offsets: list[int] = []

        def transform(node: Expression) -> Expression | None:
            if isinstance(node, (InSubquery, Exists, ScalarSubquery)):
                # deeper subqueries correlate against *their* enclosing
                # scope, handled when the inner plan_select recurses
                return node
            if (
                isinstance(node, ColumnRef)
                and node.key not in inner_columns
                and node.key in outer_columns
            ):
                parameter = bound.get(node.key)
                if parameter is None:
                    parameter = Parameter(next(param_alloc))
                    bound[node.key] = parameter
                    offsets.append(outer_columns[node.key])
                return parameter
            return None

        def rewrite_field(value: Any) -> Any:
            if isinstance(value, Expression):
                return rewrite_expr(value, transform)
            return value

        rewritten = dataclasses.replace(
            stmt,
            items=tuple(
                dataclasses.replace(item, expr=rewrite_field(item.expr))
                for item in stmt.items
            ),
            joins=tuple(
                dataclasses.replace(join, on=rewrite_field(join.on))
                for join in stmt.joins
            ),
            where=rewrite_field(stmt.where) if stmt.where is not None else None,
            group_by=tuple(rewrite_field(expr) for expr in stmt.group_by),
            having=rewrite_field(stmt.having) if stmt.having is not None else None,
            order_by=tuple(
                dataclasses.replace(item, expr=rewrite_field(item.expr))
                for item in stmt.order_by
            ),
        )
        return self.plan_select(rewritten), tuple(offsets)

    @staticmethod
    def _refs_only(expr: Expression, allowed: set[str]) -> bool:
        """Whether every column the expression references is in ``allowed``."""
        return all(
            node.key in allowed
            for node in walk(expr)
            if isinstance(node, ColumnRef)
        )

    @staticmethod
    def _probe_safe(expr: Expression) -> bool:
        """Whether an expression may be evaluated as an index probe.

        Correlated planned subqueries bind outer-row values at evaluation
        time; an index probe is evaluated *before* any row of the scanned
        table exists, so such expressions must stay residual filters.
        Uncorrelated subqueries are row-independent and therefore fine.
        """
        from repro.hstore.expression import (
            PlannedExists,
            PlannedInSubquery,
            PlannedScalarSubquery,
        )

        return all(
            not node.outer_offsets
            for node in walk(expr)
            if isinstance(
                node,
                (PlannedInSubquery, PlannedExists, PlannedScalarSubquery),
            )
        )

    def _column_keys_of(self, ref: TableRef) -> set[str]:
        entry = self._catalog.table(ref.name)
        alias = ref.effective_alias.lower()
        keys = {f"{alias}.{col.name}" for col in entry.schema}
        keys |= {col.name for col in entry.schema}
        return keys

    # -- access-path selection -------------------------------------------------

    def _pick_access(
        self,
        ref: TableRef,
        conjuncts: list[Expression],
        outer_columns: set[str],
    ) -> tuple[AccessPath, list[Expression]]:
        """Choose the best access path for one table.

        ``conjuncts`` are candidate predicates; consumed ones are removed and
        the remaining returned as residual filters.  ``outer_columns`` are
        column keys available from outer tables (for join key expressions);
        empty for the driving table.
        """
        entry = self._catalog.table(ref.name)
        alias = ref.effective_alias.lower()
        own_keys = self._column_keys_of(ref)
        indexes = self._catalog.indexes_on(ref.name)

        # Primary key behaves like an implicit unique hash index.
        candidates: list[tuple[str, tuple[str, ...], bool, bool]] = []
        if entry.primary_key:
            candidates.append((f"{entry.name}__pk", entry.primary_key, False, True))
        for index in indexes:
            candidates.append(
                (index.name, index.column_names, index.ordered, index.unique)
            )

        # 1. Equality: find an index all of whose columns have an equality
        #    conjunct with the probe side evaluable from params/outer row.
        eq_map: dict[str, tuple[Expression, Expression]] = {}
        for conj in conjuncts:
            pair = self._equality_on(conj, alias, own_keys, outer_columns)
            if pair is not None:
                column, probe = pair
                eq_map.setdefault(column, (conj, probe))

        for index_name, index_columns, _ordered, unique in candidates:
            if all(col in eq_map for col in index_columns):
                used = [eq_map[col][0] for col in index_columns]
                probes = tuple(eq_map[col][1] for col in index_columns)
                residual = [c for c in conjuncts if c not in used]
                return (
                    IndexEqScan(entry.name, alias, index_name, probes, unique),
                    residual,
                )

        # 2. Range: single-column ordered index with a usable bound.
        for index_name, index_columns, ordered, _unique in candidates:
            if not ordered or len(index_columns) != 1:
                continue
            column = index_columns[0]
            low = high = None
            low_inc = high_inc = True
            used: list[Expression] = []
            for conj in conjuncts:
                bound = self._range_on(conj, column, alias, own_keys, outer_columns)
                if bound is None:
                    continue
                op, probe = bound
                if op in (">", ">=") and low is None:
                    low, low_inc = probe, op == ">="
                    used.append(conj)
                elif op in ("<", "<=") and high is None:
                    high, high_inc = probe, op == "<="
                    used.append(conj)
            if used:
                residual = [c for c in conjuncts if c not in used]
                return (
                    IndexRangeScan(
                        entry.name, alias, index_name, low, high, low_inc, high_inc
                    ),
                    residual,
                )

        return SeqScan(entry.name, alias), list(conjuncts)

    def _equality_on(
        self,
        conj: Expression,
        alias: str,
        own_keys: set[str],
        outer_columns: set[str],
    ) -> tuple[str, Expression] | None:
        """If ``conj`` is ``col = probe`` for this table, return (col, probe)."""
        if not isinstance(conj, Comparison) or conj.op != "=":
            return None
        for this, other in ((conj.left, conj.right), (conj.right, conj.left)):
            if not isinstance(this, ColumnRef):
                continue
            if this.key not in own_keys:
                continue
            if this.table is not None and this.table != alias:
                continue
            # probe must be computable without this table's row
            if self._refs_only(other, outer_columns) and self._probe_safe(other):
                return this.name, other
        return None

    def _range_on(
        self,
        conj: Expression,
        column: str,
        alias: str,
        own_keys: set[str],
        outer_columns: set[str],
    ) -> tuple[str, Expression] | None:
        """If ``conj`` bounds ``column``, return (normalized op, probe expr)."""
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        if isinstance(conj, Between) and not conj.negated:
            return None  # handled by two comparisons; keep planner simple
        if not isinstance(conj, Comparison) or conj.op not in flipped:
            return None
        left, right = conj.left, conj.right
        if (
            isinstance(left, ColumnRef)
            and left.name == column
            and left.key in own_keys
            and (left.table is None or left.table == alias)
            and self._refs_only(right, outer_columns)
            and self._probe_safe(right)
        ):
            return conj.op, right
        if (
            isinstance(right, ColumnRef)
            and right.name == column
            and right.key in own_keys
            and (right.table is None or right.table == alias)
            and self._refs_only(left, outer_columns)
            and self._probe_safe(left)
        ):
            return flipped[conj.op], left
        return None

    # -- SELECT -----------------------------------------------------------------

    def plan_select(self, stmt: SelectStmt) -> SelectPlan:
        refs = [stmt.table] + [join.table for join in stmt.joins]
        columns, bases = self._scope_for(refs)

        where_expr = (
            self._plan_subqueries(stmt.where, columns, stmt=stmt)
            if stmt.where is not None
            else None
        )
        conjuncts = self._conjuncts(where_expr)
        for conj in conjuncts:
            self._validate_refs(conj, columns)

        # driving table access path: predicates referencing only it
        driving_keys = self._column_keys_of(stmt.table) & set(columns)
        driving_conjs = [c for c in conjuncts if self._refs_only(c, driving_keys)]
        other_conjs = [c for c in conjuncts if c not in driving_conjs]
        access, residual = self._pick_access(stmt.table, driving_conjs, set())
        residual_where = residual + other_conjs

        # joins: each may consume its ON equality via an index
        join_steps: list[JoinStep] = []
        outer_keys = set(driving_keys)
        for join, base in zip(stmt.joins, bases[1:]):
            self._validate_refs(join.on, columns)
            join_conjs = self._conjuncts(join.on)
            inner_access, join_residual = self._pick_access(
                join.table, join_conjs, outer_keys | set(columns)
            )
            # Residual join predicates are evaluated on the combined row.
            join_steps.append(
                JoinStep(
                    access=inner_access,
                    on=self._recombine(join_residual),
                    base_offset=base,
                    left_outer=join.left_outer,
                    inner_width=len(self._catalog.table(join.table.name).schema),
                )
            )
            outer_keys |= self._column_keys_of(join.table) & set(columns)

        # projection: expand stars, plan embedded subqueries, name outputs
        output_exprs: list[Expression] = []
        output_names: list[str] = []
        for item in stmt.items:
            if isinstance(item.expr, Star):
                for key, name in self._star_columns(item.expr, refs):
                    output_exprs.append(ColumnRef(name, table=key))
                    output_names.append(name)
            else:
                item_expr = self._plan_subqueries(item.expr, columns, stmt=stmt)
                self._validate_refs(item_expr, columns)
                output_exprs.append(item_expr)
                output_names.append(item.alias or self._default_name(item.expr))

        # aggregation
        aggregates: list[AggregateCall] = []
        for expr in output_exprs:
            aggregates.extend(
                node for node in walk(expr) if isinstance(node, AggregateCall)
            )
        having_expr = (
            self._plan_subqueries(stmt.having, columns, stmt=stmt)
            if stmt.having is not None
            else None
        )
        if having_expr is not None:
            self._validate_refs(having_expr, columns)
            aggregates.extend(
                node for node in walk(having_expr) if isinstance(node, AggregateCall)
            )
        # ORDER BY / GROUP BY may reference select-list aliases (standard
        # SQL) or 1-based output positions (SQL92); resolve both to the
        # underlying expressions before validation.
        alias_map = {
            name: expr for expr, name in zip(output_exprs, output_names)
        }

        def resolve_output_ref(expr: Expression, clause: str) -> Expression:
            from repro.hstore.expression import Literal

            if (
                isinstance(expr, ColumnRef)
                and expr.table is None
                and expr.key not in columns
                and expr.name in alias_map
            ):
                return alias_map[expr.name]
            if isinstance(expr, Literal) and isinstance(expr.value, int) \
                    and not isinstance(expr.value, bool):
                position = expr.value
                if not 1 <= position <= len(output_exprs):
                    raise PlanningError(
                        f"{clause} position {position} is out of range "
                        f"(1..{len(output_exprs)})"
                    )
                return output_exprs[position - 1]
            return expr

        resolved_order: list[tuple[Expression, bool]] = []
        order_aggs: list[AggregateCall] = []
        for item in stmt.order_by:
            expr = resolve_output_ref(item.expr, "ORDER BY")
            self._validate_refs(expr, columns)
            order_aggs.extend(
                node for node in walk(expr) if isinstance(node, AggregateCall)
            )
            resolved_order.append((expr, item.ascending))
        aggregates.extend(order_aggs)

        grouped = bool(stmt.group_by) or bool(aggregates)
        group_exprs = [
            resolve_output_ref(expr, "GROUP BY") for expr in stmt.group_by
        ]
        for expr in group_exprs:
            self._validate_refs(expr, columns)
        # de-duplicate aggregates structurally
        unique_aggs: list[AggregateCall] = []
        for agg in aggregates:
            if agg not in unique_aggs:
                unique_aggs.append(agg)

        if having_expr is not None and not grouped:
            raise PlanningError("HAVING requires GROUP BY or aggregates")

        order_by = resolved_order

        for agg in unique_aggs:
            if agg.arg is not None and any(
                isinstance(node, AggregateCall) for node in walk(agg.arg)
            ):
                raise PlanningError(f"nested aggregate in {agg.sql()}")

        # Pre-compile the post-aggregation pipeline.
        if grouped:
            group_map = {expr: f"__g{i}" for i, expr in enumerate(group_exprs)}
            agg_map = {
                agg: f"__a{j}" for j, agg in enumerate(unique_aggs)
            }
            ext_columns = {f"__g{i}": i for i in range(len(group_exprs))}
            ext_columns.update(
                {f"__a{j}": len(group_exprs) + j for j in range(len(unique_aggs))}
            )
            post_exprs = [
                _rewrite_post_agg(expr, group_map, agg_map) for expr in output_exprs
            ]
            post_having = (
                _rewrite_post_agg(having_expr, group_map, agg_map)
                if having_expr is not None
                else None
            )
            post_order = [
                (_rewrite_post_agg(expr, group_map, agg_map), asc)
                for expr, asc in order_by
            ]
            for expr in post_exprs + [e for e, _ in post_order] + (
                [post_having] if post_having is not None else []
            ):
                for node in walk(expr):
                    if isinstance(node, ColumnRef) and node.key not in ext_columns:
                        raise PlanningError(
                            f"column {node.key!r} must appear in GROUP BY or "
                            f"inside an aggregate"
                        )
        else:
            ext_columns = columns
            post_exprs = list(output_exprs)
            post_having = None
            post_order = list(order_by)

        param_count = self._count_params(stmt)

        plan = SelectPlan(
            statement=stmt,
            access=access,
            joins=join_steps,
            where=self._recombine(residual_where),
            columns=columns,
            output_exprs=output_exprs,
            output_names=output_names,
            group_exprs=group_exprs,
            aggregates=unique_aggs,
            grouped=grouped,
            having=having_expr,
            order_by=order_by,
            limit=stmt.limit,
            offset=stmt.offset,
            distinct=stmt.distinct,
            param_count=param_count,
            post_exprs=post_exprs,
            post_having=post_having,
            post_order=post_order,
            ext_columns=ext_columns,
        )
        self._finish(plan)
        return plan

    def _star_columns(
        self, star: Star, refs: list[TableRef]
    ) -> list[tuple[str, str]]:
        """(alias, column) pairs a ``*`` expands to."""
        result: list[tuple[str, str]] = []
        for ref in refs:
            alias = ref.effective_alias.lower()
            if star.table is not None and star.table != alias:
                continue
            entry = self._catalog.table(ref.name)
            result.extend((alias, column.name) for column in entry.schema)
        if not result:
            raise PlanningError(f"cannot expand {star.sql()}")
        return result

    @staticmethod
    def _default_name(expr: Expression) -> str:
        if isinstance(expr, ColumnRef):
            return expr.name
        if isinstance(expr, AggregateCall):
            return expr.name
        return expr.sql()

    @staticmethod
    def _count_params(stmt: Statement) -> int:
        """Highest parameter index + 1 anywhere in the statement tree.

        Walks dataclass fields rather than ``Expression.children()`` so that
        parameters inside subquery *statements* (``InSubquery.select``,
        ``Exists.select``) are counted too.
        """
        count = 0

        def visit(obj: Any) -> None:
            nonlocal count
            if isinstance(obj, Parameter):
                count = max(count, obj.index + 1)
            if isinstance(obj, (list, tuple)):
                for item in obj:
                    visit(item)
            elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
                for fld in dataclasses.fields(obj):
                    visit(getattr(obj, fld.name))

        visit(stmt)
        return count

    # -- INSERT -----------------------------------------------------------------

    def plan_insert(self, stmt: InsertStmt) -> InsertPlan:
        entry = self._catalog.table(stmt.table)
        schema = entry.schema
        if stmt.columns:
            supplied = [name.lower() for name in stmt.columns]
            for name in supplied:
                if not schema.has_column(name):
                    raise PlanningError(
                        f"table {entry.name!r} has no column {name!r}"
                    )
            if len(set(supplied)) != len(supplied):
                raise PlanningError("duplicate column in INSERT column list")
            positions = {name: i for i, name in enumerate(supplied)}
            slots: list[int | None] = [
                positions.get(column.name) for column in schema
            ]
            width = len(supplied)
        else:
            slots = list(range(len(schema)))
            width = len(schema)

        select_plan: SelectPlan | None = None
        if stmt.select is not None:
            select_plan = self.plan_select(stmt.select)
            if len(select_plan.output_exprs) != width:
                raise PlanningError(
                    f"INSERT expects {width} columns, SELECT yields "
                    f"{len(select_plan.output_exprs)}"
                )
        else:
            for row in stmt.rows:
                if len(row) != width:
                    raise PlanningError(
                        f"INSERT expects {width} values, got {len(row)}"
                    )

        plan = InsertPlan(
            statement=stmt,
            table=entry.name,
            slots=slots,
            rows=list(stmt.rows),
            select=select_plan,
            param_count=self._count_params(stmt),
        )
        self._finish(plan)
        return plan

    # -- UPDATE / DELETE -----------------------------------------------------

    def plan_update(self, stmt: UpdateStmt) -> UpdatePlan:
        entry = self._catalog.table(stmt.table)
        ref = TableRef(entry.name)
        columns, _bases = self._scope_for([ref])
        where_expr = (
            self._plan_subqueries(stmt.where, columns, stmt=stmt)
            if stmt.where is not None
            else None
        )
        conjuncts = self._conjuncts(where_expr)
        for conj in conjuncts:
            self._validate_refs(conj, columns)
        access, residual = self._pick_access(ref, conjuncts, set())

        assignments: list[tuple[int, Expression]] = []
        for name, expr in stmt.assignments:
            offset = entry.schema.offset_of(name)
            expr = self._plan_subqueries(expr, columns, stmt=stmt)
            self._validate_refs(expr, columns)
            assignments.append((offset, expr))

        plan = UpdatePlan(
            statement=stmt,
            table=entry.name,
            access=access,
            where=self._recombine(residual),
            columns=columns,
            assignments=assignments,
            param_count=self._count_params(stmt),
        )
        self._finish(plan)
        return plan

    def plan_delete(self, stmt: DeleteStmt) -> DeletePlan:
        entry = self._catalog.table(stmt.table)
        ref = TableRef(entry.name)
        columns, _bases = self._scope_for([ref])
        where_expr = (
            self._plan_subqueries(stmt.where, columns, stmt=stmt)
            if stmt.where is not None
            else None
        )
        conjuncts = self._conjuncts(where_expr)
        for conj in conjuncts:
            self._validate_refs(conj, columns)
        access, residual = self._pick_access(ref, conjuncts, set())
        plan = DeletePlan(
            statement=stmt,
            table=entry.name,
            access=access,
            where=self._recombine(residual),
            columns=columns,
            param_count=self._count_params(stmt),
        )
        self._finish(plan)
        return plan


def _rewrite_post_agg(
    expr: Expression,
    group_map: dict[Expression, str],
    agg_map: dict[AggregateCall, str],
) -> Expression:
    """Rewrite an expression to run over the extended (grouped) row.

    Subtrees structurally equal to a GROUP BY expression become references to
    the synthetic group-key column; aggregate calls become references to the
    synthetic aggregate column.  Everything else is rebuilt with rewritten
    children.
    """
    if expr in group_map:
        return ColumnRef(group_map[expr])
    if isinstance(expr, AggregateCall):
        return ColumnRef(agg_map[expr])

    kwargs: dict[str, Any] = {}
    changed = False
    for fld in dataclasses.fields(expr):
        value = getattr(expr, fld.name)
        if isinstance(value, Expression):
            rewritten = _rewrite_post_agg(value, group_map, agg_map)
            changed = changed or rewritten is not value
            kwargs[fld.name] = rewritten
        elif (
            isinstance(value, tuple)
            and value
            and all(isinstance(item, Expression) for item in value)
        ):
            rewritten_tuple = tuple(
                _rewrite_post_agg(item, group_map, agg_map) for item in value
            )
            changed = changed or any(
                new is not old for new, old in zip(rewritten_tuple, value)
            )
            kwargs[fld.name] = rewritten_tuple
        else:
            kwargs[fld.name] = value
    if not changed:
        return expr
    return dataclasses.replace(expr, **kwargs)
