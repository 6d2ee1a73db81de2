"""EXPLAIN: human-readable physical plan rendering.

H-Store pre-plans every stored-procedure statement at deployment; this
module renders those plans so a developer can verify access-path choices
(index vs. sequential scan, join strategy) without reading planner
internals.  Exposed as ``engine.explain(sql)`` and
``engine.explain_procedure(name)``.
"""

from __future__ import annotations

from repro.hstore.planner import (
    AccessPath,
    DeletePlan,
    IndexEqScan,
    IndexRangeScan,
    InsertPlan,
    Plan,
    SelectPlan,
    SeqScan,
    UpdatePlan,
)

__all__ = ["explain_plan"]


def _describe_access(access: AccessPath) -> str:
    target = access.table
    if access.alias != access.table:
        target = f"{access.table} AS {access.alias}"
    if isinstance(access, SeqScan):
        return f"SeqScan({target})"
    if isinstance(access, IndexEqScan):
        keys = ", ".join(expr.sql() for expr in access.key_exprs)
        return f"IndexEqScan({target} VIA {access.index} ON [{keys}])"
    if isinstance(access, IndexRangeScan):
        low = access.low.sql() if access.low is not None else "-inf"
        high = access.high.sql() if access.high is not None else "+inf"
        left = "[" if access.low_inclusive else "("
        right = "]" if access.high_inclusive else ")"
        return (
            f"IndexRangeScan({target} VIA {access.index} "
            f"RANGE {left}{low}, {high}{right})"
        )
    return f"{type(access).__name__}({target})"  # pragma: no cover


def _lane(plan: Plan) -> str:
    """The lane ``plan`` executes on, read off the fields
    ``ExecutionEngine._select`` dispatches on, in its order: a delta view,
    a point probe, group-before-join, or else the kernel, row at a time."""
    if isinstance(plan, SelectPlan):
        compiled = plan.compiled
        if plan.view_read is not None:
            return f"view({plan.view_read.view.name})"
        if compiled.point_lookup:
            return "row (point)"
        if compiled.group_first is not None:
            return f"group-first({_lane(compiled.group_first.outer)})"
    return "row"


def _kernel_lines(source: str, indent: str) -> list[str]:
    return [f"{indent}| {line}".rstrip() for line in source.splitlines()]


def _mode_line(plan: Plan, indent: str) -> list[str]:
    """The lane, then the source of the kernel that runs it."""
    lines = [f"{indent}mode: {_lane(plan)}", *_kernel_lines(plan.compiled.source, indent)]
    first = getattr(plan.compiled, "group_first", None)
    if first is not None:
        lines.append(f"{indent}| # group before join: the outer side's kernel")
        lines.extend(_kernel_lines(first.outer.compiled.source, indent))
    return lines


def _embedded_subplans(plan: SelectPlan) -> list:
    """Planned subquery nodes reachable from the plan's expressions."""
    from repro.hstore.expression import (
        PlannedExists,
        PlannedInSubquery,
        PlannedScalarSubquery,
        walk,
    )

    expressions = list(plan.post_exprs)
    if plan.where is not None:
        expressions.append(plan.where)
    if plan.post_having is not None:
        expressions.append(plan.post_having)
    for step in plan.joins:
        if step.on is not None:
            expressions.append(step.on)
    found = []
    for expression in expressions:
        for node in walk(expression):
            if isinstance(
                node, (PlannedInSubquery, PlannedExists, PlannedScalarSubquery)
            ):
                found.append(node)
    return found


def _explain_select(plan: SelectPlan, indent: str) -> list[str]:
    lines = [f"{indent}SELECT"]
    inner = indent + "  "
    lines.append(f"{inner}scan: {_describe_access(plan.access)}")
    lines.extend(_mode_line(plan, inner))
    for step in plan.joins:
        on = f" ON {step.on.sql()}" if step.on is not None else ""
        kind = "left join" if step.left_outer else "join"
        lines.append(f"{inner}{kind}: {_describe_access(step.access)}{on}")
    if plan.where is not None:
        lines.append(f"{inner}filter: {plan.where.sql()}")
    if plan.grouped:
        group = ", ".join(expr.sql() for expr in plan.group_exprs) or "<global>"
        aggs = ", ".join(agg.sql() for agg in plan.aggregates)
        lines.append(f"{inner}aggregate: group by {group} computing [{aggs}]")
        group_first = plan.compiled.group_first
        if group_first is not None:
            probed = ", ".join(
                f"{table} VIA {index}" for table, index, _key in group_first.probes
            )
            lines.append(
                f"{inner}rewrite: group-before-join (aggregate "
                f"{plan.access.table} first, then probe {probed} once per group)"
            )
        if plan.post_having is not None:
            lines.append(f"{inner}having: {plan.post_having.sql()}")
    projections = ", ".join(
        f"{expr.sql()} AS {name}"
        for expr, name in zip(plan.output_exprs, plan.output_names)
    )
    lines.append(f"{inner}project: {projections}")
    if plan.distinct:
        lines.append(f"{inner}distinct")
    if plan.order_by:
        order = ", ".join(
            f"{expr.sql()} {'ASC' if ascending else 'DESC'}"
            for expr, ascending in plan.order_by
        )
        lines.append(f"{inner}sort: {order}")
    if plan.limit is not None or plan.offset is not None:
        lines.append(
            f"{inner}limit: {plan.limit} offset: {plan.offset or 0}"
        )
    for index, node in enumerate(_embedded_subplans(plan)):
        correlated = (
            f", correlated on {len(node.outer_offsets)} outer column(s)"
            if node.outer_offsets
            else ""
        )
        lines.append(
            f"{inner}subquery #{index + 1} "
            f"({type(node).__name__.replace('Planned', '').lower()}{correlated}):"
        )
        lines.extend(_explain_select(node.plan, inner + "  "))
    return lines


def explain_plan(plan: Plan, indent: str = "") -> str:
    """Render one physical plan as an indented text tree."""
    if isinstance(plan, SelectPlan):
        return "\n".join(_explain_select(plan, indent))
    if isinstance(plan, InsertPlan):
        lines = [f"{indent}INSERT INTO {plan.table}"]
        if plan.select is not None:
            lines.append(f"{indent}  from query:")
            lines.extend(_explain_select(plan.select, indent + "    "))
        else:
            lines.append(f"{indent}  values: {len(plan.rows)} row(s)")
            lines.extend(_kernel_lines(plan.compiled.source, indent + "  "))
        return "\n".join(lines)
    if isinstance(plan, UpdatePlan):
        lines = [f"{indent}UPDATE {plan.table}"]
        lines.append(f"{indent}  scan: {_describe_access(plan.access)}")
        lines.extend(_mode_line(plan, indent + "  "))
        if plan.where is not None:
            lines.append(f"{indent}  filter: {plan.where.sql()}")
        sets = ", ".join(
            f"col#{offset} = {expr.sql()}" for offset, expr in plan.assignments
        )
        lines.append(f"{indent}  set: {sets}")
        return "\n".join(lines)
    if isinstance(plan, DeletePlan):
        lines = [f"{indent}DELETE FROM {plan.table}"]
        lines.append(f"{indent}  scan: {_describe_access(plan.access)}")
        lines.extend(_mode_line(plan, indent + "  "))
        if plan.where is not None:
            lines.append(f"{indent}  filter: {plan.where.sql()}")
        return "\n".join(lines)
    return f"{indent}{type(plan).__name__}"
