"""Execution engine (EE): runs physical plans against in-memory storage.

One :class:`ExecutionEngine` instance is the EE half of one partition.  It
owns the partition's table storage and executes pre-compiled plans from the
planner.  All mutations are recorded in the active transaction's undo log so
the partition engine can roll back on abort.

The EE also hosts the *post-insert hook* registry through which the S-Store
streaming layer implements EE triggers and native window maintenance: when an
INSERT lands new tuples in a stream or window table, registered hooks run
synchronously inside the same transaction — the "continuous processing within
a given transaction execution" of the paper (§2), with no PE↔EE round trip.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Iterator

from repro.errors import BindingError, StorageError
from repro.hstore.aggregate import fold
from repro.hstore.catalog import Catalog, TableEntry
from repro.hstore.expression import EvalContext
from repro.hstore.planner import (
    AccessPath,
    DeletePlan,
    InsertPlan,
    Plan,
    SelectPlan,
    UpdatePlan,
)
from repro.hstore.stats import EngineStats
from repro.hstore.table import Row, Table
from repro.hstore.txn import TransactionContext
from repro.hstore.vector import VectorContext, normalize_mask, selected_values

__all__ = ["ExecutionEngine", "ResultSet", "InsertHook", "bind_runner"]

#: Signature of a post-insert hook: (txn, table_name, inserted_rowids).
InsertHook = Callable[[TransactionContext, str, list[int]], None]

_MAX_HOOK_DEPTH = 64

#: shared empty candidate list for missed index probes (never mutated)
_NO_ROWS: list[Row] = []


@dataclass
class ResultSet:
    """The rows and column names a SELECT produced."""

    columns: list[str]
    rows: list[tuple[Any, ...]]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def scalar(self) -> Any:
        """First column of the first row (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def first(self) -> tuple[Any, ...] | None:
        return self.rows[0] if self.rows else None

    def column(self, name: str) -> list[Any]:
        """All values of one named output column."""
        try:
            offset = self.columns.index(name)
        except ValueError:
            raise BindingError(
                f"result has no column {name!r}; columns: {self.columns}"
            ) from None
        return [row[offset] for row in self.rows]

    def as_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


class ExecutionEngine:
    """Storage + query execution for one partition."""

    def __init__(self, catalog: Catalog, stats: EngineStats | None = None) -> None:
        self._catalog = catalog
        self._tables: dict[str, Table] = {}
        self._insert_hooks: dict[str, list[InsertHook]] = {}
        self._hook_depth = 0
        self.stats = stats if stats is not None else EngineStats()

    # -- storage management ----------------------------------------------------

    def create_storage(self, entry: TableEntry) -> Table:
        if entry.name in self._tables:
            raise StorageError(f"storage for {entry.name!r} already exists")
        table = Table(entry)
        self._tables[entry.name] = table
        return table

    def drop_storage(self, name: str) -> None:
        self._tables.pop(name.lower(), None)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise StorageError(f"no storage for table {name!r}") from None

    def tables(self) -> dict[str, Table]:
        return dict(self._tables)

    # -- hook registry (EE triggers / window maintenance) ---------------------

    def add_insert_hook(self, table_name: str, hook: InsertHook) -> None:
        self._insert_hooks.setdefault(table_name.lower(), []).append(hook)

    def remove_insert_hook(self, table_name: str, hook: InsertHook) -> None:
        hooks = self._insert_hooks.get(table_name.lower(), [])
        if hook in hooks:
            hooks.remove(hook)

    def _fire_insert_hooks(
        self, txn: TransactionContext, table_name: str, rowids: list[int]
    ) -> None:
        hooks = self._insert_hooks.get(table_name, ())
        if not hooks or not rowids:
            return
        if self._hook_depth >= _MAX_HOOK_DEPTH:
            raise StorageError(
                f"insert-hook recursion deeper than {_MAX_HOOK_DEPTH} "
                f"(trigger cycle through {table_name!r}?)"
            )
        self._hook_depth += 1
        try:
            for hook in list(hooks):
                hook(txn, table_name, rowids)
        finally:
            self._hook_depth -= 1

    # -- plan execution ----------------------------------------------------------

    def execute(
        self,
        plan: Plan,
        params: tuple[Any, ...] = (),
        txn: TransactionContext | None = None,
    ) -> ResultSet | int:
        """Execute a plan; SELECT returns a :class:`ResultSet`, DML a count.

        Which function runs was decided when the plan was built
        (:func:`bind_runner`); per call only the parameters are bound.
        """
        self.stats.ee_statements += 1
        if txn is None and plan.needs_txn:
            raise StorageError("DML execution requires an active transaction")
        run = plan.run
        if run is None:
            raise StorageError(f"EE cannot execute {type(plan).__name__}")
        if len(params) < plan.param_count:
            raise BindingError(
                f"statement expects {plan.param_count} parameters, "
                f"got {len(params)}"
            )
        return run(self, plan, params, txn)

    def execute_select_plan(self, plan: SelectPlan, params: tuple[Any, ...]):
        """Run a (sub)query plan in-EE; used by planned subquery nodes."""
        self.stats.bump("subquery_executions")
        return plan.run(self, plan, params, None)

    # -- SELECT: one runner, a source and a post stage ----------------------------
    #
    # Every expression is a closure lowered at plan time and no context is
    # allocated per row: one context per statement, its ``.row`` mutated per
    # row.

    def _select(
        self, plan: SelectPlan, params: tuple[Any, ...], _txn: object = None
    ) -> ResultSet:
        """The runner of every SELECT: a source produces the extended rows,
        then :meth:`_post` applies HAVING, projection, DISTINCT, ORDER BY and
        LIMIT.

        The source is a pure covered index probe, or group before join
        (``compile.GroupFirst``: the outer table's rows grouped alone, then
        each join's unique index probed once per group and the groups that
        miss dropped), or else :meth:`_source` in join order.
        """
        c = plan.compiled
        ctx = EvalContext(params=params, executor=self)
        first = c.group_first
        if c.point_lookup:
            self.stats.bump("point_lookups")
            table = self.table(plan.access.table)
            rowids = self._probe(table, plan.access, c.access, ctx)
            rows = list(map(table.storage().__getitem__, rowids)) if rowids else []
        elif first is None:
            rows = self._source(plan, c, params, ctx)
        else:
            try:
                rows = self._source(first.outer, first.outer.compiled, params, ctx)
                for table_name, index_name, key_of in first.probes:
                    # a NULL-containing key is never stored, so it misses
                    entries = self.table(table_name).index(index_name).entries()
                    rows = [row for row in rows if key_of(row) in entries]
            except Exception:
                # the outer side was evaluated whole: an expression may have
                # raised on a row the join would have dropped first.  Nothing
                # observable happened; the join-order path raises (or doesn't)
                # exactly as the oracle does
                rows = self._source(plan, c, params, ctx)
        return self._post(plan, c, ctx, rows)

    def _probe(
        self, table: Table, access: AccessPath, caccess: Any, ctx: EvalContext
    ) -> list[int]:
        """Rowids of one access path's candidate rows, in rowid order (per
        key, in key order, for a range); probe keys evaluated from ``ctx``."""
        kind = caccess.kind
        if kind == "seq":
            return table.rowids()
        if kind == "eq":
            key = caccess.key_fn(ctx)
            # a NULL-containing key is never stored, so it misses
            rowids = table.index(access.index).entries().get(key)
            if not rowids:
                return []
            return list(rowids) if len(rowids) == 1 else sorted(rowids)
        low = (caccess.low_fn(ctx),) if caccess.low_fn is not None else None
        high = (caccess.high_fn(ctx),) if caccess.high_fn is not None else None
        # A NULL bound matches nothing (SQL comparison semantics).
        if low == (None,) or high == (None,):
            return []
        found: list[int] = []
        for _key, rowids in table.index(access.index).range_scan(
            low,
            high,
            low_inclusive=access.low_inclusive,
            high_inclusive=access.high_inclusive,
        ):
            found.extend(sorted(rowids))
        return found

    def _source(
        self,
        plan: SelectPlan,
        c: Any,
        params: tuple[Any, ...],
        ctx: EvalContext,
    ) -> list[tuple[Any, ...]]:
        """Scan + join + aggregate through the first lane that serves the
        plan: delta view → column vectors → row closures."""
        view_read = plan.view_read
        if view_read is not None:
            # delta-view lowering (repro.ivm): served from incrementally
            # maintained state in O(groups)
            return view_read.view.ext_rows(view_read.agg_map)
        if c.vector is not None:
            vectored = self._try_select_vector(plan, c.vector, params)
            if vectored is not None:
                self.stats.bump("vector_scans")
                return vectored
        table = self.table(plan.access.table)
        if c.access.kind == "seq":
            # storage() is rowid-ordered (Table heals after txn undo)
            rows = list(table.storage().values())
        else:
            rowids = self._probe(table, plan.access, c.access, ctx)
            rows = list(map(table.storage().__getitem__, rowids)) if rowids else []

        for step, cstep in zip(plan.joins, c.joins):
            joined: list[tuple[Any, ...]] = []
            null_pad = (None,) * step.inner_width
            on_fn = cstep.on
            caccess = cstep.access
            inner_table = self.table(step.access.table)
            inner_storage = inner_table.storage()
            get = inner_storage.__getitem__
            # hoist loop-invariant probe state out of the outer loop: the
            # inner table cannot change mid-statement, so a seq-scan inner
            # is materialized exactly once, and an index probe binds its
            # entries dict once
            key_fn = None
            key_offsets = None
            all_inner: list[Row] = []
            if caccess.kind == "eq":
                entries = inner_table.index(step.access.index).entries()
                key_fn = caccess.key_fn
                key_offsets = caccess.key_offsets
                # single-column plain key: the overwhelmingly common probe
                key_offset0 = (
                    key_offsets[0]
                    if key_offsets is not None and len(key_offsets) == 1
                    else None
                )
            elif caccess.kind == "seq":
                all_inner = list(inner_storage.values())
            for outer in rows:
                ctx.row = outer
                if key_fn is not None:
                    if key_offset0 is not None:
                        key = (outer[key_offset0],)
                    elif key_offsets is not None:
                        key = tuple(outer[o] for o in key_offsets)
                    else:
                        key = key_fn(ctx)
                    rowids = entries.get(key)
                    if not rowids:
                        inner_rows = _NO_ROWS
                    elif len(rowids) == 1:
                        inner_rows = [get(next(iter(rowids)))]
                    else:
                        inner_rows = [get(rowid) for rowid in sorted(rowids)]
                elif caccess.kind == "seq":
                    inner_rows = all_inner
                else:
                    inner_rows = list(
                        map(get, self._probe(inner_table, step.access, caccess, ctx))
                    )
                matched = False
                for inner in inner_rows:
                    candidate = outer + inner
                    if on_fn is not None:
                        ctx.row = candidate
                        if on_fn(ctx) is not True:
                            continue
                    matched = True
                    joined.append(candidate)
                if step.left_outer and not matched:
                    joined.append(outer + null_pad)
            rows = joined

        if c.where is not None:
            where = c.where
            filtered: list[tuple[Any, ...]] = []
            for row in rows:
                ctx.row = row
                if where(ctx) is True:
                    filtered.append(row)
            rows = filtered
        if plan.grouped:
            return self._aggregate(plan, c, ctx, rows)
        return rows

    def _try_select_vector(
        self, plan: SelectPlan, vec: Any, params: tuple[Any, ...]
    ) -> list[tuple[Any, ...]] | None:
        """The extended rows of one SELECT off column vectors, or None to use
        the row closures.

        Vector evaluation is eager (no per-row short-circuit), so any
        exception here — division the row path would have skipped, an
        unbound parameter over a non-empty table, a comparison type error —
        aborts the attempt *before anything observable happened* and the
        caller re-runs the statement through the row closures, which raise
        (or don't) with oracle semantics.
        """
        table = self.table(plan.access.table)
        try:
            view = table.columnar_view()
            n = view.size()
            vctx = VectorContext(view, params, n)
            bmask = None
            if vec.where is not None:
                bmask = normalize_mask(vec.where(vctx), n)
            if not plan.grouped:
                # pair the selection mask with the row dict the column
                # vectors were transposed from
                source = table.storage()
                if len(source) != n:
                    raise StorageError("column cache out of sync with row store")
                if bmask is None:
                    return list(source.values())
                return list(compress(source.values(), bmask))
            nsel = n if bmask is None else sum(bmask)
            keys = None
            if vec.group_keys:
                key_columns = [
                    selected_values(fn(vctx), bmask, n, nsel) for fn in vec.group_keys
                ]
                keys = list(zip(*key_columns))
            columns: list[list[Any] | None] = []
            for _name, fn, _distinct in vec.agg_specs:
                if fn is None:
                    columns.append(None)
                elif nsel or keys is not None:
                    columns.append(selected_values(fn(vctx), bmask, n, nsel))
                else:
                    columns.append([])  # a global aggregate over no rows
            return _fold_groups(vec.agg_specs, columns, keys, nsel)
        except Exception:
            self.stats.bump("vector_runtime_fallbacks")
            return None

    def _aggregate(
        self,
        plan: SelectPlan,
        c: Any,
        ctx: EvalContext,
        rows: list[tuple[Any, ...]],
    ) -> list[tuple[Any, ...]]:
        """Group and aggregate rows through the row closures."""
        if c.count_star_only and c.group_offsets is not None:
            # plain-column GROUP BY + COUNT(*) aggregates: dict of counters,
            # no per-row closure calls
            counts: dict[tuple[Any, ...], int] = {}
            key_order: list[tuple[Any, ...]] = []
            offsets = c.group_offsets
            offset0 = offsets[0] if len(offsets) == 1 else None
            n_aggs = len(c.agg_specs)
            for row in rows:
                key = (
                    (row[offset0],)
                    if offset0 is not None
                    else tuple(row[o] for o in offsets)
                )
                if key in counts:
                    counts[key] += 1
                else:
                    counts[key] = 1
                    key_order.append(key)
            if not counts and not plan.group_exprs:
                counts[()] = 0
                key_order.append(())
            return [key + (counts[key],) * n_aggs for key in key_order]

        # one argument column per aggregate, filled row by row in the
        # oracle's order: the group key first, then each argument
        agg_specs = c.agg_specs
        columns: list[list[Any] | None] = []
        feeds = []
        for _name, arg, _distinct in agg_specs:
            if arg is None:
                columns.append(None)
            else:
                column: list[Any] = []
                columns.append(column)
                feeds.append((arg, column.append))
        grouped = bool(plan.group_exprs)
        keys: list[tuple[Any, ...]] = []
        key_of = c.group_key
        for row in rows:
            ctx.row = row
            if grouped:
                keys.append(key_of(ctx))
            for arg, append in feeds:
                append(arg(ctx))
        return _fold_groups(agg_specs, columns, keys if grouped else None, len(rows))

    def _post(
        self,
        plan: SelectPlan,
        c: Any,
        ctx: EvalContext,
        ext_rows: list[tuple[Any, ...]],
    ) -> ResultSet:
        """HAVING → projection → DISTINCT → ORDER → LIMIT on extended rows,
        reusing the statement's one context."""
        if c.post_having is not None:
            having = c.post_having
            filtered: list[tuple[Any, ...]] = []
            for row in ext_rows:
                ctx.row = row
                if having(ctx) is True:
                    filtered.append(row)
            ext_rows = filtered

        needs_ext = bool(c.order_keys) or plan.distinct
        if c.row_project is not None and not needs_ext:
            # pure-column projection with no reordering downstream: build
            # output rows straight off the tuples, no context involved
            rows = list(map(c.row_project, ext_rows))
            if plan.offset:
                rows = rows[plan.offset :]
            if plan.limit is not None:
                rows = rows[: plan.limit]
            return ResultSet(columns=list(plan.output_names), rows=rows)

        project = c.project
        produced: list[tuple[tuple[Any, ...], tuple[Any, ...]]] = []
        for ext_row in ext_rows:
            ctx.row = ext_row
            produced.append((ext_row, project(ctx)))

        if plan.distinct:
            seen: set[tuple[Any, ...]] = set()
            unique: list[tuple[tuple[Any, ...], tuple[Any, ...]]] = []
            for ext_row, out in produced:
                if out not in seen:
                    seen.add(out)
                    unique.append((ext_row, out))
            produced = unique

        if c.order_keys is not None:
            # evaluate each sort key once per row, then sort the key tuples
            order_keys = c.order_keys
            keyed = []
            for ext_row, out in produced:
                ctx.row = ext_row
                keyed.append((order_keys(ctx), ext_row, out))
            rows = [out for _keys, _ext, out in c.order_sort(keyed)]
        else:
            rows = [out for _ext, out in produced]

        if plan.offset:
            rows = rows[plan.offset :]
        if plan.limit is not None:
            rows = rows[: plan.limit]
        return ResultSet(columns=list(plan.output_names), rows=rows)

    # -- UPDATE / DELETE -----------------------------------------------------------

    def _matches(
        self, table: Table, plan: UpdatePlan | DeletePlan, ctx: EvalContext
    ) -> list[int]:
        """Rowids of the access path's rows that pass the compiled WHERE."""
        c = plan.compiled
        rowids = self._probe(table, plan.access, c.access, ctx)
        where = c.where
        if where is None:
            return rowids
        storage = table.storage()
        matches: list[int] = []
        for rowid in rowids:
            ctx.row = storage[rowid]
            if where(ctx) is True:
                matches.append(rowid)
        return matches

    def _update_compiled(
        self, plan: UpdatePlan, params: tuple[Any, ...], txn: TransactionContext
    ) -> int:
        table = self.table(plan.table)
        ctx = EvalContext(params=params, executor=self)
        matches = self._matches(table, plan, ctx)

        assignments = plan.compiled.assignments
        for rowid in matches:
            old_row = table.get(rowid)
            ctx.row = old_row
            new_row = list(old_row)
            for offset, fn in assignments:
                new_row[offset] = fn(ctx)
            before = table.update(rowid, new_row)
            txn.record_update(plan.table, rowid, before)

        self.stats.rows_updated += len(matches)
        return len(matches)

    def _delete_compiled(
        self, plan: DeletePlan, params: tuple[Any, ...], txn: TransactionContext
    ) -> int:
        table = self.table(plan.table)
        ctx = EvalContext(params=params, executor=self)
        matches = self._matches(table, plan, ctx)

        for rowid in matches:
            before = table.delete(rowid)
            txn.record_delete(plan.table, rowid, before)

        self.stats.rows_deleted += len(matches)
        return len(matches)

    # -- INSERT --------------------------------------------------------------------

    def _execute_insert(
        self, plan: InsertPlan, params: tuple[Any, ...], txn: TransactionContext
    ) -> int:
        table = self.table(plan.table)
        compiled = plan.compiled
        value_rows: list[tuple[Any, ...]]
        if plan.select is not None:
            source = plan.select
            value_rows = list(source.run(self, source, params, None).rows)
        elif compiled.param_rows is not None:
            value_rows = [get(params) for get in compiled.param_rows]
        else:
            ctx = EvalContext(params=params, executor=self)
            value_rows = [fn(ctx) for fn in compiled.row_fns]

        new_rowids: list[int] = []
        if compiled.identity_slots:
            # every target column is supplied in order: the values tuple IS
            # the row, so skip the per-column slot/default resolution
            for values in value_rows:
                rowid = table.insert(values)
                txn.record_insert(plan.table, rowid)
                new_rowids.append(rowid)
        else:
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

    def insert_rows(
        self,
        txn: TransactionContext,
        table_name: str,
        rows: list[tuple[Any, ...]] | list[list[Any]],
    ) -> list[int]:
        """Direct (non-SQL) bulk insert used by the streaming layer; returns
        the new rowids (see :meth:`store_rows`)."""
        return self.store_rows(txn, table_name, rows)[0]

    def store_rows(
        self,
        txn: TransactionContext,
        table_name: str,
        rows: list[tuple[Any, ...]] | list[list[Any]],
    ) -> tuple[list[int], list[Row]]:
        """The bulk insert behind :meth:`insert_rows`: validates against the
        schema, records undo, fires insert hooks, and returns ``(new rowids,
        the validated rows as stored)`` so ``emit`` need not read its tuples
        back.  Rides :meth:`Table.store_many`: one validation pass, one
        uniqueness pre-pass, one index batch — and atomicity for free (a
        violation anywhere leaves the table untouched).
        """
        table = self.table(table_name)
        new_rowids, stored = table.store_many(rows)
        for rowid in new_rowids:
            txn.record_insert(table.name, rowid)
        self.stats.rows_inserted += len(new_rowids)
        self._fire_insert_hooks(txn, table.name, new_rowids)
        return new_rowids, stored

    def delete_rows(
        self, txn: TransactionContext, table_name: str, rowids: list[int]
    ) -> int:
        """Direct (non-SQL) delete by rowid, used by GC and window expiry."""
        table = self.table(table_name)
        for rowid in rowids:
            before = table.delete(rowid)
            txn.record_delete(table.name, rowid, before)
        self.stats.rows_deleted += len(rowids)
        return len(rowids)

    # -- snapshot support -------------------------------------------------------------

    def dump_state(self) -> dict[str, Any]:
        return {name: table.dump_state() for name, table in self._tables.items()}

    def load_state(self, state: dict[str, Any]) -> None:
        for name, table_state in state.items():
            self.table(name).load_state(table_state)
        # Tables present in storage but absent from the snapshot (the snapshot
        # predates them, or there is none) restart as freshly created ones,
        # rowid counter included, so an in-place recover() numbers replayed
        # rows as a restarted process does — recovery replays the rest.
        for name, table in self._tables.items():
            if name not in state:
                table.load_state({"next_rowid": 0, "rows": {}})


def _fold_groups(
    specs: tuple[tuple[str, Any, bool], ...],
    columns: list[list[Any] | None],
    keys: list[tuple[Any, ...]] | None,
    nrows: int,
) -> list[tuple[Any, ...]]:
    """The one aggregate driver behind the row closures and the column
    vectors: bucket each argument column by its row's group key, then
    :func:`fold` each bucket.

    ``columns`` holds one argument column per aggregate (``None`` for
    COUNT(*)), ``keys`` one group-key tuple per row, or ``None`` for a
    global aggregate — one output row, even over no rows.  Groups come out
    in first-appearance order, each as ``key + aggregate values``.
    """
    if keys is None:
        values = []
        for (name, _arg, distinct), column in zip(specs, columns):
            values.append(nrows if column is None else fold(name, column, distinct))
        return [tuple(values)]
    # first-appearance group order and the key -> slot map, both built at C
    # speed (dict.fromkeys dedups in encounter order); the per-row group
    # index is then one C-dispatched dict lookup per row
    order = list(dict.fromkeys(keys))
    slots = dict(zip(order, range(len(order))))
    gidx = list(map(slots.__getitem__, keys))
    results = []
    for (name, _arg, distinct), column in zip(specs, columns):
        if column is None:
            results.append(list(map(Counter(gidx).__getitem__, range(len(order)))))
            continue
        buckets: list[list[Any]] = [[] for _key in order]
        appends = [bucket.append for bucket in buckets]
        for slot, value in zip(gidx, column):
            appends[slot](value)
        results.append([fold(name, bucket, distinct) for bucket in buckets])
    if not results:
        return order
    return [key + values for key, values in zip(order, zip(*results))]


def bind_runner(plan: Plan) -> None:
    """Choose the function :meth:`ExecutionEngine.execute` calls for ``plan``.

    Called once, by the planner, when the plan is built: the choice depends
    only on the plan's type and on what the compiler attached to it, never
    on a statement's parameters.
    """
    ee = ExecutionEngine
    if isinstance(plan, SelectPlan):
        plan.run = ee._select
    elif isinstance(plan, InsertPlan):
        plan.run = ee._execute_insert
    elif isinstance(plan, UpdatePlan):
        plan.run = ee._update_compiled
    elif isinstance(plan, DeletePlan):
        plan.run = ee._delete_compiled
