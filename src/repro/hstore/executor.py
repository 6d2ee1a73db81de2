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

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.errors import BindingError, StorageError
from repro.hstore.catalog import Catalog, TableEntry
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

__all__ = ["ExecutionEngine", "ResultSet", "InsertHook", "bind_runner"]

#: Signature of a post-insert hook: (txn, table_name, inserted_rowids).
InsertHook = Callable[[TransactionContext, str, list[int]], None]

_MAX_HOOK_DEPTH = 64

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
        # plans carry the catalog's lower-case name: look it up as given first
        try:
            return self._tables[name]
        except KeyError:
            pass
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
    # Every per-row stage is a function of the statement's kernel
    # (repro.hstore.compile): one call per stage, not one per row.

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
        first = c.group_first
        if c.point_lookup:
            self.stats.bump("point_lookups")
            table = self.table(plan.access.table)
            rowids = self._probe(table, plan.access, c.access, (), params)
            rows = list(map(table.storage().__getitem__, rowids)) if rowids else []
        elif first is None:
            rows = self._source(plan, params)
        else:
            try:
                rows = self._source(first.outer, params)
                for table_name, index_name, hits in first.probes:
                    # a NULL-containing key is never stored, so it misses
                    rows = hits(rows, self.table(table_name).index(index_name).entries())
            except Exception:
                # the outer side was evaluated whole: an expression may have
                # raised on a row the join would have dropped first.  Nothing
                # observable happened; the join-order path raises (or doesn't)
                # exactly as the oracle does
                rows = self._source(plan, params)
        return self._post(plan, params, rows)

    def _probe(
        self,
        table: Table,
        access: AccessPath,
        caccess: Any,
        row: tuple[Any, ...],
        params: tuple[Any, ...],
    ) -> list[int]:
        """Rowids of one access path's candidate rows, in rowid order (per
        key, in key order, for a range); probe keys evaluated over the outer
        ``row``."""
        kind = caccess.kind
        if kind == "seq":
            return table.rowids()
        if kind == "eq":
            key = caccess.key(row, params, self)
            # a NULL-containing key is never stored, so it misses
            rowids = table.index(access.index).entries().get(key)
            if not rowids:
                return []
            return list(rowids) if len(rowids) == 1 else sorted(rowids)
        low = (caccess.low(row, params, self),) if caccess.low is not None else None
        high = (caccess.high(row, params, self),) if caccess.high is not None else None
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

    def _source(self, plan: SelectPlan, params: tuple[Any, ...]) -> Any:
        """Scan + join + aggregate: from a delta view when one serves the
        plan, else through the kernel."""
        view_read = plan.view_read
        if view_read is not None:
            # delta-view lowering (repro.ivm): served from incrementally
            # maintained state in O(groups)
            return view_read.view.ext_rows(view_read.agg_map)
        c = plan.compiled
        table = self.table(plan.access.table)
        rows: Any
        if c.access.kind == "seq":
            # storage() is rowid-ordered (Table heals after txn undo)
            rows = table.storage().values()
        else:
            rowids = self._probe(table, plan.access, c.access, (), params)
            rows = list(map(table.storage().__getitem__, rowids)) if rowids else []

        for step, (caccess, on) in zip(plan.joins, c.joins):
            joined: list[tuple[Any, ...]] = []
            null_pad = (None,) * step.inner_width
            inner_table = self.table(step.access.table)
            get = inner_table.storage().__getitem__
            # the inner table cannot change mid-statement: a seq-scan inner is
            # materialized once, an index probe binds its entries dict once
            if caccess.kind == "eq":
                entries = inner_table.index(step.access.index).entries()
            elif caccess.kind == "seq":
                all_inner = list(inner_table.storage().values())
            for outer in rows:
                if caccess.kind == "eq":
                    rowids = entries.get(caccess.key(outer, params, self))
                    inner_rows = list(map(get, sorted(rowids))) if rowids else ()
                elif caccess.kind == "seq":
                    inner_rows = all_inner
                else:
                    rowids = self._probe(inner_table, step.access, caccess, outer, params)
                    inner_rows = list(map(get, rowids))
                matched = list(map(outer.__add__, inner_rows))
                if on is not None:
                    matched = on(matched, params, self)
                if matched:
                    joined.extend(matched)
                elif step.left_outer:
                    joined.append(outer + null_pad)
            rows = joined

        if c.where is not None:
            rows = c.where(rows, params, self)
        if c.group is not None:
            return c.group(rows, params, self)
        return rows

    def _post(
        self, plan: SelectPlan, params: tuple[Any, ...], ext_rows: Any
    ) -> ResultSet:
        """HAVING → projection → DISTINCT → ORDER → LIMIT on extended rows."""
        c = plan.compiled
        if c.having is not None:
            ext_rows = c.having(ext_rows, params, self)
        rows = c.project(ext_rows, params, self)
        if plan.distinct:
            first: dict[tuple[Any, ...], tuple[Any, ...]] = {}
            for out, ext_row in zip(rows, ext_rows):
                first.setdefault(out, ext_row)
            rows, ext_rows = list(first), list(first.values())
        if c.order is not None:
            rows = c.order_sort(c.order(ext_rows, params, self), rows)
        if plan.offset:
            rows = rows[plan.offset :]
        if plan.limit is not None:
            rows = rows[: plan.limit]
        return ResultSet(columns=list(plan.output_names), rows=rows)

    # -- UPDATE / DELETE -----------------------------------------------------------

    def _matches(
        self, table: Table, plan: UpdatePlan | DeletePlan, params: tuple[Any, ...]
    ) -> list[int]:
        """Rowids of the access path's rows that pass the kernel's WHERE."""
        c = plan.compiled
        rowids = self._probe(table, plan.access, c.access, (), params)
        if c.match is None:
            return rowids
        return c.match(rowids, table.storage(), params, self)

    def _update_compiled(
        self, plan: UpdatePlan, params: tuple[Any, ...], txn: TransactionContext
    ) -> int:
        table = self.table(plan.table)
        matches = self._matches(table, plan, params)
        assign = plan.compiled.assign
        storage = table.storage()
        for rowid in matches:
            before = table.update(rowid, assign(storage[rowid], params, self))
            txn.record_update(plan.table, rowid, before)

        self.stats.rows_updated += len(matches)
        return len(matches)

    def _delete_compiled(
        self, plan: DeletePlan, params: tuple[Any, ...], txn: TransactionContext
    ) -> int:
        table = self.table(plan.table)
        matches = self._matches(table, plan, params)

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
        if plan.select is not None:
            source = plan.select
            value_rows = source.run(self, source, params, None).rows
        else:
            value_rows = compiled.values((), params, self)

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
