"""Delta views: GROUP BY aggregates maintained at the cost of the *change*.

The model is DBSP's Z-set view of a window: the window's contents are a
multiset, each maintenance event is a batch of weighted tuples (+1 admit,
-1 expire), and a view is a group-indexed fold over that delta stream.  The
fold is exact and O(1) per tuple for COUNT/``COUNT(*)`` and for SUM/AVG over
ints (Python ints are arbitrary-precision, so addition/subtraction is
order-independent); MIN/MAX cache the current extreme and repair lazily.

**Oracle parity rule.**  A statement kernel folds each group's values (and
the tree-walking oracle in ``tests/oracle.py`` feeds each group's
accumulator) in *rowid order* — that is what a SeqScan produces — with
``value < min`` strict comparisons, so the first-encountered value wins
ties, and float sums accumulate in scan order.  Every place this module cannot maintain a value incrementally it
therefore falls back to refolding **the group's live values in sorted rowid
order** with :func:`repro.hstore.aggregate.fold`, the oracle's exact fold:

* MIN/MAX: deleting a row whose value equals the cached extreme (or is
  NaN) marks the group-aggregate *dirty*; the next read rescans that one
  group (counted in ``ivm_repairs``).  Inserts keep the strict-comparison
  update, so tie-keeping matches the oracle without repair.
* SUM/AVG: the first non-int value flips the group-aggregate to
  recompute-on-read (float addition does not commute bit-for-bit, so
  incremental subtraction would drift).  Int-only groups never repair.

Group emission order also matches the oracle: a row scan emits groups
in first-appearance order of the rowid-ordered scan, i.e. ordered by each
group's minimum live rowid.  Rowids are assigned monotonically and admits
arrive in increasing rowid order, so each group's insertion-ordered row
dict yields its minimum live rowid in O(1) (``next(iter(rows))``), and a
read sorts the groups by that key — O(G log G), independent of window size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import CatalogError
from repro.hstore.aggregate import fold
from repro.hstore.expression import AggregateCall, ColumnRef
from repro.hstore.planner import SeqScan, SelectPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hstore.stats import EngineStats
    from repro.hstore.table import Table
    from repro.obs.metrics import MetricsRegistry

__all__ = ["AggSpec", "DeltaView", "ViewRead", "derive_view_shape", "match_plan"]

#: aggregate kinds a delta view maintains (DISTINCT aggregates never qualify)
_KINDS = ("count_star", "count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class AggSpec:
    """One maintained aggregate: a kind plus its source-column offset."""

    kind: str  # one of _KINDS
    offset: int | None  # None only for count_star

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise CatalogError(f"unsupported view aggregate kind {self.kind!r}")


@dataclass(frozen=True)
class ViewRead:
    """Plan attachment: serve this SELECT's extended rows from ``view``.

    ``agg_map[i]`` is the view-spec index backing the plan's i-th aggregate
    (a query may list the view's aggregates in any order or repeat them).
    """

    view: "DeltaView"
    agg_map: tuple[int, ...]


class _AggState:
    """Per-group incremental state of one aggregate."""

    __slots__ = ("count", "total", "extreme", "dirty", "exact")

    def __init__(self) -> None:
        self.count = 0  # live non-null values
        self.total: Any = None  # running sum (exact int mode only)
        self.extreme: Any = None  # cached MIN/MAX
        self.dirty = False  # MIN/MAX needs a repair scan
        self.exact = True  # SUM/AVG still maintained incrementally


class _Group:
    __slots__ = ("rows", "aggs")

    def __init__(self, agg_count: int) -> None:
        #: live rows by rowid; insertion-ordered, so next(iter(rows)) is the
        #: minimum live rowid (admits arrive in increasing rowid order and
        #: expiry only ever removes entries)
        self.rows: dict[int, tuple[Any, ...]] = {}
        self.aggs = [_AggState() for _ in range(agg_count)]


class DeltaView:
    """Incrementally maintained GROUP BY aggregate state over one window."""

    def __init__(
        self,
        name: str,
        table_name: str,
        group_offsets: tuple[int, ...],
        specs: tuple[AggSpec, ...],
        stats: "EngineStats",
        sql: str = "",
    ) -> None:
        self.name = name.lower()
        self.table_name = table_name.lower()
        self.group_offsets = group_offsets
        self.specs = specs
        self.sql = sql
        self._stats = stats
        self._groups: dict[tuple[Any, ...], _Group] = {}
        # optional repro.obs binding (None = metrics off, zero overhead); the
        # counts live in EngineStats (ivm_deltas_applied, ivm_view_hits,
        # ivm_repairs), which the registry reads at export
        self._apply_hist: Any = None

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        self._apply_hist = registry.histogram(
            "view_apply_us",
            "time to fold one window delta batch into its views",
            view=self.name,
        )

    # ------------------------------------------------------------------
    # Delta application (called inside the maintaining transaction)
    # ------------------------------------------------------------------

    def apply(
        self,
        rowids: list[int],
        rows: list[tuple[Any, ...]],
        weight: int,
    ) -> None:
        """Fold one weighted batch: +1 admits, -1 expires."""
        started = time.perf_counter_ns() if self._apply_hist is not None else 0
        self._apply(rowids, rows, weight)
        self._stats.bump("ivm_deltas_applied", len(rows))
        if self._apply_hist is not None:
            self._apply_hist.observe((time.perf_counter_ns() - started) / 1000.0)

    def _apply(
        self,
        rowids: list[int],
        rows: list[tuple[Any, ...]],
        weight: int,
    ) -> None:
        groups = self._groups
        offsets = self.group_offsets
        specs = self.specs
        agg_count = len(specs)
        admit = weight > 0
        for rowid, row in zip(rowids, rows):
            key = tuple(row[o] for o in offsets)
            group = groups.get(key)
            if admit:
                if group is None:
                    group = _Group(agg_count)
                    groups[key] = group
                group.rows[rowid] = row
                for spec, state in zip(specs, group.aggs):
                    self._feed(spec, state, row)
            else:
                if group is None:
                    raise CatalogError(
                        f"delta view {self.name!r}: -1 delta for unknown "
                        f"group {key!r} (window/view state diverged)"
                    )
                del group.rows[rowid]
                if not group.rows:
                    # the group vanished; all per-aggregate state dies with it
                    del groups[key]
                    continue
                for spec, state in zip(specs, group.aggs):
                    self._unfeed(spec, state, row)

    @staticmethod
    def _feed(spec: AggSpec, state: _AggState, row: tuple[Any, ...]) -> None:
        kind = spec.kind
        if kind == "count_star":
            return  # len(group.rows) is the count; nothing to track
        value = row[spec.offset]
        if value is None:
            return  # SQL aggregates ignore NULLs
        if kind == "count":
            state.count += 1
            return
        if kind in ("sum", "avg"):
            state.count += 1
            if state.exact:
                # bool is excluded on purpose: the oracle's first-value
                # seeding would surface bool-typed sums we cannot reproduce
                # incrementally, so bools take the recompute path
                if type(value) is int:
                    state.total = (
                        value if state.total is None else state.total + value
                    )
                else:
                    state.exact = False
                    state.total = None
            return
        # min / max
        state.count += 1
        if state.dirty:
            return
        if state.extreme is None:
            state.extreme = value
            return
        try:
            if kind == "min":
                if value < state.extreme:
                    state.extreme = value
            else:
                if value > state.extreme:
                    state.extreme = value
        except TypeError:
            # incomparable mix: defer to the repair scan, which raises at
            # read time exactly where the oracle's accumulator would
            state.dirty = True

    @staticmethod
    def _unfeed(spec: AggSpec, state: _AggState, row: tuple[Any, ...]) -> None:
        kind = spec.kind
        if kind == "count_star":
            return
        value = row[spec.offset]
        if value is None:
            return
        if kind == "count":
            state.count -= 1
            return
        if kind in ("sum", "avg"):
            state.count -= 1
            if state.exact:
                if state.count == 0:
                    state.total = None
                else:
                    state.total -= value
            return
        # min / max
        state.count -= 1
        if state.count == 0:
            state.extreme = None
            state.dirty = False
            return
        if state.dirty:
            return
        # invalidation rule: removing the cached extreme (or any NaN, whose
        # comparisons are all False) may promote another row — repair lazily
        if value is state.extreme or value == state.extreme or value != value:
            state.dirty = True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def ext_rows(
        self, agg_map: tuple[int, ...] | None = None
    ) -> list[tuple[Any, ...]]:
        """Extended rows (group key + aggregate values), oracle-ordered."""
        self._stats.bump("ivm_view_hits")
        groups = self._groups
        if not groups:
            if self.group_offsets:
                return []
            # global aggregation over an empty window still yields one row
            defaults = tuple(
                0 if spec.kind in ("count_star", "count") else None
                for spec in self.specs
            )
            if agg_map is not None:
                defaults = tuple(defaults[i] for i in agg_map)
            return [defaults]
        ordered = sorted(groups.items(), key=lambda kv: next(iter(kv[1].rows)))
        rows: list[tuple[Any, ...]] = []
        for key, group in ordered:
            values = tuple(
                self._result(spec, state, group)
                for spec, state in zip(self.specs, group.aggs)
            )
            if agg_map is not None:
                values = tuple(values[i] for i in agg_map)
            rows.append(key + values)
        return rows

    def _result(self, spec: AggSpec, state: _AggState, group: _Group) -> Any:
        kind = spec.kind
        if kind == "count_star":
            return len(group.rows)
        if kind == "count":
            return state.count
        if kind in ("sum", "avg"):
            if not state.exact:
                return self._refold(kind, spec.offset, group)
            if state.count == 0:
                return None
            return state.total if kind == "sum" else state.total / state.count
        # min / max
        if state.dirty:
            state.extreme = self._refold(kind, spec.offset, group)
            state.dirty = False
        return state.extreme

    def _refold(self, kind: str, offset: int, group: _Group) -> Any:
        """Recompute one aggregate of one group from its live rows, in rowid
        order — the oracle's fold, for what cannot be retracted exactly."""
        self._stats.bump("ivm_repairs")
        rows = group.rows
        return fold(kind, [rows[rowid][offset] for rowid in sorted(rows)], False)

    # ------------------------------------------------------------------
    # Rebuild (abort rollback, recovery, initial registration)
    # ------------------------------------------------------------------

    def rebuild(self, table: "Table") -> None:
        """Recompute the view from its backing table (O(window), rare)."""
        self._groups.clear()
        storage = table.storage()
        if storage:
            rowids = sorted(storage)
            self._apply(rowids, [storage[r] for r in rowids], 1)
        self._stats.bump("ivm_rebuilds")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        aggs = ", ".join(
            f"{s.kind}@{s.offset}" if s.offset is not None else s.kind
            for s in self.specs
        )
        return (
            f"DeltaView({self.name!r} ON {self.table_name!r}, "
            f"groups={self.group_offsets}, aggs=[{aggs}])"
        )


# ---------------------------------------------------------------------------
# Plan matching: which SELECTs a view can serve
# ---------------------------------------------------------------------------


def _agg_spec_of(
    agg: AggregateCall, columns: dict[str, int]
) -> AggSpec | None:
    """Map one plan aggregate to a maintainable spec (None = ineligible)."""
    if agg.distinct:
        return None  # DISTINCT needs per-group value multisets; scan instead
    if agg.arg is None:
        return AggSpec("count_star", None) if agg.name == "count" else None
    if not isinstance(agg.arg, ColumnRef):
        return None
    offset = columns.get(agg.arg.key)
    if offset is None:
        return None
    if agg.name not in ("count", "sum", "avg", "min", "max"):
        return None
    return AggSpec(agg.name, offset)


def _plain_group_offsets(plan: SelectPlan) -> tuple[int, ...] | None:
    """Group-key column offsets iff every group expr is a plain column."""
    offsets: list[int] = []
    for expr in plan.group_exprs:
        if not isinstance(expr, ColumnRef):
            return None
        offset = plan.columns.get(expr.key)
        if offset is None:
            return None
        offsets.append(offset)
    return tuple(offsets)


def derive_view_shape(
    plan: SelectPlan,
) -> tuple[str, tuple[int, ...], tuple[AggSpec, ...]]:
    """Validate a CREATE VIEW definition plan; returns (table, groups, specs).

    The definition must be the plain maintainable shape — a grouped
    aggregate over one window-backed SeqScan with no predicates or
    post-processing.  Queries *against* the view may add HAVING / ORDER /
    LIMIT / DISTINCT freely (:func:`match_plan` allows them: they run over
    the view's O(groups) output).
    """
    if not isinstance(plan, SelectPlan):
        raise CatalogError("a view is defined by a SELECT statement")
    if plan.joins or plan.where is not None:
        raise CatalogError(
            "delta views maintain plain grouped aggregates; joins and WHERE "
            "clauses are not incrementally maintainable here"
        )
    if not plan.grouped:
        raise CatalogError(
            "a delta view needs at least one aggregate (COUNT/SUM/AVG/MIN/MAX)"
        )
    if plan.having is not None or plan.order_by or plan.limit is not None:
        raise CatalogError(
            "define the view as the bare grouped aggregate; apply HAVING/"
            "ORDER BY/LIMIT in the queries that read it"
        )
    if plan.distinct:
        raise CatalogError("SELECT DISTINCT cannot define a delta view")
    if plan.param_count:
        raise CatalogError("a view definition cannot take ? parameters")
    if not isinstance(plan.access, SeqScan):
        raise CatalogError("a delta view is defined over a full window scan")
    group_offsets = _plain_group_offsets(plan)
    if group_offsets is None:
        raise CatalogError("view GROUP BY keys must be plain columns")
    specs: list[AggSpec] = []
    for agg in plan.aggregates:
        spec = _agg_spec_of(agg, plan.columns)
        if spec is None:
            raise CatalogError(
                f"aggregate {agg.sql()} is not incrementally maintainable "
                f"(needs a plain non-DISTINCT column argument)"
            )
        specs.append(spec)
    return plan.access.table, group_offsets, tuple(specs)


def match_plan(view: DeltaView, plan: SelectPlan) -> tuple[int, ...] | None:
    """agg_map if ``view`` can serve ``plan``'s scan+aggregate stage.

    The caller has already checked the cheap gates (SeqScan on the view's
    table, no joins/WHERE, grouped).  Here the group keys must match the
    view's exactly (same columns, same order) and every plan aggregate must
    be one the view maintains.  HAVING, projection, DISTINCT, ORDER BY and
    LIMIT are untouched: they run downstream over the view's output.
    """
    if _plain_group_offsets(plan) != view.group_offsets:
        return None
    agg_map: list[int] = []
    for agg in plan.aggregates:
        spec = _agg_spec_of(agg, plan.columns)
        if spec is None:
            return None
        try:
            agg_map.append(view.specs.index(spec))
        except ValueError:
            return None
    return tuple(agg_map)
