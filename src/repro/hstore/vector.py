"""The column form of the expression lowering: batch-at-a-time evaluation.

:func:`repro.hstore.compile.lower_expr` is the one node dispatch; handed
:data:`COLUMN` it builds, per expression, a closure evaluated once per
*statement*: it takes a :class:`VectorContext` over a table's
:class:`~repro.hstore.columnar.ColumnCache` and returns either a whole
column of results or a :class:`Broadcast` (one value standing for the
entire vector — literals, parameters, and constant folds).  The scalar
form (:data:`repro.hstore.compile.SCALAR`) builds the per-row closure from
the same node and the same kernel.

Semantics contract
------------------

The vector path must be *bit-identical* to the row path on success:

* a strict node's kernel is lifted elementwise (``_lift1`` / ``_lift2`` /
  ``_liftn``: a NULL operand yields NULL for that element), and AND/OR
  implement the same three-valued logic as the row form — including its
  "falsy is false" treatment of non-boolean operands — with ``BoolVec``
  tagging the vectors proven NULL-free;
* aggregates are :func:`repro.hstore.aggregate.fold` over the selected
  argument column, through the same grouped driver the row closures feed;
* evaluation is *eager* — there is no per-row short-circuit, so an
  expression that the row path would never evaluate for some row
  (``x <> 0 AND 10 / x > 1``) can raise here.  Column closures therefore
  make no attempt to replicate error channels (comparisons use the bare
  ``operator`` kernels): the executor catches any exception from a vector
  evaluation *before* mutating anything and re-runs the statement through
  the row closures, which raise (or don't) with oracle semantics.

CASE, subqueries and nodes that only raise have no column form: lowering
returns ``None`` and the whole statement stays on the row path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import and_, is_, is_not, or_
from typing import Any, Callable, Sequence

from repro.errors import BindingError
from repro.hstore.expression import _COMPARATORS

__all__ = [
    "COLUMN",
    "Broadcast",
    "VectorContext",
    "VectorSelect",
    "normalize_mask",
    "selected_values",
]


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

def _lower_bool(conjunction: bool, operands: list[VecFn | None]) -> VecFn | None:
    if any(fn is None for fn in operands):
        return None

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
# the column form: what repro.hstore.compile.lower_expr builds from

class _ColumnForm:
    """The column form of :func:`repro.hstore.compile.lower_expr`:
    ``VectorContext -> column | Broadcast`` closures, or ``None``."""

    boolean = staticmethod(_lower_bool)
    is_null = staticmethod(_lower_is_null)
    in_list = staticmethod(_lower_in_list)
    coalesce = staticmethod(_lower_coalesce)

    def const(self, value: Any) -> VecFn:
        return lambda v: Broadcast(value)

    def column(self, offset: int) -> VecFn:
        return lambda v: v.store.column(offset)

    def param(self, index: int) -> VecFn:
        def run_param(v: VectorContext) -> Any:
            params = v.params
            if index >= len(params):
                # executor falls back; the row path raises the canonical
                # BindingError (or doesn't, if no row reaches the parameter)
                raise BindingError(f"statement parameter ${index + 1} not bound")
            return Broadcast(params[index])

        return run_param

    def strict(
        self, kernel: Callable[..., Any], *operands: VecFn | None
    ) -> VecFn | None:
        if len(operands) == 1:
            return _lift1(kernel, operands[0])
        if len(operands) == 2:
            return _lift2(kernel, *operands)
        return _liftn(kernel, list(operands))

    def compare(
        self, op: str, left: VecFn | None, right: VecFn | None
    ) -> VecFn | None:
        return _lift2(_COMPARATORS[op], left, right, wrap=BoolVec)

    def case(self, *_args: Any) -> None:
        """CASE, subqueries and raising nodes have no column form."""
        return None

    in_subquery = exists = scalar_subquery = fail = case


#: the column form of :func:`repro.hstore.compile.lower_expr`
COLUMN = _ColumnForm()


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
    """Vector artifacts for a full-scan SELECT: the WHERE mask, and the
    group-key and aggregate-argument columns the executor's grouped driver
    folds.  Projection and everything after it run over the extended rows
    the executor builds from these, as on the row path."""

    where: VecFn | None
    group_keys: tuple[VecFn, ...]
    agg_specs: tuple[tuple[str, VecFn | None, bool], ...]
