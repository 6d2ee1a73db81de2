"""Property tests: SQL rendering round-trips and scheduler ordering."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchFactory
from repro.core.scheduler import StreamScheduler, StreamTask
from repro.hstore.parser import parse
from tests.oracle import OracleContext, evaluate

# ---------------------------------------------------------------------------
# expression.sql() → parse → eval equivalence
# ---------------------------------------------------------------------------

_literals = st.one_of(
    st.integers(-50, 50),
    st.booleans(),
    st.none(),
    st.text(alphabet="xyz ", max_size=5),
)
_columns = st.sampled_from(["a", "b"])


@st.composite
def expression_sql(draw, depth=0):
    """Random expression *text* drawn from the supported grammar."""
    choices = ["literal", "column"]
    if depth < 3:
        choices += ["arith", "compare", "bool", "not", "case", "func", "in"]
    kind = draw(st.sampled_from(choices))
    if kind == "literal":
        value = draw(_literals)
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        return str(value)
    if kind == "column":
        return draw(_columns)
    if kind == "arith":
        op = draw(st.sampled_from(["+", "-", "*"]))
        left = draw(expression_sql(depth + 1))
        right = draw(expression_sql(depth + 1))
        return f"({left} {op} {right})"
    if kind == "compare":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        left = draw(st.integers(-9, 9))
        right = draw(st.sampled_from(["a", "b"]))
        return f"({left} {op} {right})"
    if kind == "bool":
        op = draw(st.sampled_from(["AND", "OR"]))
        left = draw(expression_sql(depth + 1))
        right = draw(expression_sql(depth + 1))
        return f"({left} {op} {right})"
    if kind == "not":
        return f"(NOT {draw(expression_sql(depth + 1))})"
    if kind == "case":
        when = draw(expression_sql(depth + 1))
        then = draw(st.integers(-9, 9))
        other = draw(st.integers(-9, 9))
        return f"CASE WHEN {when} THEN {then} ELSE {other} END"
    if kind == "func":
        return f"ABS({draw(st.integers(-9, 9))})"
    if kind == "in":
        options = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3))
        rendered = ", ".join(str(option) for option in options)
        return f"(a IN ({rendered}))"
    raise AssertionError(kind)


def _eval_text(text: str, row: tuple) -> object:
    stmt = parse(f"SELECT {text} FROM t")
    expr = stmt.items[0].expr
    ctx = OracleContext(columns={"a": 0, "b": 1}, row=row)
    try:
        return ("ok", evaluate(expr, ctx))
    except Exception as exc:  # noqa: BLE001 - compare error classes
        return ("err", type(exc).__name__)


@settings(max_examples=200, deadline=None)
@given(
    text=expression_sql(),
    a=st.integers(-10, 10),
    b=st.integers(-10, 10),
)
def test_sql_rendering_roundtrip(text, a, b):
    """parse(expr.sql()) evaluates identically to the original parse."""
    stmt = parse(f"SELECT {text} FROM t")
    original = stmt.items[0].expr
    rendered = original.sql()
    outcome_first = _eval_text(text, (a, b))
    outcome_second = _eval_text(rendered, (a, b))
    assert outcome_first == outcome_second


# ---------------------------------------------------------------------------
# scheduler ordering property
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    plan=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 3)),  # (origin idx, depth)
        min_size=1,
        max_size=30,
    )
)
def test_scheduler_pops_in_priority_order(plan):
    factory = BatchFactory()
    origins = [factory.origin_batch("s", [(i,)]) for i in range(6)]
    scheduler = StreamScheduler()
    for origin_index, depth in plan:
        batch = factory.derived_batch(origins[origin_index], "s", [(0,)])
        scheduler.enqueue(
            StreamTask(
                procedure_name=f"p{depth}",
                batch=batch,
                depth=depth,
                workflow_name="wf",
            )
        )
    popped = []
    while scheduler.has_pending:
        task = scheduler.pop_next()
        popped.append((task.batch.origin_batch_id, task.depth))
    assert popped == sorted(popped, key=lambda pair: (pair[0], pair[1]))
