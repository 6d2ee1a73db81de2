"""Property: text from SQL never becomes kernel source.

Every SQL string literal is a name in its statement kernel's namespace and
every parameter is read from ``params`` (``repro.hstore.compile``), so the
generated source is the same whatever a literal says.  Hypothesis draws
string literals and string-valued parameters built from quotes,
backslashes, newlines, triple quotes, ``#`` and ``__import__``, each
starting with a non-ASCII marker no generated source contains, and checks
that every literal comes back exactly and that no kernel's source text —
as ``EXPLAIN`` prints it, nested subqueries included — contains it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hstore.engine import HStoreEngine

pytestmark = pytest.mark.compile

MARK = "§"

pieces = st.sampled_from(
    ["'", "''", '"', '"""', "'''", "\\", "\\n", "\n", "\r", "#", "__import__('os')",
     "{0}", "%s", ")", "]", "row", "params", " ", "\t"]
)
text = st.lists(pieces, max_size=6).map(lambda parts: MARK + "".join(parts))


def quoted(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def kernel_source(explained: str) -> str:
    """The kernel lines of an ``EXPLAIN`` (``| `` under a mode line)."""
    return "\n".join(
        line.strip()[1:] for line in explained.splitlines() if line.strip().startswith("|")
    )


@settings(max_examples=60, deadline=None)
@given(literal=text, param=text)
def test_literals_come_back_exactly_and_never_reach_source(literal, param):
    engine = HStoreEngine()
    engine.execute_ddl("CREATE TABLE t (id INTEGER NOT NULL, s VARCHAR, PRIMARY KEY (id))")
    lit = quoted(literal)
    statements = [
        (f"INSERT INTO t VALUES (1, ?), (2, {lit})", (param,), 2),
        (
            f"SELECT {lit}, s, COALESCE(NULL, {lit}), "
            f"CASE s WHEN {lit} THEN ? ELSE {lit} || s END FROM t ORDER BY id",
            (param,),
            [
                (literal, param, literal, param if param == literal else literal + param),
                (literal, literal, literal, param),
            ],
        ),
        (
            f"SELECT id FROM t WHERE s = {lit} OR s IN (?, {lit}) ORDER BY id",
            (param,),
            [(1,), (2,)],
        ),
        (
            f"SELECT id FROM t WHERE id IN (SELECT id FROM t WHERE s = {lit}) "
            f"AND s <> ? ORDER BY id",
            (param,),
            [(2,)] if literal != param else [],
        ),
        (
            f"UPDATE t SET s = {lit} || ? WHERE s = ?",
            (param, param),
            1 + (literal == param),
        ),
        (
            "SELECT s FROM t ORDER BY id",
            (),
            [(literal + param,), (literal + param if literal == param else literal,)],
        ),
    ]
    for sql, params, want in statements:
        source = kernel_source(engine.explain(sql))
        assert MARK not in source, sql
        got = engine.execute_sql(sql, *params)
        assert (got if isinstance(got, int) else got.rows) == want, sql
