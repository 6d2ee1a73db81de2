"""Shared builders for the delta-view (repro.ivm) suite.

Every differential test here drives TWO engines with identical inputs:

* the *view engine* — compiled plans, a registered delta view, so eligible
  aggregate SELECTs are served from O(groups) incremental state;
* the *oracle* — :func:`tests.oracle.oracle_arm` and no view, so the same
  SELECT runs through the tree-walking interpreter's full window scan.

The two must agree bit-for-bit (values AND types — an int SUM must not
come back as a float) on every prefix of every input sequence.
"""

from __future__ import annotations

from repro.core.engine import SStoreEngine, StreamProcedure
from repro.core.workflow import WorkflowSpec
from tests.oracle import oracle_arm


class Sink(StreamProcedure):
    """Pass-through consumer: windows slide, nothing else happens."""

    name = "sink"
    statements = {}

    def run(self, ctx) -> None:
        pass


def build_engine(
    window_ddl: str,
    *,
    oracle: bool = False,
    view_sql: str | None = None,
    **kwargs,
) -> SStoreEngine:
    """One engine with stream ``s (ts, g, v)``, a window, and optionally a
    view; ``oracle=True`` runs its statements on the interpreter."""
    eng = SStoreEngine(**kwargs)
    if oracle:
        oracle_arm(eng)
    eng.execute_ddl(
        "CREATE STREAM s (ts TIMESTAMP, g INTEGER, v INTEGER, f FLOAT)"
    )
    eng.execute_ddl(window_ddl)
    if view_sql is not None:
        eng.execute_ddl(view_sql)
    eng.register_procedure(Sink)
    spec = WorkflowSpec("wf")
    spec.add_node("sink", input_stream="s", batch_size=1)
    eng.deploy_workflow(spec)
    return eng


def assert_rows_identical(got, want, context=""):
    """Bit-for-bit: same rows, same order, same Python types per cell."""
    assert got == want, f"{context}: {got!r} != {want!r}"
    got_types = [[type(cell) for cell in row] for row in got]
    want_types = [[type(cell) for cell in row] for row in want]
    assert got_types == want_types, (
        f"{context}: equal values but diverging types: "
        f"{got_types} != {want_types}"
    )
