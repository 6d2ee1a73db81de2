"""Property tests: file-backed durability round-trips arbitrary histories.

Any prefix of work, any snapshot placement, a full process restart — the
restored engine's observable state must equal the original's, and the
engine must keep working (and persisting) afterwards.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings, strategies as st

from repro.core.engine import SStoreEngine, StreamProcedure
from repro.core.workflow import WorkflowSpec


class Tally(StreamProcedure):
    name = "tally"
    statements = {
        "get": "SELECT n FROM counts WHERE k = ?",
        "new": "INSERT INTO counts VALUES (?, 1)",
        "add": "UPDATE counts SET n = n + 1 WHERE k = ?",
    }

    def run(self, ctx):
        for (k,) in ctx.batch:
            if ctx.execute("get", k).first() is None:
                ctx.execute("new", k)
            else:
                ctx.execute("add", k)


def build(batch_size: int) -> SStoreEngine:
    eng = SStoreEngine()
    eng.execute_ddl("CREATE STREAM keys (k INTEGER)")
    eng.execute_ddl(
        "CREATE TABLE counts (k INTEGER NOT NULL, n INTEGER, PRIMARY KEY (k))"
    )
    eng.register_procedure(Tally)
    wf = WorkflowSpec("wf")
    wf.add_node("tally", input_stream="keys", batch_size=batch_size)
    eng.deploy_workflow(wf)
    return eng


@settings(max_examples=20, deadline=None)
@given(
    keys=st.lists(st.integers(0, 8), min_size=1, max_size=40),
    batch_size=st.integers(1, 4),
    snapshot_at=st.one_of(st.none(), st.integers(0, 40)),
    extra_keys=st.lists(st.integers(0, 8), max_size=10),
)
def test_restart_roundtrip_any_history(keys, batch_size, snapshot_at, extra_keys):
    with tempfile.TemporaryDirectory() as tmp:
        first = build(batch_size)
        first.enable_durability(tmp)
        for index, key in enumerate(keys):
            first.ingest("keys", [(key,)])
            if snapshot_at is not None and index == snapshot_at:
                first.take_snapshot()
        fingerprint = first.observe()
        clock = first.clock.now
        del first

        second = build(batch_size)
        second.restore_from_disk(tmp)
        assert second.observe() == fingerprint
        assert second.clock.now == clock

        # the restored engine keeps working and persisting
        for key in extra_keys:
            second.ingest("keys", [(key,)])
        fingerprint2 = second.observe()
        del second

        third = build(batch_size)
        third.restore_from_disk(tmp)
        assert third.observe() == fingerprint2
