"""Shared builders for the fault-injection suite.

Every test here derives its fault schedule from ``fault_seed``, which the
``make faults`` target sweeps over five fixed seeds via the
``REPRO_FAULT_SEED`` environment variable — same tests, five deterministic
fault schedules.
"""

from __future__ import annotations

import os

import pytest

from repro.core.engine import SStoreEngine, StreamProcedure
from repro.core.workflow import WorkflowSpec
from repro.hstore.codec import decode_frame
from repro.hstore.engine import HStoreEngine
from repro.hstore.procedure import StoredProcedure


@pytest.fixture
def fault_seed() -> int:
    return int(os.environ.get("REPRO_FAULT_SEED", "0"))


def frame_ends(raw: bytes) -> list[int]:
    """The byte just past each whole frame of a command log's ``raw`` bytes."""
    ends: list[int] = []
    framed = decode_frame(raw, 0)
    while framed is not None:
        ends.append(framed[1])
        framed = decode_frame(raw, framed[1])
    return ends


class Put(StoredProcedure):
    name = "put"
    statements = {"ins": "INSERT INTO kv VALUES (?, ?)"}

    def run(self, ctx, key, value):
        ctx.execute("ins", key, value)


def make_kv(**kwargs) -> HStoreEngine:
    """A minimal durable OLTP engine: one table, one write procedure."""
    eng = HStoreEngine(**kwargs)
    eng.execute_ddl(
        "CREATE TABLE kv (k INTEGER NOT NULL, v VARCHAR(16), PRIMARY KEY (k))"
    )
    eng.register_procedure(Put)
    return eng


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


def make_tally(batch_size: int = 1, **kwargs) -> SStoreEngine:
    """A one-node streaming workflow counting keys — the checker workhorse."""
    eng = SStoreEngine(**kwargs)
    eng.execute_ddl("CREATE STREAM keys (k INTEGER)")
    eng.execute_ddl(
        "CREATE TABLE counts (k INTEGER NOT NULL, n INTEGER, PRIMARY KEY (k))"
    )
    eng.register_procedure(Tally)
    wf = WorkflowSpec("wf")
    wf.add_node("tally", input_stream="keys", batch_size=batch_size)
    eng.deploy_workflow(wf)
    return eng


def tally_ops(count: int = 20, *, modulo: int = 5, snapshot_at: int | None = 10):
    """A deterministic client workload for the tally engine."""
    ops: list[tuple] = [("ingest", "keys", [(i % modulo,)]) for i in range(count)]
    ops.insert(count // 4, ("tick", 1))
    if snapshot_at is not None:
        ops.insert(min(snapshot_at, len(ops)), ("snapshot",))
    return ops
