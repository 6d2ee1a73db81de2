"""Shared builders for the multi-process partition-execution suite."""

from __future__ import annotations

import pytest

from repro.parallel import ParallelHStoreEngine

from tests.parallel.procs import (
    AbortOnNegative,
    BumpAll,
    CountEverywhere,
    GetKV,
    PoisonedEverywhere,
    PutKV,
)

_DDL = [
    "CREATE TABLE kv (k INTEGER NOT NULL, v VARCHAR(64), PRIMARY KEY (k))",
    "CREATE TABLE audit (tag INTEGER NOT NULL, note VARCHAR(64))",
]

_PROCEDURES = [
    PutKV,
    GetKV,
    BumpAll,
    CountEverywhere,
    AbortOnNegative,
    PoisonedEverywhere,
]


def build_cluster(workers: int = 2, **kwargs) -> ParallelHStoreEngine:
    """A ready-to-use cluster with the kv/audit schema and all procedures.

    ``log_group_size=1`` by default: the recovery-equivalence checker's
    exactly-once resumption needs every committed op durable immediately
    (see the checker's module docstring).
    """
    kwargs.setdefault("log_group_size", 1)
    engine = ParallelHStoreEngine(workers, **kwargs)
    for ddl in _DDL:
        engine.execute_ddl(ddl)
    for procedure in _PROCEDURES:
        engine.register_procedure(procedure)
    return engine


@pytest.fixture
def cluster():
    engine = build_cluster(workers=2)
    yield engine
    engine.shutdown()
