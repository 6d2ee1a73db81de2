"""Stored procedures for the parallel suite.

These live at module level (not inside test functions) because
:meth:`ParallelHStoreEngine.register_procedure` ships the *class* to each
worker process — classes pickle by reference, so the defining module must
be resolvable in the child.
"""

from __future__ import annotations

from repro.apps.voter.procedures import ValidateVote
from repro.errors import TransactionAborted
from repro.hstore.procedure import StoredProcedure


class PutKV(StoredProcedure):
    """Single-partition writer routed on the key — one log record per call."""

    name = "PutKV"
    partition_param = 0
    statements = {"ins": "INSERT INTO kv (k, v) VALUES (?, ?)"}

    def run(self, ctx, key, value):
        ctx.execute("ins", key, value)
        return key


class GetKV(StoredProcedure):
    name = "GetKV"
    partition_param = 0
    read_only = True
    statements = {"get": "SELECT v FROM kv WHERE k = ?"}

    def run(self, ctx, key):
        return ctx.execute("get", key).scalar()


class BumpAll(StoredProcedure):
    """Run-everywhere writer: appends an audit row on every partition."""

    name = "BumpAll"
    run_everywhere = True
    statements = {"ins": "INSERT INTO audit (tag, note) VALUES (?, ?)"}

    def run(self, ctx, tag, note):
        ctx.execute("ins", tag, note)
        return ctx.partition_id


class CountEverywhere(StoredProcedure):
    name = "CountEverywhere"
    run_everywhere = True
    read_only = True
    statements = {"cnt": "SELECT COUNT(*) AS n FROM kv"}

    def run(self, ctx):
        return ctx.execute("cnt").scalar()


class AbortOnNegative(StoredProcedure):
    """Aborts for negative keys — exercises the abort path across the pipe."""

    name = "AbortOnNegative"
    partition_param = 0
    statements = {"ins": "INSERT INTO kv (k, v) VALUES (?, ?)"}

    def run(self, ctx, key, value):
        if key < 0:
            raise TransactionAborted(f"negative key {key}")
        ctx.execute("ins", key, value)
        return key


class PoisonedEverywhere(StoredProcedure):
    """Run-everywhere writer that aborts everywhere — fence must roll back."""

    name = "PoisonedEverywhere"
    run_everywhere = True
    statements = {"ins": "INSERT INTO audit (tag, note) VALUES (?, ?)"}

    def run(self, ctx, tag, note):
        ctx.execute("ins", tag, note)
        raise TransactionAborted("poisoned")


class RoutedValidateVote(ValidateVote):
    """Voter's SP1 routed by phone number: a single-partition transaction
    that keeps each phone's one-vote check on one shard (``contestants`` is
    replicated to every worker by the broadcast seeding DML)."""

    partition_param = 0
