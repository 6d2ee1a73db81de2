"""Tests for transactions (undo/abort) and the stored-procedure framework."""

import pytest

from repro.errors import (
    NoActiveTransactionError,
    ProcedureError,
    UnknownObjectError,
)
from repro.hstore.engine import HStoreEngine
from repro.hstore.procedure import StoredProcedure


class Deposit(StoredProcedure):
    name = "deposit"
    statements = {
        "read": "SELECT balance FROM accounts WHERE acct = ?",
        "write": "UPDATE accounts SET balance = ? WHERE acct = ?",
    }

    def run(self, ctx, acct, amount):
        balance = ctx.execute("read", acct).scalar()
        if balance is None:
            ctx.abort(f"no account {acct}")
        ctx.execute("write", balance + amount, acct)
        return balance + amount


class Transfer(StoredProcedure):
    name = "transfer"
    statements = {
        "read": "SELECT balance FROM accounts WHERE acct = ?",
        "write": "UPDATE accounts SET balance = ? WHERE acct = ?",
    }

    def run(self, ctx, src, dst, amount):
        src_balance = ctx.execute("read", src).scalar()
        # deliberate mid-transaction write BEFORE the validity check, to
        # prove the undo log rolls it back on abort
        ctx.execute("write", src_balance - amount, src)
        if src_balance < amount:
            ctx.abort("insufficient funds")
        dst_balance = ctx.execute("read", dst).scalar()
        ctx.execute("write", dst_balance + amount, dst)


class Nameless(StoredProcedure):
    statements = {}

    def run(self, ctx):  # pragma: no cover - never runs
        pass


@pytest.fixture
def bank() -> HStoreEngine:
    eng = HStoreEngine()
    eng.execute_ddl(
        "CREATE TABLE accounts (acct INTEGER NOT NULL, balance INTEGER, "
        "PRIMARY KEY (acct))"
    )
    eng.execute_sql("INSERT INTO accounts VALUES (1, 100), (2, 50)")
    eng.register_procedure(Deposit)
    eng.register_procedure(Transfer)
    return eng


class TestCommitAbort:
    def test_commit_applies(self, bank):
        result = bank.call_procedure("deposit", 1, 25)
        assert result.success and result.data == 125
        assert (
            bank.execute_sql("SELECT balance FROM accounts WHERE acct = 1").scalar()
            == 125
        )

    def test_abort_reports_error(self, bank):
        result = bank.call_procedure("deposit", 99, 5)
        assert not result.success
        assert "no account" in result.error

    def test_abort_rolls_back_partial_writes(self, bank):
        result = bank.call_procedure("transfer", 2, 1, 500)
        assert not result.success
        balances = bank.execute_sql(
            "SELECT acct, balance FROM accounts ORDER BY acct"
        ).rows
        assert balances == [(1, 100), (2, 50)]  # untouched

    def test_successful_transfer(self, bank):
        assert bank.call_procedure("transfer", 1, 2, 60).success
        balances = bank.execute_sql(
            "SELECT acct, balance FROM accounts ORDER BY acct"
        ).rows
        assert balances == [(1, 40), (2, 110)]

    def test_abort_counted_in_stats(self, bank):
        bank.call_procedure("deposit", 99, 5)
        assert bank.stats.txns_aborted == 1

    def test_programming_error_rolls_back_and_raises(self, bank):
        class Broken(StoredProcedure):
            name = "broken"
            statements = {
                "write": "UPDATE accounts SET balance = 0 WHERE acct = 1",
                "bad": "SELECT nope FROM accounts",
            }

            def run(self, ctx):
                ctx.execute("write")
                ctx.execute("bad")  # never planned — registration fails first

        with pytest.raises(ProcedureError):
            bank.register_procedure(Broken)

    def test_unknown_statement_in_run_raises_and_rolls_back(self, bank):
        class Sneaky(StoredProcedure):
            name = "sneaky"
            statements = {
                "write": "UPDATE accounts SET balance = 0 WHERE acct = 1",
            }

            def run(self, ctx):
                ctx.execute("write")
                ctx.execute("ghost")

        bank.register_procedure(Sneaky)
        with pytest.raises(ProcedureError):
            bank.call_procedure("sneaky")
        # the write was rolled back
        assert (
            bank.execute_sql("SELECT balance FROM accounts WHERE acct = 1").scalar()
            == 100
        )


    @pytest.mark.parametrize("path", ["call", "everywhere", "prepared", "te"])
    def test_any_exception_rolls_back_counts_and_reraises(self, path):
        """A bug in procedure code (not a ReproError) is still a transaction
        that did not commit: its writes vanish on every partition, it counts
        as an abort, the fence is released, and the caller sees the original
        exception."""
        from repro.core.engine import SStoreEngine, StreamProcedure
        from repro.core.workflow import WorkflowSpec

        eng = SStoreEngine(partitions=2 if path == "everywhere" else 1)
        eng.execute_ddl("CREATE TABLE t (a INTEGER)")
        eng.execute_ddl("CREATE STREAM s (a INTEGER)")
        last = len(eng.partitions) - 1

        class Crashy(StreamProcedure if path == "te" else StoredProcedure):
            name = "crashy"
            statements = {"ins": "INSERT INTO t VALUES (?)"}
            run_everywhere = path == "everywhere"

            def run(self, ctx, *params):
                (x,) = ctx.batch.rows[0] if path == "te" else params
                ctx.execute("ins", x)
                if ctx.partition_id == last:  # every partition has written
                    return 10 // x

        eng.register_procedure(Crashy)
        if path == "te":
            wf = WorkflowSpec("wf")
            wf.add_node("crashy", input_stream="s", batch_size=1)
            eng.deploy_workflow(wf)

        def drive(x):
            if path == "te":
                eng.ingest("s", [(x,)])
            elif path == "prepared":
                _result, prepared = eng.prepare_invoke("crashy", (x,))
                eng.commit_prepared(prepared)
            else:
                assert eng.call_procedure("crashy", x).success

        drive(5)
        with pytest.raises(ZeroDivisionError):
            drive(0)
        live = [eng.table_rows("t", p.partition_id) for p in eng.partitions]
        assert live == [[(5,)]] * len(eng.partitions)
        assert (eng.stats.txns_committed, eng.stats.txns_aborted) == (1, 1)
        assert not any(p.busy for p in eng.partitions)
        if path == "te":
            # its <ingest> record is already durable, so replay would meet
            # the same bug; the failure is attributed to the batch instead
            assert eng._failed_te[:2] == ("crashy", "s")
            return
        eng.crash()
        eng.recover()
        assert [eng.table_rows("t", p.partition_id) for p in eng.partitions] == live


class TestRegistration:
    def test_procedure_requires_name(self):
        with pytest.raises(ProcedureError):
            Nameless()

    def test_duplicate_registration_rejected(self, bank):
        with pytest.raises(ProcedureError):
            bank.register_procedure(Deposit)

    def test_bad_sql_fails_at_registration(self, bank):
        class BadSql(StoredProcedure):
            name = "bad_sql"
            statements = {"x": "SELEC oops"}

            def run(self, ctx):  # pragma: no cover
                pass

        with pytest.raises(ProcedureError):
            bank.register_procedure(BadSql)

    def test_unknown_procedure_invocation(self, bank):
        with pytest.raises(UnknownObjectError):
            bank.call_procedure("ghost")

    def test_class_or_instance_accepted(self):
        eng = HStoreEngine()
        eng.execute_ddl(
            "CREATE TABLE accounts (acct INTEGER, balance INTEGER)"
        )
        instance = Deposit()
        eng.register_procedure(instance)
        assert eng.procedure("deposit") is instance


class TestTransactionContextGuards:
    def test_commit_twice_rejected(self, bank):
        from repro.hstore.txn import TransactionContext

        txn = TransactionContext(1, bank.partitions[0].ee)
        txn.commit()
        with pytest.raises(NoActiveTransactionError):
            txn.commit()

    def test_record_after_commit_rejected(self, bank):
        from repro.hstore.txn import TransactionContext

        txn = TransactionContext(1, bank.partitions[0].ee)
        txn.commit()
        with pytest.raises(NoActiveTransactionError):
            txn.record_insert("accounts", 0)

    def test_abort_restores_in_reverse_order(self, bank):
        from repro.hstore.txn import TransactionContext

        ee = bank.partitions[0].ee
        txn = TransactionContext(7, ee)
        table = ee.table("accounts")
        rowid = table.insert((9, 1))
        txn.record_insert("accounts", rowid)
        before = table.update(rowid, (9, 2))
        txn.record_update("accounts", rowid, before)
        txn.abort()
        assert not table.has_rowid(rowid)
