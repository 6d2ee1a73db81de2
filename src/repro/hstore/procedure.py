"""Stored procedures: parameterized transactions.

H-Store transactions are pre-defined parameterized stored procedures — SQL
statements embedded in control code — invoked by name with parameter values.
Here a procedure is a subclass of :class:`StoredProcedure` declaring its SQL
statements as a class-level dict; the engine pre-plans every statement at
registration time (exactly like H-Store compiles procedures at deployment),
and ``run`` is the control code.

Example::

    class CountVotes(StoredProcedure):
        name = "count_votes"
        statements = {
            "count": "SELECT COUNT(*) FROM votes WHERE contestant_id = ?",
        }

        def run(self, ctx, contestant_id):
            return ctx.execute("count", contestant_id).scalar()

Determinism contract: ``run`` must be a deterministic function of its
parameters and the database state (no wall-clock reads, no randomness) so
that command-log replay reproduces the same state — the same contract the
H-Store recovery paper [7] imposes.  The logical clock is available as
``ctx.now`` and *is* safe: its value is captured in the command log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ProcedureError, TransactionAborted
from repro.hstore.executor import ResultSet
from repro.hstore.planner import Plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hstore.engine import HStoreEngine
    from repro.hstore.executor import ExecutionEngine
    from repro.hstore.txn import TransactionContext

__all__ = ["StoredProcedure", "ProcedureContext", "ProcedureResult"]


class StoredProcedure:
    """Base class for stored procedures.

    Class attributes:

    ``name``
        Unique procedure name used in ``call_procedure``.
    ``statements``
        Mapping of statement name → SQL text; pre-planned at registration.
    ``partition_param``
        Index into the invocation parameters whose value routes the
        transaction to a partition (``None`` → partition 0).
    ``run_everywhere``
        If true, the procedure is a multi-partition transaction executed on
        every partition (H-Store's "run at all partitions" style); ``run``
        is invoked once per partition.
    ``read_only``
        Read-only procedures skip command logging.
    """

    name: str = ""
    statements: dict[str, str] = {}
    partition_param: int | None = None
    run_everywhere: bool = False
    read_only: bool = False

    def __init__(self) -> None:
        if not self.name:
            raise ProcedureError(
                f"{type(self).__name__} must define a class attribute 'name'"
            )
        #: filled by the engine at registration: statement name → plan
        self.plans: dict[str, Plan] = {}

    def run(self, ctx: "ProcedureContext", *params: Any) -> Any:
        """The transaction's control code; override in subclasses."""
        raise NotImplementedError


@dataclass
class ProcedureResult:
    """Outcome of one procedure invocation as seen by the client."""

    success: bool
    data: Any = None
    error: str | None = None
    txn_id: int | None = None
    partition: int | None = None

    def __bool__(self) -> bool:
        return self.success


class ProcedureContext:
    """Everything a running procedure may touch.

    Statement execution crosses the PE→EE boundary, so each ``execute`` call
    increments ``pe_ee_roundtrips`` — the crossing S-Store's EE triggers
    avoid.  The streaming subclass (:class:`repro.core.engine.StreamContext`)
    adds ``emit`` for writing to output streams.
    """

    def __init__(
        self,
        engine: "HStoreEngine",
        procedure: StoredProcedure,
        txn: "TransactionContext",
        partition_id: int,
    ) -> None:
        self._engine = engine
        self._procedure = procedure
        self._txn = txn
        self._partition_id = partition_id

    # -- introspection -------------------------------------------------------

    @property
    def txn(self) -> "TransactionContext":
        return self._txn

    @property
    def partition_id(self) -> int:
        return self._partition_id

    @property
    def now(self) -> int:
        """Current logical time (safe for deterministic replay)."""
        return self._engine.clock.now

    @property
    def procedure_name(self) -> str:
        return self._procedure.name

    @property
    def has_batch(self) -> bool:
        """Whether this invocation carries a streaming input batch.

        Always false on plain H-Store; the S-Store context overrides it.
        Having it here lets one procedure class serve both deployments
        (the Voter benchmark registers the same SP1/SP3 on both engines).
        """
        return False

    # -- statement execution --------------------------------------------------

    def execute(self, statement_name: str, *params: Any) -> ResultSet | int:
        """Run one of the procedure's pre-planned statements.

        Counts one PE↔EE round trip, exactly like H-Store shipping a plan
        fragment from the Java PE to the C++ EE.
        """
        try:
            plan = self._procedure.plans[statement_name]
        except KeyError:
            raise ProcedureError(
                f"procedure {self._procedure.name!r} has no statement "
                f"{statement_name!r}; declared: {sorted(self._procedure.plans)}"
            ) from None
        return self._run_plan(statement_name, plan, params)

    def _run_plan(
        self, statement_name: str, plan: Plan, params: tuple[Any, ...]
    ) -> ResultSet | int:
        self._engine.stats.pe_ee_roundtrips += 1
        tracer = self._engine.tracer
        if tracer.enabled and tracer.sql_spans:
            with tracer.span("sql", statement_name):
                return self._txn.ee.execute(plan, params, self._txn)
        return self._txn.ee.execute(plan, params, self._txn)

    def insert_rows(
        self, table_name: str, rows: list[tuple[Any, ...]] | list[list[Any]]
    ) -> list[int]:
        """Bulk insert without per-row SQL (one PE↔EE round trip)."""
        self._engine.stats.pe_ee_roundtrips += 1
        return self._txn.ee.insert_rows(self._txn, table_name, rows)

    # -- control flow -----------------------------------------------------------

    def abort(self, reason: str = "aborted by procedure") -> None:
        """Abort the surrounding transaction (raises)."""
        raise TransactionAborted(reason)
