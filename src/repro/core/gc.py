"""Automatic garbage collection of expired stream state.

The paper's *Uniform State Management*: "Unlike regular tables, stream and
window state has a short lifespan determined by the queries accessing it.
To support this, S-Store provides automatic garbage collection mechanisms
for tuples that expire from stream or window state."

Window expiry happens inline at slide time (:mod:`repro.core.window`), and
a stream's sole consumer expires its input batch inside the TE that read it
(:meth:`SStoreEngine._stream_te_body`).  What that cannot reach — input an
aborted TE's rollback restored, streams with several consumers, a cluster
shard's consumer-less local copies — is collected here: once the engine is
quiescent (no pending TEs), every stream tuple at or below the minimum
consumer cursor is dead — nobody will ever read it — and is deleted in a
small system transaction, opened only when :meth:`has_garbage` finds one.

Experiment E6 shows that with GC enabled the live tuple count of a stream
stays bounded regardless of how many tuples have flowed through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.stream import StreamRegistry
from repro.hstore.stats import EngineStats
from repro.hstore.txn import TransactionContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hstore.executor import ExecutionEngine

__all__ = ["StreamGarbageCollector"]


class StreamGarbageCollector:
    """Deletes fully consumed stream tuples."""

    def __init__(
        self,
        registry: StreamRegistry,
        ee: "ExecutionEngine",
        stats: EngineStats,
    ) -> None:
        self._registry = registry
        self._ee = ee
        self._stats = stats

    def has_garbage(self) -> bool:
        """Whether any stream holds a tuple at or below its watermark."""
        for info in self._registry.all():
            first = self._ee.table(info.name).first_rowid()
            if first is not None:
                watermark = info.collectible_watermark()
                if watermark is None or first <= watermark:
                    return True
        return False

    def collect(self, txn: TransactionContext) -> int:
        """One GC pass inside ``txn``; returns tuples collected."""
        collected = 0
        for info in self._registry.all():
            table = self._ee.table(info.name)
            watermark = info.collectible_watermark()
            if watermark is None:
                dead = table.rowids()
            else:
                dead = [rowid for rowid in table.rowids() if rowid <= watermark]
            if dead:
                self._ee.delete_rows(txn, info.name, dead)
                collected += len(dead)
        if collected:
            self._stats.stream_tuples_gced += collected
        return collected

    def live_tuples(self, stream_name: str) -> int:
        """Current live tuple count of one stream (bench/test helper)."""
        return self._ee.table(stream_name).row_count()
