"""Bounded LRU cache of ad-hoc statement plans.

H-Store's architectural bet is that *planning happens once*: stored
procedures are pre-planned at registration and execution only binds
parameters.  Ad-hoc ``execute_sql`` historically paid the full
parse + plan + compile cost on **every** call — which dominates the
statement's own execution for the point queries that make up most ad-hoc
traffic.  The :class:`PlanCache` closes that gap: the engine consults it
before parsing, so each distinct statement text is planned once and then
served from the cache.

Keying and invalidation:

* the key is the statement text normalized for whitespace only (``"SELECT 1"``
  and ``"select  1"`` are *different* statements — SQL identifiers are
  case-insensitive here but string literals are not, so the cache does not
  case-fold);
* every entry records the :attr:`~repro.hstore.catalog.Catalog.version` it
  was planned under.  Any DDL bumps the catalog version, so a hit against a
  stale entry is detected on lookup, dropped, and re-planned — cached plans
  can never outlive the schema they were compiled against.

The cache is bounded (default set by the engine) and evicts least-recently
used entries.  Hits and misses are counted here; the engine counts its
ad-hoc lookups in ``EngineStats``, which the ``repro.obs`` metrics
registry reads at export.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

__all__ = ["PlanCache"]


def normalize_sql(sql: str) -> str:
    """Collapse runs of whitespace so formatting differences share an entry."""
    return " ".join(sql.split())


class PlanCache:
    """An LRU of ``normalized SQL -> (catalog version, plan)``."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, tuple[int, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, sql: str, catalog_version: int) -> Any | None:
        """The cached plan, or None on miss / schema change (counted)."""
        key = normalize_sql(sql)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        version, plan = entry
        if version != catalog_version:
            # planned under an older schema: evict and re-plan
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return plan

    def put(self, sql: str, catalog_version: int, plan: Any) -> None:
        key = normalize_sql(sql)
        self._entries[key] = (catalog_version, plan)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def contains(self, sql: str) -> bool:
        """Presence check that does not touch LRU order or counters."""
        return normalize_sql(sql) in self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanCache({len(self._entries)}/{self.capacity} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
