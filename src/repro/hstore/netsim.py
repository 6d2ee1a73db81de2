"""Simulated network/IPC cost model.

The original demo ran H-Store and S-Store on real hardware and displayed live
transactions-per-second.  We cannot port the Java engine, so the throughput
comparison is grounded two ways:

1. **Counted round trips** (see :mod:`repro.hstore.stats`): exact counts of
   client↔PE and PE↔EE crossings — the two costs the paper says S-Store
   eliminates.
2. **Simulated time**: this module converts those counts into elapsed
   microseconds using a configurable latency model, yielding a simulated TPS
   figure whose *shape* (who wins, by what factor) is robust to Python's
   interpretation overhead.

Defaults are modeled on a LAN deployment of H-Store as described in the
H-Store paper [6]: a client↔PE round trip is a network RPC (~hundreds of
microseconds); a PE↔EE round trip is an in-process boundary crossing between
the Java PE and C++ EE (~single-digit microseconds); EE-internal work per
statement is ~a microsecond.

The multi-process deployment (:mod:`repro.parallel`) adds a third real
crossing: coordinator↔worker messages over OS pipes.  Those hops are counted
in ``EngineStats.ipc_roundtrips`` and charged at ``ipc_us`` each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hstore.stats import snapshot_delta

__all__ = ["LatencyModel", "SimulatedCost", "simulated_tps"]


@dataclass(frozen=True)
class LatencyModel:
    """Per-crossing latencies, in microseconds."""

    client_pe_us: float = 250.0
    pe_ee_us: float = 5.0
    ee_statement_us: float = 1.0
    log_flush_us: float = 40.0
    #: one coordinator↔worker message exchange over a local pipe/socket
    ipc_us: float = 20.0

    def cost_of(self, counters: dict[str, int]) -> "SimulatedCost":
        """Total simulated cost of a counter delta (see ``EngineStats.delta``)."""
        client = counters.get("client_pe_roundtrips", 0) * self.client_pe_us
        pe_ee = counters.get("pe_ee_roundtrips", 0) * self.pe_ee_us
        ee = counters.get("ee_statements", 0) * self.ee_statement_us
        log = counters.get("log_flushes", 0) * self.log_flush_us
        ipc = counters.get("ipc_roundtrips", 0) * self.ipc_us
        return SimulatedCost(
            client_pe_us=client,
            pe_ee_us=pe_ee,
            ee_us=ee,
            log_us=log,
            ipc_us=ipc,
        )


@dataclass(frozen=True)
class SimulatedCost:
    """Breakdown of simulated elapsed time, in microseconds."""

    client_pe_us: float
    pe_ee_us: float
    ee_us: float
    log_us: float
    ipc_us: float = 0.0

    @property
    def total_us(self) -> float:
        return (
            self.client_pe_us + self.pe_ee_us + self.ee_us + self.log_us + self.ipc_us
        )

    def throughput(self, transactions: int) -> float:
        """Simulated transactions per second for ``transactions`` completed txns."""
        if self.total_us <= 0:
            return float("inf")
        return transactions / (self.total_us / 1_000_000.0)


def simulated_tps(
    stats_before: dict[str, int],
    stats_after: dict[str, int],
    *,
    model: LatencyModel | None = None,
) -> float:
    """Convenience: simulated TPS between two ``EngineStats.snapshot()`` calls."""
    model = model or LatencyModel()
    delta = snapshot_delta(stats_before, stats_after)
    cost = model.cost_of(delta)
    return cost.throughput(delta.get("txns_committed", 0))
