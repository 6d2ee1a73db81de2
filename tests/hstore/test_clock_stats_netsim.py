"""Unit tests for the logical clock, stats counters and the latency model."""

import pytest

from repro.errors import ReproError
from repro.hstore.clock import LogicalClock
from repro.hstore.netsim import LatencyModel, simulated_tps
from repro.hstore.stats import EngineStats, snapshot_delta


class TestLogicalClock:
    def test_starts_at_zero(self):
        assert LogicalClock().now == 0

    def test_advance(self):
        clock = LogicalClock()
        assert clock.advance(5) == 5
        assert clock.now == 5

    def test_advance_zero_is_noop(self):
        clock = LogicalClock(3)
        assert clock.advance(0) == 3

    def test_advance_negative_rejected(self):
        with pytest.raises(ReproError):
            LogicalClock().advance(-1)

    def test_advance_to_moves_forward_only(self):
        clock = LogicalClock(10)
        assert clock.advance_to(20) == 20
        assert clock.advance_to(5) == 20  # no going back

    def test_negative_start_rejected(self):
        with pytest.raises(ReproError):
            LogicalClock(-1)


class TestEngineStats:
    def test_snapshot_contains_all_builtin_counters(self):
        stats = EngineStats()
        stats.txns_committed = 3
        snap = stats.snapshot()
        assert snap["txns_committed"] == 3
        assert snap["pe_ee_roundtrips"] == 0

    def test_bump_creates_named_counter(self):
        stats = EngineStats()
        stats.bump("custom", 2)
        stats.bump("custom")
        assert stats.snapshot()["custom"] == 3

    def test_snapshot_delta(self):
        before = {"a": 1, "b": 5}
        after = {"a": 4, "c": 2}
        assert snapshot_delta(before, after) == {"a": 3, "b": -5, "c": 2}

    def test_delta_since_snapshot(self):
        stats = EngineStats()
        stats.txns_committed = 2
        before = stats.snapshot()
        stats.txns_committed = 7
        stats.bump("custom", 4)
        delta = stats.delta(before)
        assert delta["txns_committed"] == 5
        assert delta["custom"] == 4
        assert delta["pe_ee_roundtrips"] == 0

    def test_delta_since_copy(self):
        stats = EngineStats()
        stats.rows_inserted = 1
        earlier = stats.copy()
        stats.rows_inserted = 6
        assert stats.delta(earlier)["rows_inserted"] == 5

    def test_reset_zeroes_everything(self):
        stats = EngineStats()
        stats.txns_committed = 9
        stats.bump("x")
        stats.reset()
        assert stats.txns_committed == 0
        assert stats.extra == {}


class TestLatencyModel:
    def test_cost_breakdown(self):
        model = LatencyModel(client_pe_us=100, pe_ee_us=10, ee_statement_us=1,
                             log_flush_us=5)
        cost = model.cost_of(
            {
                "client_pe_roundtrips": 2,
                "pe_ee_roundtrips": 3,
                "ee_statements": 4,
                "log_flushes": 1,
            }
        )
        assert cost.client_pe_us == 200
        assert cost.pe_ee_us == 30
        assert cost.ee_us == 4
        assert cost.log_us == 5
        assert cost.total_us == 239

    def test_throughput(self):
        model = LatencyModel(client_pe_us=1000, pe_ee_us=0, ee_statement_us=0,
                             log_flush_us=0)
        cost = model.cost_of({"client_pe_roundtrips": 1})
        # 1 ms per txn → 1000 tps
        assert cost.throughput(1) == pytest.approx(1000.0)

    def test_zero_cost_throughput_is_infinite(self):
        cost = LatencyModel().cost_of({})
        assert cost.throughput(10) == float("inf")

    def test_ipc_roundtrips_are_charged(self):
        model = LatencyModel(client_pe_us=0, pe_ee_us=0, ee_statement_us=1,
                             log_flush_us=0, ipc_us=10)
        cost = model.cost_of({"ipc_roundtrips": 3})
        assert cost.ipc_us == 30
        assert cost.total_us == 30

    def test_simulated_tps_uses_committed_txns(self):
        before = {"client_pe_roundtrips": 0, "txns_committed": 0}
        after = {"client_pe_roundtrips": 10, "txns_committed": 10}
        tps = simulated_tps(before, after, model=LatencyModel(
            client_pe_us=100, pe_ee_us=0, ee_statement_us=0, log_flush_us=0))
        assert tps == pytest.approx(10 / (1000 / 1_000_000))

