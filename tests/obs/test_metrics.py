"""Unit tests for the metrics registry and its export formats."""

from __future__ import annotations

import json

import pytest

from repro.hstore.stats import EngineStats
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.metrics import counter_rows, reading


pytestmark = pytest.mark.obs

class TestInstruments:
    def test_counter_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_histogram_percentiles_clamped_to_max(self):
        hist = Histogram("h", buckets=(1, 10, 100, 1000))
        for value in (2, 3, 4, 5, 7):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 5
        assert summary["max"] == 7
        # bucket upper bound is 10 but nothing above 7 was seen
        assert summary["p99"] == 7
        assert summary["p50"] <= 10

    def test_histogram_overflow_bucket(self):
        hist = Histogram("h", buckets=(1, 10))
        hist.observe(99999)
        assert hist.bucket_counts[-1] == 1
        assert hist.percentile(50) == 99999

    def test_empty_histogram_reports_zeroes(self):
        hist = Histogram("h", buckets=(1,))
        assert hist.percentile(99) == 0.0
        assert hist.mean == 0.0

    def test_histogram_requires_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestRegistry:
    def test_same_identity_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("txns", procedure="vote")
        b = registry.counter("txns", procedure="vote")
        c = registry.counter("txns", procedure="other")
        assert a is b
        assert a is not c

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_readers_run_at_every_export(self):
        registry = MetricsRegistry()
        stats = EngineStats()
        registry.read(lambda: counter_rows("engine", stats.snapshot()))
        stats.txns_committed = 12
        assert registry.to_json()["engine.txns_committed"][0]["value"] == 12
        # nothing was copied in: the next export reads the owner again
        stats.txns_committed = 20
        snapshot = registry.to_json()
        assert len(snapshot["engine.txns_committed"]) == 1
        assert snapshot["engine.txns_committed"][0]["value"] == 20
        assert "repro_engine.txns_committed 20" in registry.to_prometheus()

    def test_reader_rows_carry_labels_help_and_kind(self):
        registry = MetricsRegistry()
        registry.read(
            lambda: [reading(Gauge("depth", "queued items", 3), worker="1")]
        )
        assert registry.to_json()["depth"] == [
            {"labels": {"worker": "1"}, "value": 3, "kind": "gauge"}
        ]
        text = registry.to_prometheus()
        assert "# HELP repro_depth queued items" in text
        assert "# TYPE repro_depth gauge" in text
        assert 'repro_depth{worker="1"} 3' in text

    def test_to_json_histogram_summary(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1, 10), procedure="p").observe(3)
        entry = registry.to_json()["lat"][0]
        assert entry["labels"] == {"procedure": "p"}
        assert entry["count"] == 1
        assert "p95" in entry

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = registry.write_json(tmp_path / "metrics.json")
        assert json.loads(path.read_text())["c"][0]["value"] == 1


class TestPrometheusExposition:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("txns_total", "all txns", outcome="committed").inc(3)
        registry.gauge("queue_depth").set(7)
        text = registry.to_prometheus()
        assert "# TYPE repro_txns_total counter" in text
        assert "# HELP repro_txns_total all txns" in text
        assert 'repro_txns_total{outcome="committed"} 3' in text
        assert "repro_queue_depth 7" in text
        assert text.endswith("\n")

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5)
        hist.observe(5000)
        text = registry.to_prometheus()
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="10"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_count 3" in text

    def test_one_type_header_per_family(self):
        registry = MetricsRegistry()
        registry.counter("txns", procedure="a").inc()
        registry.counter("txns", procedure="b").inc()
        text = registry.to_prometheus()
        assert text.count("# TYPE repro_txns counter") == 1
