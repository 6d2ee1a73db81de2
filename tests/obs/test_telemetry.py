"""The telemetry plane's building blocks: hot-key sketch, skew view, flight recorder.

The Space-Saving tests pin the two guarantees the module docstring
advertises (overcounting bracket, guaranteed presence of genuinely hot
keys) — first on crafted streams, then property-based over arbitrary ones,
including merges of independently-built sketches.  The cluster tests check
the whole pull: worker counters and sketch → one ``OP_STATS`` round trip →
coordinator partition-labeled export rows and ``partition_skew()``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.obs import FlightRecorder, ObsConfig, SpaceSaving
from repro.obs.trace import TraceCollector, Tracer

from tests.parallel.conftest import build_cluster

pytestmark = pytest.mark.obs


# ---------------------------------------------------------------------------
# Space-Saving: crafted streams
# ---------------------------------------------------------------------------


class TestSpaceSaving:
    def test_exact_when_under_capacity(self):
        sketch = SpaceSaving(capacity=8)
        for key, count in (("a", 5), ("b", 3), ("c", 1)):
            for _ in range(count):
                sketch.offer(key)
        assert sketch.top() == [("a", 5, 0), ("b", 3, 0), ("c", 1, 0)]
        assert sketch.total == 9

    def test_eviction_brackets_the_true_count(self):
        sketch = SpaceSaving(capacity=2)
        for _ in range(10):
            sketch.offer("hot")
        sketch.offer("warm")
        sketch.offer("cold")  # evicts warm (count 1), inherits error 1
        estimates = {key: (count, error) for key, count, error in sketch.top()}
        assert estimates["hot"] == (10, 0)
        count, error = estimates["cold"]
        assert count - error <= 1 <= count  # true count of "cold" is 1

    def test_hot_key_cannot_be_evicted_by_cold_ones(self):
        sketch = SpaceSaving(capacity=4)
        for _ in range(100):
            sketch.offer("hot")
        for i in range(50):  # 50 distinct cold keys churn the other counters
            sketch.offer(f"cold-{i}")
        keys = {key for key, _, _ in sketch.top()}
        assert "hot" in keys
        assert sketch.total == 150
        assert sketch.error_bound == 150 / 4

    def test_weighted_offers(self):
        sketch = SpaceSaving(capacity=2)
        sketch.offer("a", weight=7)
        sketch.offer("b", weight=2)
        sketch.offer("c", weight=3)  # evicts b: count 2+3, error 2
        assert sketch.top() == [("a", 7, 0), ("c", 5, 2)]
        assert sketch.total == 12

    def test_state_roundtrip(self):
        sketch = SpaceSaving(capacity=3)
        for i in range(20):
            sketch.offer(i % 5)
        state = sketch.to_dict()
        rebuilt = SpaceSaving.from_state(
            state["capacity"], state["total"], state["top"]
        )
        assert rebuilt.to_dict() == {
            **state,
            # to_dict stringifies keys for the JSON wire; the roundtrip keeps
            # the stringified form
            "top": [[str(k), c, e] for k, c, e in state["top"]],
        }
        assert rebuilt.error_bound == sketch.error_bound

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpaceSaving(capacity=0)


# ---------------------------------------------------------------------------
# Space-Saving: the property tests (arbitrary streams)
# ---------------------------------------------------------------------------


def _true_counts(stream):
    counts: dict[int, int] = {}
    for key in stream:
        counts[key] = counts.get(key, 0) + 1
    return counts


@settings(max_examples=200, deadline=None)
@given(
    stream=st.lists(st.integers(min_value=0, max_value=30), max_size=300),
    capacity=st.integers(min_value=1, max_value=12),
)
def test_prop_overcount_bracket_and_guaranteed_presence(stream, capacity):
    sketch = SpaceSaving(capacity)
    for key in stream:
        sketch.offer(key)
    true = _true_counts(stream)
    assert sketch.total == len(stream)
    tracked = {key: (count, error) for key, count, error in sketch.top()}
    for key, (count, error) in tracked.items():
        # the bracket: true <= estimate <= true + error, error <= N/k
        assert count - error <= true[key] <= count
        assert error <= sketch.error_bound
    # any key strictly hotter than N/k must be present
    for key, frequency in true.items():
        if frequency > sketch.error_bound:
            assert key in tracked


@settings(max_examples=100, deadline=None)
@given(
    left=st.lists(st.integers(min_value=0, max_value=15), max_size=150),
    right=st.lists(st.integers(min_value=0, max_value=15), max_size=150),
    capacity=st.integers(min_value=1, max_value=8),
)
@example(left=[1, 1], right=[1, 0, 2, 3], capacity=3)  # key evicted on one side
def test_prop_merge_keeps_the_bracket(left, right, capacity):
    a, b = SpaceSaving(capacity), SpaceSaving(capacity)
    for key in left:
        a.offer(key)
    for key in right:
        b.offer(key)
    a.merge(b)
    true = _true_counts(left + right)
    assert a.total == len(left) + len(right)
    for key, count, error in a.top():
        assert count - error <= true[key] <= count


# ---------------------------------------------------------------------------
# The pull on a real cluster
# ---------------------------------------------------------------------------


@pytest.mark.parallel
class TestClusterSkewTelemetry:
    def test_partition_metrics_and_heavy_hitters(self):
        engine = build_cluster(workers=2, obs=ObsConfig(metrics=True))
        try:
            # a deliberately skewed workload: one hot key, a few cold ones
            assert engine.call_procedure("PutKV", 1000, "seed").success
            for _ in range(29):
                assert engine.call_procedure("GetKV", 1000).success
            for key in (1, 2, 3):
                assert engine.call_procedure("PutKV", key, "cold").success

            skew = engine.partition_skew()
            assert set(skew["partitions"]) == {0, 1}
            assert skew["total_txns"] == 33
            assert skew["skew_ratio"] >= 1.0
            hot = {
                key
                for info in skew["partitions"].values()
                for key, _est, _err in info["hot_keys"]
            }
            assert 1000 in hot

            # partition-labeled counters exist in the coordinator registry
            names = {
                (name, dict(labels).get("partition"))
                for name, labels, _inst in engine.metrics.instruments()
                if name.startswith("partition.")
            }
            assert ("partition.txns_committed", "0") in names
            assert ("partition.txns_committed", "1") in names
            assert any(name == "partition.op_us" for name, _ in names)
        finally:
            engine.shutdown()

    def test_partition_counters_are_the_workers_stats(self):
        engine = build_cluster(workers=2, obs=ObsConfig(tracing=False))
        try:
            for key in range(6):
                assert engine.call_procedure("PutKV", key, "v").success
            exported = {
                (entry["labels"]["partition"], entry["value"])
                for entry in engine.metrics.to_json()["partition.txns_committed"]
            }
            workers = engine.worker_stats()
            assert exported == {
                (str(wid), stats.txns_committed) for wid, stats in enumerate(workers)
            }
            assert sum(value for _wid, value in exported) == 6
        finally:
            engine.shutdown()

    def test_hot_key_overwrites_do_not_break_pk(self):
        # PutKV inserts, so repeat keys abort — aborted txns must still
        # count into the sketch (the router saw them) without crashing
        engine = build_cluster(workers=2, obs=ObsConfig(metrics=True))
        try:
            assert engine.call_procedure("PutKV", 7, "first").success
            assert not engine.call_procedure("PutKV", 7, "again").success
            hot = {
                key
                for info in engine.partition_skew()["partitions"].values()
                for key, _est, _err in info["hot_keys"]
            }
            assert 7 in hot
        finally:
            engine.shutdown()


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_everything(self):
        recorder = FlightRecorder(capacity=4, slow_us=100.0)
        for i in range(10):
            recorder.record(kind="call", name=f"p{i}", duration_us=10.0)
        summary = recorder.summary()
        assert summary["recorded"] == 10
        assert summary["retained"] == 4
        assert [r["name"] for r in recorder.recent()] == ["p6", "p7", "p8", "p9"]

    def test_slow_and_error_classification(self):
        recorder = FlightRecorder(capacity=8, slow_us=100.0)
        recorder.record(kind="call", name="fast", duration_us=50.0)
        recorder.record(kind="call", name="slow", duration_us=150.0)
        recorder.record(kind="call", name="boom", ok=False, error="KeyError: 'x'")
        summary = recorder.summary()
        assert summary["slow"] == 1
        assert summary["errors"] == 1
        assert [r["name"] for r in recorder.slow()] == ["slow"]

    def test_span_trees_attach_at_dump_time(self, tmp_path):
        collector = TraceCollector()
        tracer = Tracer(process="t", collector=collector)
        with tracer.span("net", "net.call") as span:
            with tracer.span("txn", "inner"):
                pass
        recorder = FlightRecorder(capacity=4)
        recorder.record(kind="call", name="traced", trace_id=span.trace_id)
        recorder.record(kind="call", name="untraced")

        payload = recorder.to_payload(collector=collector)
        traced = next(r for r in payload if r["name"] == "traced")
        untraced = next(r for r in payload if r["name"] == "untraced")
        assert {s["name"] for s in traced["spans"]} == {"net.call", "inner"}
        assert "spans" not in untraced

        path = recorder.dump(tmp_path / "flight.jsonl", collector=collector)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["flight_recorder"]["recorded"] == 2
        assert lines[0]["reason"] == "operator"
        assert len(lines) == 3
        assert recorder.summary()["dumps"] == 1
