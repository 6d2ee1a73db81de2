"""Tests for pipeline latency tracking."""

import pytest

from repro.core.latency import LatencySummary, LatencyTracker


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestLatencyTracker:
    def test_single_pipeline(self):
        clock = FakeClock()
        tracker = LatencyTracker(clock)
        tracker.record_enqueue(0)
        clock.now = 0.010
        tracker.record_commit(0)
        clock.now = 0.025
        tracker.record_commit(0)  # deeper TE of the same pipeline
        assert tracker.latencies_ms() == []  # in flight until quiescence
        tracker.finalize()
        assert tracker.latencies_ms() == [25.0]

    def test_first_enqueue_wins(self):
        clock = FakeClock()
        tracker = LatencyTracker(clock)
        tracker.record_enqueue(0)
        clock.now = 1.0
        tracker.record_enqueue(0)  # ignored
        tracker.record_commit(0)
        tracker.finalize()
        assert tracker.latencies_ms() == [1000.0]

    def test_commit_without_enqueue_ignored(self):
        tracker = LatencyTracker(FakeClock())
        tracker.record_commit(42)
        tracker.finalize()
        assert tracker.completed_count == 0

    def test_summary_statistics(self):
        clock = FakeClock()
        tracker = LatencyTracker(clock)
        for origin, latency_s in enumerate([0.001, 0.002, 0.003, 0.004, 0.100]):
            clock.now = float(origin)
            tracker.record_enqueue(origin)
            clock.now = origin + latency_s
            tracker.record_commit(origin)
        tracker.finalize()
        summary = tracker.summary()
        assert summary.count == 5
        assert summary.p50_ms == pytest.approx(3.0)
        assert summary.max_ms == pytest.approx(100.0)
        assert summary.p95_ms == pytest.approx(100.0)
        assert summary.mean_ms == pytest.approx(22.0)

    def test_empty_summary(self):
        assert LatencyTracker().summary() == LatencySummary.empty()

    def test_reset(self):
        clock = FakeClock()
        tracker = LatencyTracker(clock)
        tracker.record_enqueue(0)
        tracker.record_commit(0)
        tracker.finalize()
        assert tracker.completed_count == 1
        tracker.reset()
        assert tracker.completed_count == 0
        assert tracker.latencies_ms() == []

    def test_finalize_forgets_in_flight_and_ring_is_bounded(self):
        from repro.core.latency import LATENCY_RING

        clock = FakeClock()
        tracker = LatencyTracker(clock)
        tracker.record_enqueue(-1)  # its TE aborted: never commits
        for origin in range(LATENCY_RING + 10):
            tracker.record_enqueue(origin)
            clock.now += 0.001
            tracker.record_commit(origin)
            tracker.finalize()
        assert not tracker._in_flight
        assert tracker.completed_count == LATENCY_RING + 10  # true count
        assert len(tracker.latencies_ms()) == LATENCY_RING  # bounded window
        assert tracker.summary().count == LATENCY_RING + 10


class TestEngineIntegration:
    def test_voter_pipelines_tracked(self):
        from repro.apps.voter import VoterSStoreApp, VoterWorkload

        app = VoterSStoreApp(num_contestants=4, batch_size=2)
        requests = VoterWorkload(seed=6, num_contestants=4).generate(40)
        app.submit(requests)
        tracker = app.engine.latency
        # one completed pipeline per full batch of 2
        assert tracker.completed_count == 20
        summary = tracker.summary()
        assert summary.count == 20
        assert summary.max_ms >= summary.p95_ms >= summary.p50_ms >= 0
        assert all(value >= 0 for value in tracker.latencies_ms())
