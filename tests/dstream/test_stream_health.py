"""Stream-health telemetry on the distributed streaming layer.

``stream_health()`` turns the raw per-worker dstream state into the
operator's view of the pipeline: per-stream watermark lag (dispatched
batches the consumer has not applied yet), per-worker queue depths, and —
when metrics are on — the matching gauges, read afresh at every export,
plus the ingest→downstream-commit end-to-end latency histogram.
"""

from __future__ import annotations

import pickle

import pytest

from repro.obs import ObsConfig

from tests.dstream.conftest import build_pipe_cluster

pytestmark = pytest.mark.dstream


def _rows(n: int, start: int = 0) -> list[tuple[int]]:
    return [(start + i,) for i in range(n)]


class TestStreamHealth:
    def test_quiescent_cluster_has_zero_lag(self):
        engine = build_pipe_cluster(workers=2, obs=ObsConfig(metrics=True))
        try:
            engine.ingest("src", _rows(8))
            engine.run_until_quiescent()
            health = engine.stream_health()
            # the cross-worker edge (relay@0 → sink@1) has moved batches
            assert "mid" in health["streams"]
            for name, info in health["streams"].items():
                assert info["produced"] >= 1, name
                assert info["applied"] == info["produced"]
                assert info["lag"] == 0
            assert set(health["workers"]) == {0, 1}
            for info in health["workers"].values():
                assert info["outbound_depth"] == 0
                assert info["pending_tes"] == 0
        finally:
            engine.shutdown()

    def test_gauges_and_e2e_histogram_published(self):
        engine = build_pipe_cluster(workers=2, obs=ObsConfig(metrics=True))
        try:
            for start in range(0, 12, 4):
                engine.ingest("src", _rows(4, start))
            engine.run_until_quiescent()
            health = engine.stream_health()
            snapshot = engine.metrics.to_json()
            lags = {
                entry["labels"]["stream"]: entry["value"]
                for entry in snapshot["stream.watermark_lag"]
            }
            assert "mid" in lags
            # the published gauges are the report, stream for stream
            assert lags == {
                name: info["lag"] for name, info in health["streams"].items()
            }
            assert set(lags.values()) == {0}
            depth_workers = {
                entry["labels"]["worker"]
                for entry in snapshot["stream.outbound_depth"]
            }
            assert depth_workers == {"0", "1"}
            assert "stream.pending_tes" in snapshot
            # ingest() itself observed the e2e latency, once per call,
            # labeled by stream
            e2e = snapshot["stream.e2e_us"]
            assert e2e[0]["labels"] == {"stream": "src"}
            assert e2e[0]["count"] == 3
            assert e2e[0]["sum"] > 0
        finally:
            engine.shutdown()

    def test_export_reads_lag_without_a_health_call(self):
        engine = build_pipe_cluster(workers=2, obs=ObsConfig(tracing=False))
        try:
            engine.ingest("src", _rows(4))
            engine.run_until_quiescent()
            lag = {
                entry["labels"]["stream"]: entry["value"]
                for entry in engine.metrics.to_json()["stream.watermark_lag"]
            }
            assert lag["mid"] == 0
            assert 'repro_stream.watermark_lag{stream="mid"} 0' in (
                engine.metrics.to_prometheus()
            )
        finally:
            engine.shutdown()

    def test_metrics_off_reports_health_without_instruments(self):
        engine = build_pipe_cluster(workers=2)
        try:
            engine.ingest("src", _rows(4))
            engine.run_until_quiescent()
            health = engine.stream_health()
            assert all(i["lag"] == 0 for i in health["streams"].values())
            assert engine.metrics is None
        finally:
            engine.shutdown()

    def test_status_poll_reply_is_o_streams_not_o_history(self):
        """What rides every `stream_health()` / `/healthz` poll must not grow
        with run length: no per-TE ledger in the OP_DSTREAM_STATE reply."""
        engine = build_pipe_cluster(workers=2)
        try:
            sizes = []
            for total in (100, 1000):
                for k in range(len(sizes) and 100, total):
                    engine.ingest("src", [(k,)])
                reply = engine.dstream_status()
                assert "schedule_history" not in reply[0]
                assert reply[1]["commit_digests"]["mid"][0] == total // 2
                sizes.append(len(pickle.dumps(reply)))
            # a few bytes for wider integers, never a per-ingest term
            assert sizes[1] <= sizes[0] + 32, sizes
            # the validator's bounded ring travels only when asked for
            rings = engine.schedule_histories()
            assert [len(ring) for ring in rings] == [500, 500]
        finally:
            engine.shutdown()
