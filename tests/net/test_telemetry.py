"""The cluster telemetry plane over real sockets.

The acceptance story: ten pipelined clients fire traced requests at a
server fronting a *multi-process* cluster, and every single request must
come back as one well-formed span forest under one trace id — client call
span (with enqueue/await children), the server's ``net.call`` span, the
shared group-commit window (``net.commit_batch``), and the partition
worker's ``txn`` span.  Plus: the extended ``stats`` frame, the flight
recorder (including the error auto-dump), and the HTTP sidecar.
"""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request
from contextlib import asynccontextmanager

import pytest

from repro.obs import ObsConfig
from repro.obs.trace import Tracer
from repro.parallel.engine import ParallelHStoreEngine
from repro.net.client import NetClient
from repro.net.server import NetServer

from tests.obs.test_instrumented_engines import assert_well_formed_forest
from tests.parallel.conftest import build_cluster

pytestmark = [pytest.mark.net, pytest.mark.parallel]

#: well clear of the engine-side origins (coordinator 0, workers 1..N)
CLIENT_ORIGIN = 500


@asynccontextmanager
async def running_cluster_server(**server_kwargs):
    engine = build_cluster(workers=2, obs=ObsConfig(tracing=True, metrics=True))
    server = NetServer(engine, port=0, **server_kwargs)
    await server.start()
    try:
        yield server, engine
    finally:
        await server.stop()
        engine.shutdown()


def _forests(client_tracer: Tracer, engine) -> dict[int, list]:
    """All spans from both sides of the wire, grouped by trace id."""
    by_trace: dict[int, list] = {}
    for span in client_tracer.collector.spans() + engine.tracer.collector.spans():
        by_trace.setdefault(span.trace_id, []).append(span)
    return by_trace


# ---------------------------------------------------------------------------
# cross-process trace stitching over TCP
# ---------------------------------------------------------------------------


def test_10_pipelined_clients_stitch_complete_traces():
    async def run():
        async with running_cluster_server() as (server, engine):
            tracer = Tracer(process="client", origin=CLIENT_ORIGIN)

            async def one_client(c):
                async with await NetClient.connect(
                    port=server.port, tracer=tracer
                ) as client:
                    # pipeline 6 calls per client: fire all, then await all
                    results = await asyncio.gather(
                        *(
                            client.call_procedure("PutKV", c * 100 + i, f"v{i}")
                            for i in range(6)
                        )
                    )
                    assert all(r.success for r in results)

            await asyncio.gather(*(one_client(c) for c in range(10)))
            return _forests(tracer, engine)

    by_trace = asyncio.run(run())

    call_traces = [
        spans
        for spans in by_trace.values()
        if any(s.name == "client.call" for s in spans)
    ]
    assert len(call_traces) == 60
    for spans in call_traces:
        assert_well_formed_forest(spans)
        names = {s.name for s in spans}
        kinds = {s.kind for s in spans}
        processes = {s.process for s in spans}
        # the full stitch: client -> server request -> commit window -> worker
        assert {"client.call", "client.enqueue", "client.await"} <= names
        assert "net.call" in names
        assert "net.commit_batch" in names
        assert "txn" in kinds
        assert "client" in processes
        assert "coordinator" in processes
        assert any(p.startswith("worker-") for p in processes)
        # exactly one root: the client's call span, which IS the trace id
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1
        assert roots[0].name == "client.call"
        assert roots[0].span_id == roots[0].trace_id
        # the server's request span hangs directly under the client's call
        net_call = next(s for s in spans if s.name == "net.call")
        assert net_call.parent_id == roots[0].span_id
        # the commit window hangs under the server's request span
        batch = next(s for s in spans if s.name == "net.commit_batch")
        assert batch.parent_id == net_call.span_id


def test_untraced_client_against_traced_server_still_works():
    async def run():
        async with running_cluster_server() as (server, engine):
            async with await NetClient.connect(port=server.port) as client:
                result = await client.call_procedure("PutKV", 1, "x")
                assert result.success
            spans = engine.tracer.collector.spans()
            # the server roots its own trace when no context arrives
            net_call = next(s for s in spans if s.name == "net.call")
            assert net_call.parent_id is None
            assert any(
                s.name == "net.commit_batch" and s.trace_id == net_call.trace_id
                for s in spans
            )

    asyncio.run(run())


def test_malformed_trace_context_is_dropped_not_fatal():
    async def run():
        async with running_cluster_server() as (server, _engine):
            async with await NetClient.connect(port=server.port) as client:
                _, resp = await client.request(
                    1,  # REQ_CALL
                    {"proc": "PutKV", "params": [2, "y"], "trace": ["junk", -1]},
                )
                assert resp["success"]

    asyncio.run(run())


# ---------------------------------------------------------------------------
# the extended stats frame
# ---------------------------------------------------------------------------


def test_stats_frame_carries_metrics_telemetry_and_flight():
    async def run():
        async with running_cluster_server() as (server, _engine):
            tracer = Tracer(process="client", origin=CLIENT_ORIGIN)
            async with await NetClient.connect(
                port=server.port, tracer=tracer
            ) as client:
                assert (await client.call_procedure("PutKV", 11, "x")).success
                stats = await client.stats()
                # engine snapshot (with extras) + server counters, as before
                assert stats["engine"]["txns_committed"] == 1
                assert stats["server"]["requests"] >= 1
                # the metrics registry snapshot rides along
                assert "net.request_us" in stats["metrics"]
                assert any(
                    name.startswith("partition.") for name in stats["metrics"]
                )
                # telemetry: flight summary + the coordinator's skew view
                assert stats["telemetry"]["flight"]["recorded"] >= 1
                skew = stats["telemetry"]["partition_skew"]
                assert skew["total_txns"] == 1
                assert "flight_records" not in stats

                full = await client.stats(flight=True)
                records = full["flight_records"]
                assert any(
                    r["kind"] == "call" and r["name"] == "PutKV" for r in records
                )
                traced = next(r for r in records if r["name"] == "PutKV")
                # span tree attached: the server-side half of the trace
                assert {s["name"] for s in traced["spans"]} >= {
                    "net.call",
                    "net.commit_batch",
                }

    asyncio.run(run())


# ---------------------------------------------------------------------------
# flight recorder on the server: slow log + error auto-dump
# ---------------------------------------------------------------------------


def test_error_auto_dumps_flight_jsonl(tmp_path):
    async def run():
        async with running_cluster_server(flight_dir=tmp_path) as (server, _eng):
            async with await NetClient.connect(port=server.port) as client:
                assert (await client.call_procedure("PutKV", 5, "x")).success
                with pytest.raises(Exception):
                    await client.call_procedure("no_such_proc", 1)
            dumps = sorted(tmp_path.glob("flight-error-*.jsonl"))
            assert len(dumps) == 1
            lines = [json.loads(l) for l in dumps[0].read_text().splitlines()]
            assert lines[0]["reason"] == "error"
            failed = [r for r in lines[1:] if not r["ok"]]
            assert failed and "no_such_proc" in failed[0]["name"]
            assert server.flight.summary()["errors"] == 1

    asyncio.run(run())


def test_slow_requests_land_in_the_slow_log():
    async def run():
        # threshold of 0: everything is "slow" — deterministic classification
        async with running_cluster_server(slow_us=0.0) as (server, _engine):
            async with await NetClient.connect(port=server.port) as client:
                assert (await client.call_procedure("PutKV", 9, "x")).success
            assert server.flight.summary()["slow"] >= 1
            assert any(r["slow"] for r in server.flight.slow())

    asyncio.run(run())


# ---------------------------------------------------------------------------
# the HTTP sidecar
# ---------------------------------------------------------------------------


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read()


def test_http_sidecar_serves_the_telemetry_plane():
    async def run():
        async with running_cluster_server(http_port=0) as (server, _engine):
            async with await NetClient.connect(port=server.port) as client:
                assert (await client.call_procedure("PutKV", 21, "x")).success
            base = server.http.url

            status, ctype, body = _get(base + "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["ok"] and not health["draining"]

            status, ctype, body = _get(base + "/metrics")
            assert status == 200 and ctype.startswith("text/plain")
            text = body.decode()
            # read from the server's own counters at scrape time
            [requests] = [
                line.split()[-1]
                for line in text.splitlines()
                if line.startswith("repro_net.requests ")
            ]
            assert float(requests) == server.counters["requests"] == 1
            assert 'repro_partition.txns_committed{partition="' in text

            status, _ctype, body = _get(base + "/metrics.json")
            metrics = json.loads(body)
            assert "net.request_us" in metrics

            status, _ctype, body = _get(base + "/statsz")
            stats = json.loads(body)
            assert stats["engine"]["txns_committed"] == 1
            assert stats["telemetry"]["partition_skew"]["total_txns"] == 1

            status, _ctype, body = _get(base + "/flight")
            flight = json.loads(body)
            assert flight["flight"]["recorded"] >= 1
            assert any(r["name"] == "PutKV" for r in flight["records"])

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(base + "/nope")
            assert excinfo.value.code == 404
            assert "/metrics" in excinfo.value.read().decode()

    asyncio.run(run())


def test_http_metrics_404_when_obs_off():
    async def run():
        engine = ParallelHStoreEngine(2)  # no obs config: NULL metrics
        server = NetServer(engine, port=0, http_port=0)
        await server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.http.url + "/metrics")
            assert excinfo.value.code == 404
            # healthz still answers: liveness is engine-independent
            status, _ctype, body = _get(server.http.url + "/healthz")
            assert status == 200 and json.loads(body)["ok"]
        finally:
            await server.stop()
            engine.shutdown()

    asyncio.run(run())


# ---------------------------------------------------------------------------
# head-based sampling of server-rooted traces
# ---------------------------------------------------------------------------


class TestHeadSampling:
    """Requests without client context are traced 1 in ``trace_sample``.

    The sampling clock is a plain modulo counter, so over a multiple of N
    context-less requests exactly ``count / N`` root a server-side trace —
    whatever phase the clock starts at.  Client-traced requests bypass the
    clock entirely: the upstream sampling decision is always honored.
    """

    def test_untraced_requests_root_one_trace_in_n(self):
        async def run():
            async with running_cluster_server(trace_sample=4) as (
                server,
                engine,
            ):
                async with await NetClient.connect(port=server.port) as client:
                    for i in range(16):
                        result = await client.call_procedure("GetKV", i)
                        assert result.success
                return engine.tracer.collector.spans()

        spans = asyncio.run(run())
        roots = [s for s in spans if s.name == "net.call" and s.parent_id is None]
        assert len(roots) == 4  # 16 requests / trace_sample=4
        # unsampled requests left no engine spans either: the tracer was
        # suspended end to end, so each sampled trace is still complete
        for root in roots:
            trace = [s for s in spans if s.trace_id == root.trace_id]
            assert "txn" in {s.kind for s in trace}

    def test_traced_clients_bypass_the_sampling_clock(self):
        async def run():
            async with running_cluster_server(trace_sample=10_000) as (
                server,
                engine,
            ):
                tracer = Tracer(process="client", origin=CLIENT_ORIGIN)
                async with await NetClient.connect(
                    port=server.port, tracer=tracer
                ) as client:
                    for i in range(8):
                        result = await client.call_procedure("GetKV", i)
                        assert result.success
                return _forests(tracer, engine)

        by_trace = asyncio.run(run())
        call_traces = [
            spans
            for spans in by_trace.values()
            if any(s.name == "client.call" for s in spans)
        ]
        assert len(call_traces) == 8
        for spans in call_traces:
            names = {s.name for s in spans}
            assert "net.call" in names and "net.commit_batch" in names
            assert "txn" in {s.kind for s in spans}

    def test_trace_sample_must_be_positive(self):
        from repro.errors import ReproError

        engine = ParallelHStoreEngine(2)
        try:
            with pytest.raises(ReproError):
                NetServer(engine, port=0, trace_sample=0)
        finally:
            engine.shutdown()


def test_txn_metrics_visible_once_the_response_arrives():
    """A stats scrape after the response sees the request's latency."""

    async def run():
        async with running_cluster_server() as (server, engine):
            async with await NetClient.connect(port=server.port) as client:
                result = await client.call_procedure("PutKV", 777, "deferred")
                assert result.success
                # the server's accounting ran before the response went out
                stats = await client.stats()
            return stats

    stats = asyncio.run(run())
    metrics = stats["metrics"]
    assert "net.request_us" in metrics
    assert any(entry["count"] >= 1 for entry in metrics["net.request_us"])
