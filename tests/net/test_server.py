"""Server lifecycle and load: group commit, admission control, shutdown.

Covers the tentpole behaviors end to end over real sockets:

* ≥50 concurrent clients produce state identical to the same workload run
  in-process (the differential check);
* concurrently arriving txns coalesce into group commits (fewer log
  flushes than requests);
* ``max_inflight`` overload fast-rejects with ``SERVER_BUSY`` instead of
  queueing; ``max_pipeline`` pauses reads for pushy/slow clients;
* graceful shutdown drains admitted txns and answers them before closing;
* malformed frames get one protocol-error frame and a close — and never
  take the server down.
"""

from __future__ import annotations

import asyncio
import threading
import time
from contextlib import asynccontextmanager

import pytest

from repro.apps.voter import schema
from repro.apps.voter.procedures import ValidateVote
from repro.errors import (
    ConnectionClosedError,
    ProtocolError,
    ReproError,
    ServerBusyError,
    UnknownObjectError,
)
from repro.core.engine import SStoreEngine
from repro.hstore.engine import HStoreEngine
from repro.hstore.procedure import StoredProcedure
from repro.net import protocol as proto
from repro.net.client import NetClient, SyncNetClient
from repro.net.server import NetServer

pytestmark = pytest.mark.net


class SleepyProc(StoredProcedure):
    """Holds the engine thread busy: makes saturation deterministic."""

    name = "sleepy"
    statements = {}

    def run(self, ctx, seconds=0.005):
        time.sleep(seconds)
        return "done"


def make_voter_engine(**kwargs) -> HStoreEngine:
    engine = HStoreEngine(**kwargs)
    schema.install_tables(engine)
    schema.seed_contestants(engine)
    engine.register_procedure(ValidateVote)
    engine.register_procedure(SleepyProc)
    return engine


@asynccontextmanager
async def running(engine, **kwargs):
    server = NetServer(engine, port=0, **kwargs)
    await server.start()
    try:
        yield server
    finally:
        await server.stop()
        engine.shutdown()


def distinct_votes(clients: int, per_client: int) -> list[list[tuple]]:
    """All-distinct, all-valid votes: the final state is interleaving-free."""
    return [
        [(f"{c:03d}-555-{i:04d}", (c + i) % schema.NUM_CONTESTANTS + 1, i)
         for i in range(per_client)]
        for c in range(clients)
    ]


# ---------------------------------------------------------------------------
# the differential check: networked state == in-process state
# ---------------------------------------------------------------------------


def test_50_clients_match_in_process_run():
    shares = distinct_votes(clients=50, per_client=6)

    async def networked():
        engine = make_voter_engine(command_logging=True)

        async def one_client(port, votes):
            async with await NetClient.connect("127.0.0.1", port) as client:
                for vote in votes:
                    result = await client.call_procedure("validate_vote", *vote)
                    assert result.success

        async with running(engine) as server:
            await asyncio.gather(
                *(one_client(server.port, share) for share in shares)
            )
            rows = sorted(engine.execute_sql("SELECT * FROM votes").rows)
            counters = server.counters.copy()
        return rows, counters

    rows_net, counters = asyncio.run(networked())

    engine = make_voter_engine(command_logging=True)
    for share in shares:
        for vote in share:
            assert engine.call_procedure("validate_vote", *vote).success
    rows_local = sorted(engine.execute_sql("SELECT * FROM votes").rows)
    engine.shutdown()

    assert rows_net == rows_local
    assert len(rows_net) == 300
    assert counters["requests"] == 300
    assert counters["connections_total"] == 50


def test_group_commit_coalesces_concurrent_txns():
    async def body():
        engine = make_voter_engine(command_logging=True)
        shares = distinct_votes(clients=30, per_client=5)

        async def one_client(port, votes):
            async with await NetClient.connect("127.0.0.1", port) as client:
                for vote in votes:
                    await client.call_procedure("validate_vote", *vote)

        async with running(engine) as server:
            await asyncio.gather(
                *(one_client(server.port, share) for share in shares)
            )
            counters = server.counters.copy()
        # 150 requests from 30 concurrent clients must coalesce: strictly
        # fewer batches (= log flushes) than requests, nothing lost
        assert counters["requests"] == 150
        assert counters["batches"] < counters["requests"]
        assert counters["log_flushes"] <= counters["batches"]
        assert counters["flushed_records"] == 150

    asyncio.run(body())


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


def test_overload_fast_rejects_with_server_busy():
    async def body():
        engine = make_voter_engine(command_logging=False)
        async with running(engine, max_inflight=2, max_pipeline=64) as server:
            async with await NetClient.connect("127.0.0.1", server.port) as client:
                results = await asyncio.gather(
                    *(client.call_procedure("sleepy", 0.01) for _ in range(30)),
                    return_exceptions=True,
                )
                busy = [r for r in results if isinstance(r, ServerBusyError)]
                done = [r for r in results if not isinstance(r, Exception)]
                assert busy, "expected SERVER_BUSY fast-rejects under overload"
                assert done, "admitted requests must still complete"
                assert len(busy) + len(done) == 30
                assert server.counters["busy_rejected"] == len(busy)
                # fast-reject means *not executed*: retry is safe
                retry = await client.call_procedure("sleepy", 0.0)
                assert retry.success
            assert server.inflight == 0

    asyncio.run(body())


def test_pipeline_cap_pauses_reads_and_recovers():
    async def body():
        engine = make_voter_engine(command_logging=False)
        async with running(engine, max_pipeline=4) as server:
            async with await NetClient.connect("127.0.0.1", server.port) as client:
                # 40 pipelined slow calls: the read loop must hit the
                # per-connection cap and pause instead of dispatching all
                results = await asyncio.gather(
                    *(client.call_procedure("sleepy", 0.002) for _ in range(40))
                )
                assert all(r.success for r in results)
                assert server.counters["read_pauses"] > 0
            assert server.inflight == 0

    asyncio.run(body())


def test_other_clients_stay_responsive_while_one_hammers():
    async def body():
        engine = make_voter_engine(command_logging=False)
        async with running(engine, max_pipeline=8) as server:
            hammer = await NetClient.connect("127.0.0.1", server.port)
            probe = await NetClient.connect("127.0.0.1", server.port)
            try:
                storm = asyncio.gather(
                    *(hammer.call_procedure("sleepy", 0.002) for _ in range(50))
                )
                # ping is admission-exempt: it must answer mid-storm
                for _ in range(5):
                    assert await probe.ping("alive") == "alive"
                await storm
            finally:
                await hammer.close()
                await probe.close()

    asyncio.run(body())


# ---------------------------------------------------------------------------
# graceful shutdown
# ---------------------------------------------------------------------------


def test_graceful_shutdown_drains_in_flight_txns():
    async def body():
        engine = make_voter_engine(command_logging=True)
        server = NetServer(engine, port=0)
        await server.start()
        client = await NetClient.connect("127.0.0.1", server.port)
        votes = distinct_votes(1, 20)[0]
        tasks = [
            asyncio.create_task(client.call_procedure("validate_vote", *vote))
            for vote in votes
        ]
        await asyncio.sleep(0.01)  # let them be admitted
        stop_task = asyncio.create_task(server.stop())
        results = await asyncio.gather(*tasks, return_exceptions=True)
        await stop_task
        committed = [r for r in results if not isinstance(r, Exception)]
        # every admitted txn was executed, flushed and answered; requests
        # dispatched after draining began got a clean shutting-down error
        assert all(r.success for r in committed)
        late = [r for r in results if isinstance(r, Exception)]
        assert all(isinstance(e, ConnectionClosedError) for e in late)
        recorded = engine.execute_sql("SELECT COUNT(*) FROM votes").scalar()
        assert recorded == len(committed)
        assert server.inflight == 0
        await client.close()
        engine.shutdown()

    asyncio.run(body())


def test_requests_after_drain_get_shutting_down_error():
    async def body():
        engine = make_voter_engine(command_logging=False)
        server = NetServer(engine, port=0)
        await server.start()
        client = await NetClient.connect("127.0.0.1", server.port)
        server._draining = True  # simulate mid-shutdown arrival
        with pytest.raises(ConnectionClosedError, match="shutting down"):
            await client.call_procedure("sleepy", 0.0)
        server._draining = False
        await client.close()
        await server.stop()
        engine.shutdown()

    asyncio.run(body())


# ---------------------------------------------------------------------------
# malformed input never crashes the server
# ---------------------------------------------------------------------------


async def _expect_protocol_error_close(port: int, garbage: bytes) -> str:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(garbage)
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=5)  # until EOF
    writer.close()
    frames = proto.FrameDecoder().feed(raw)
    assert len(frames) == 1
    frame_type, payload = frames[0]
    assert frame_type == proto.RESP_PROTOCOL_ERROR
    return payload["message"]


def test_malformed_frames_close_with_protocol_error_frame():
    async def body():
        engine = make_voter_engine(command_logging=False)
        async with running(engine) as server:
            # wrong version byte
            message = await _expect_protocol_error_close(
                server.port, b"\x63\x01\x00\x00\x00\x02{}"
            )
            assert "version" in message
            # unknown frame type
            message = await _expect_protocol_error_close(
                server.port, b"\x01\x7e\x00\x00\x00\x02{}"
            )
            assert "unknown frame type" in message
            # a request frame with no correlation id
            message = await _expect_protocol_error_close(
                server.port,
                proto.encode_frame(proto.REQ_PING, {"echo": "no id"}),
            )
            assert "no 'id'" in message
            # absurd length field
            message = await _expect_protocol_error_close(
                server.port, b"\x01\x01\xff\xff\xff\xff"
            )
            assert "exceeds" in message
            assert server.counters["protocol_errors"] == 4
            # ...and the server still serves well-behaved clients
            async with await NetClient.connect("127.0.0.1", server.port) as ok:
                assert await ok.ping("fine") == "fine"

    asyncio.run(body())


def test_abrupt_disconnect_mid_pipeline_is_harmless():
    async def body():
        engine = make_voter_engine(command_logging=False)
        async with running(engine, max_pipeline=4) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for i in range(20):
                writer.write(
                    proto.encode_frame(
                        proto.REQ_CALL,
                        {"id": i, "proc": "sleepy", "params": [0.001]},
                    )
                )
            await writer.drain()
            writer.close()  # vanish with responses still pending
            await asyncio.sleep(0.2)
            # the server must have cleaned the connection up and stayed sane
            async with await NetClient.connect("127.0.0.1", server.port) as ok:
                assert (await ok.call_procedure("sleepy", 0.0)).success
            assert server.inflight == 0

    asyncio.run(body())


# ---------------------------------------------------------------------------
# streaming backend + sync client
# ---------------------------------------------------------------------------


def test_ingest_over_the_wire_drives_sstore():
    async def body():
        engine = SStoreEngine(command_logging=False)
        engine.execute_ddl("CREATE STREAM readings (sensor INT, value INT)")
        async with running(engine) as server:
            async with await NetClient.connect("127.0.0.1", server.port) as client:
                count = await client.ingest("readings", [(1, 10), (2, 20)])
                assert count == 2
                with pytest.raises(UnknownObjectError):
                    await client.ingest("no_such_stream", [(1, 1)])

    asyncio.run(body())


def test_truncate_over_the_wire_empties_the_table():
    async def body():
        engine = make_voter_engine(command_logging=False)
        async with running(engine) as server:
            async with await NetClient.connect("127.0.0.1", server.port) as client:
                vote = await client.call_procedure("validate_vote", "999-0001", 1, 0)
                assert vote.success
                count = await client.execute_sql("SELECT COUNT(*) FROM votes")
                assert count.scalar() == 1
                await client.execute_sql("TRUNCATE TABLE votes")
                rows = await client.execute_sql("SELECT * FROM votes")
                assert rows.rows == []

    asyncio.run(body())


def test_ingest_rejected_on_non_streaming_backend():
    async def body():
        engine = make_voter_engine(command_logging=False)
        async with running(engine) as server:
            async with await NetClient.connect("127.0.0.1", server.port) as client:
                with pytest.raises(ReproError, match="does not support stream"):
                    await client.ingest("whatever", [(1,)])

    asyncio.run(body())


def test_stats_frame_reports_server_and_engine():
    async def body():
        engine = make_voter_engine(command_logging=True)
        async with running(engine) as server:
            async with await NetClient.connect("127.0.0.1", server.port) as client:
                await client.call_procedure("validate_vote", "000-1", 1, 0)
                stats = await client.stats()
                assert stats["server"]["requests"] >= 1
                assert stats["server"]["group_commit_size"] == server.group_commit_size
                assert stats["server"]["connections_open"] == 1
                assert stats["engine"]["txns_committed"] >= 1

    asyncio.run(body())


def test_sync_client_blocking_facade():
    engine = make_voter_engine(command_logging=False)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = NetServer(engine, port=0)
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
    try:
        with SyncNetClient("127.0.0.1", server.port) as db:
            assert db.ping("sync") == "sync"
            result = db.call_procedure("validate_vote", "999-0001", 1, 0)
            assert result.success
            rows = db.execute_sql("SELECT COUNT(*) FROM votes").scalar()
            assert rows == 1
            assert db.stats()["server"]["requests"] >= 2
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()
        engine.shutdown()


def test_group_commit_resize_skips_cluster_logs():
    # the duck-type guard: only a real CommandLog gets its group size
    # raised; anything else (e.g. _ClusterCommandLog) must be left alone
    class FakeClusterLog:
        enabled = True

        def flush(self):
            return 0

    engine = make_voter_engine(command_logging=True)
    engine.command_log = FakeClusterLog()

    async def body():
        async with running(engine, group_commit_size=999) as server:
            assert not hasattr(engine.command_log, "group_size")
            async with await NetClient.connect("127.0.0.1", server.port) as client:
                assert await client.ping(1) == 1

    asyncio.run(body())
