"""Deployment, placement validation, routing, and exactly-once plumbing."""

from __future__ import annotations

import pytest

from repro.core.engine import SStoreEngine
from repro.core.workflow import WorkflowSpec
from repro.dstream import DStreamEngine, StreamShardEngine
from repro.errors import (
    PartitionError,
    ReproError,
    StreamingError,
    WorkflowError,
)
from repro.hstore.partition import route_value

from tests.dstream.conftest import (
    PIPE_SPLIT,
    build_pipe_cluster,
    install_pipe_schema,
    pipe_spec,
)

pytestmark = pytest.mark.dstream


# ---------------------------------------------------------------------------
# Coordinator-level deployment rules
# ---------------------------------------------------------------------------


def test_log_group_size_forced_to_one():
    with pytest.raises(ReproError, match="log_group_size=1"):
        DStreamEngine(2, log_group_size=4)


def test_default_placement_is_the_home_worker():
    with build_pipe_cluster(workers=3, placement=None) as cluster:
        info = cluster.workflow_placement("pipe")
        home = route_value("pipe", 3)
        assert set(info["placement"].values()) == {home}
        assert info["border_streams"] == {"src": home}


def test_duplicate_deploy_refused():
    with build_pipe_cluster(workers=2) as cluster:
        with pytest.raises(WorkflowError, match="already deployed"):
            cluster.deploy_workflow(pipe_spec())


def test_placement_out_of_range_refused():
    cluster = DStreamEngine(2)
    try:
        install_pipe_schema(cluster)
        with pytest.raises(WorkflowError, match="cluster has 2"):
            cluster.deploy_workflow(pipe_spec(), placement={"relay": 5})
    finally:
        cluster.shutdown()


def test_serial_workflow_split_refused():
    """Voter's three procedures share writable tables — serial execution is
    required, so spreading them across workers must be rejected."""
    from repro.apps.voter import schema
    from repro.apps.voter.procedures import (
        RemoveLowest,
        UpdateLeaderboard,
        ValidateVote,
    )

    cluster = DStreamEngine(2)
    try:
        schema.install_tables(cluster)
        schema.install_streams(cluster)
        for procedure in (ValidateVote, UpdateLeaderboard, RemoveLowest):
            cluster.register_procedure(procedure)
        spec = WorkflowSpec("voter_leaderboard")
        spec.add_node(
            "validate_vote", input_stream="votes_in",
            output_streams=("validated_votes",),
        )
        spec.add_node(
            "update_leaderboard", input_stream="validated_votes",
            output_streams=("removal_due",),
        )
        spec.add_node("remove_lowest", input_stream="removal_due")
        with pytest.raises(WorkflowError, match="serial execution required"):
            cluster.deploy_workflow(
                spec, placement={"validate_vote": 0, "update_leaderboard": 1}
            )
    finally:
        cluster.shutdown()


def test_split_consumers_of_one_stream_refused():
    cluster = DStreamEngine(2)
    try:
        install_pipe_schema(cluster)
        spec = WorkflowSpec("fanout")
        spec.add_node(
            "relay", input_stream="src", batch_size=2, output_streams=("mid",)
        )
        spec.add_node("sink", input_stream="mid")
        spec.add_node("audit", input_stream="mid")
        with pytest.raises(WorkflowError, match="co-located"):
            cluster.deploy_workflow(
                spec, placement={"relay": 0, "sink": 1, "audit": 0}
            )
    finally:
        cluster.shutdown()


def test_cross_workflow_write_set_collision_refused():
    """relay (worker 0) and logger (worker 1) both write relay_log."""
    with build_pipe_cluster(workers=2) as cluster:
        second = WorkflowSpec("logpipe")
        second.add_node("logger", input_stream="src2")
        with pytest.raises(WorkflowError, match="disjoint table write sets"):
            cluster.deploy_workflow(second, placement={"logger": 1})


def test_seed_before_deploy_refused():
    cluster = DStreamEngine(2)
    try:
        install_pipe_schema(cluster)
        # with no workflow deployed yet this DML replicates to every worker
        cluster.execute_sql("INSERT INTO sink_counts (k, n) VALUES (1, 1)")
        with pytest.raises(WorkflowError, match="seed workflow-written tables"):
            cluster.deploy_workflow(pipe_spec(), placement=PIPE_SPLIT)
    finally:
        cluster.shutdown()


def test_ingest_without_workflow_refused():
    cluster = DStreamEngine(2)
    try:
        install_pipe_schema(cluster)
        with pytest.raises(StreamingError, match="no deployed workflow"):
            cluster.ingest("src", [(1,)])
    finally:
        cluster.shutdown()


# ---------------------------------------------------------------------------
# Cross-worker execution and routing
# ---------------------------------------------------------------------------


def test_cascade_crosses_the_worker_boundary():
    with build_pipe_cluster(workers=2) as cluster:
        for k in range(6):
            cluster.ingest("src", [(k,)])
        cluster.run_until_quiescent()
        # relay's table lives on worker 0, sink's on worker 1
        shards = cluster.observe()
        assert len(shards[0]["p0:relay_log"]) == 6
        assert shards[1]["p0:relay_log"] == []
        assert len(shards[1]["p0:sink_counts"]) == 6
        assert shards[0]["p0:sink_counts"] == []
        status = cluster.dstream_status()
        assert status[1]["watermarks"] == {"mid": 3}  # 6 rows, batch 2
        assert status[0]["watermarks"] == {}
        assert cluster.stats.extra.get("stream_tasks_dispatched") == 3


def test_owned_table_dml_routes_to_the_owner():
    with build_pipe_cluster(workers=2) as cluster:
        assert cluster.execute_sql(
            "INSERT INTO sink_counts (k, n) VALUES (7, 70)"
        ) == 1
        shards = cluster.observe()
        assert shards[1]["p0:sink_counts"] == [(7, 70)]
        assert shards[0]["p0:sink_counts"] == []


def test_ordered_select_on_owned_table_is_allowed():
    with build_pipe_cluster(workers=2) as cluster:
        for k in (3, 1, 2):
            cluster.execute_sql(
                "INSERT INTO sink_counts (k, n) VALUES (?, ?)", k, k * 10
            )
        rows = cluster.execute_sql(
            "SELECT k, n FROM sink_counts ORDER BY k DESC"
        ).rows
        assert rows == [(3, 30), (2, 20), (1, 10)]


def test_ordered_select_on_replicated_table_still_refused():
    with build_pipe_cluster(workers=2) as cluster:
        cluster.execute_ddl(
            "CREATE TABLE plain (k INTEGER NOT NULL, PRIMARY KEY (k))"
        )
        cluster.execute_sql("INSERT INTO plain VALUES (1)")
        with pytest.raises(PartitionError, match="scatter-gather"):
            cluster.execute_sql("SELECT k FROM plain ORDER BY k")


def test_tick_broadcast_applies_once_per_worker():
    with build_pipe_cluster(workers=2) as cluster:
        assert cluster.advance_time(2) == 2
        assert cluster.advance_time(1) == 3
        for state in cluster.dstream_status():
            assert state["ticks_applied"] == 2
        clocks = tuple(place["clock"] for place in cluster.observe().values())
        assert clocks == (3, 3)


# ---------------------------------------------------------------------------
# Shard-level exactly-once discipline (in-process, no subprocesses)
# ---------------------------------------------------------------------------


def _shard(worker_id: int) -> StreamShardEngine:
    shard = StreamShardEngine(worker_id=worker_id, worker_count=2)
    install_pipe_schema(shard)
    shard.deploy_placed_workflow(pipe_spec(), dict(PIPE_SPLIT))
    return shard


def test_stream_task_watermark_dedups_redelivery():
    shard = _shard(1)
    rows = [(1, "odd"), (2, "even")]
    assert shard.apply_stream_task("mid", 1, rows) is True
    assert shard.apply_stream_task("mid", 1, rows) is False  # replayed send
    assert shard.stats.extra.get("stream_tasks_deduped") == 1
    assert shard.execute_sql("SELECT n FROM sink_counts WHERE k = 1").scalar() == 1


def test_stream_task_gap_is_an_error():
    shard = _shard(1)
    with pytest.raises(StreamingError, match="gap"):
        shard.apply_stream_task("mid", 2, [(1, "odd")])


def test_misrouted_stream_task_is_an_error():
    shard = _shard(1)
    # src's consumer (relay) lives on worker 0; worker 1 must refuse it
    with pytest.raises(StreamingError, match="worker"):
        shard.apply_stream_task("src", 1, [(1,)])


def test_producer_side_buffers_outbound_dispatches():
    shard = _shard(0)
    shard.ingest("src", [(1,), (2,)])
    shard.run_until_quiescent()
    outbound = shard.take_outbound()
    assert outbound == [("mid", 1, ((1, "odd"), (2, "even")))]
    assert shard.take_outbound() == []  # drained
    # the producer's copy of the remote stream is GC'd, not queued locally
    assert shard.scheduler.pending_count == 0
