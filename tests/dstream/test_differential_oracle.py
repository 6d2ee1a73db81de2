"""The differential report: single engine vs the cluster.

One workflow script, two runtimes.  Committed state and per-stream batch
commit order, placement folded out by ``repro.core.recovery.logical``,
must be indistinguishable — the acceptance bar for the distributed
scheduler.
"""

from __future__ import annotations

import pytest

from repro.apps.voter.sstore_app import VoterSStoreApp
from repro.apps.voter.workload import VoterWorkload
from repro.core.engine import SStoreEngine
from repro.core.workflow import WorkflowSpec
from repro.dstream import DStreamEngine
from repro.core.recovery import differential_report, diverging, logical
from repro.core.transaction import validate_schedule

from tests.dstream.conftest import (
    build_gps,
    build_pipe_cluster,
    build_pipe_single,
    commits_of,
    gps_fixes,
    install_pipe_schema,
)

pytestmark = pytest.mark.dstream


# ---------------------------------------------------------------------------
# The cross-worker pipe
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "workers,placement",
    [
        (2, {"relay": 0, "sink": 1}),
        (3, {"relay": 2, "sink": 0}),
    ],
)
def test_pipe_differential(workers, placement):
    single = build_pipe_single()
    cluster = build_pipe_cluster(workers=workers, placement=placement)
    try:
        for k in range(17):  # odd count: last batch stays half-filled
            single.ingest("src", [(k,)])
            cluster.ingest("src", [(k,)])
        single.run_until_quiescent()
        cluster.run_until_quiescent()
        report = differential_report(single, cluster)
        assert report.equivalent, report.summary()
        # the oracle compared something real: both streams committed batches
        order = commits_of(cluster)
        assert order["commits:src"][0] == 8  # 16 consumed rows / batch of 2
        assert order["commits:src"] == commits_of(single)["commits:src"]
        assert order["commits:mid"][0] == 8
    finally:
        cluster.shutdown()


def test_pipe_differential_with_chunked_ingest_and_ticks():
    single = build_pipe_single()
    cluster = build_pipe_cluster(workers=2)
    try:
        for engine in (single, cluster):
            engine.ingest("src", [(k,) for k in range(5)])
            engine.advance_time(2)
            engine.ingest("src", [(k,) for k in range(5, 11)])
            engine.advance_time(1)
            engine.run_until_quiescent()
        report = differential_report(single, cluster)
        assert report.equivalent, report.summary()
        clocks = tuple(place["clock"] for place in cluster.observe().values())
        assert clocks == (3, 3)
    finally:
        cluster.shutdown()


def test_fanout_two_consumers_coplaced():
    """sink and audit both consume mid — legal when co-located."""

    def build(engine, cluster=False):
        install_pipe_schema(engine)
        spec = WorkflowSpec("fanout")
        spec.add_node(
            "relay", input_stream="src", batch_size=2, output_streams=("mid",)
        )
        spec.add_node("sink", input_stream="mid")
        spec.add_node("audit", input_stream="mid")
        if cluster:
            engine.deploy_workflow(
                spec, placement={"relay": 0, "sink": 1, "audit": 1}
            )
        else:
            engine.deploy_workflow(spec)
        return engine

    single = build(SStoreEngine())
    cluster = build(DStreamEngine(2), cluster=True)
    try:
        for k in range(8):
            single.ingest("src", [(k,)])
            cluster.ingest("src", [(k,)])
        single.run_until_quiescent()
        cluster.run_until_quiescent()
        report = differential_report(single, cluster)
        assert report.equivalent, report.summary()
        assert len(logical(cluster.observe())["audit_log"]) == 8
    finally:
        cluster.shutdown()


# ---------------------------------------------------------------------------
# Voter with Leaderboard (serial workflow, auto co-located)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("batch_size", [1, 3])
def test_voter_differential(workers, batch_size):
    requests = VoterWorkload(num_contestants=5).generate(48)
    single = VoterSStoreApp(
        SStoreEngine(), num_contestants=5, batch_size=batch_size
    )
    single.submit(requests, ingest_chunk=2)
    cluster_engine = DStreamEngine(workers)
    try:
        cluster = VoterSStoreApp(
            cluster_engine, num_contestants=5, batch_size=batch_size
        )
        cluster.submit(requests, ingest_chunk=2)
        report = differential_report(single.engine, cluster_engine)
        assert report.equivalent, report.summary()
        # the election-level view (ordered SELECTs over owned tables) agrees
        assert single.summary() == cluster.summary()
        assert single.leaderboards() == cluster.leaderboards()
        # every worker's committed-TE history obeys the schedule rules the
        # single engine does, and together they hold every TE it ran
        histories = cluster_engine.schedule_histories()
        for history in histories:
            assert validate_schedule(history, single.workflow) == []
        assert sum(map(len, histories)) == len(single.engine.schedule_history)
        # every TE expired its own input on both deployments: the same
        # tuples collected, and no <gc> transaction anywhere
        stats, reference = cluster_engine.stats, single.engine.stats
        assert stats.stream_tuples_gced == reference.stream_tuples_gced > 0
        assert stats.extra.get("gc_passes", 0) == 0
        assert reference.extra.get("gc_passes", 0) == 0
    finally:
        cluster_engine.shutdown()


def test_voter_serial_workflow_is_coplaced_on_its_home_worker():
    cluster_engine = DStreamEngine(4)
    try:
        VoterSStoreApp(cluster_engine, num_contestants=5, batch_size=2)
        info = cluster_engine.workflow_placement("voter_leaderboard")
        assert info["serial_required"] is True
        assert len(set(info["placement"].values())) == 1
    finally:
        cluster_engine.shutdown()


# ---------------------------------------------------------------------------
# BikeShare, GPS pipeline (split placement, native window on worker 1)
# ---------------------------------------------------------------------------


def test_bikeshare_gps_differential():
    single = build_gps(SStoreEngine())
    cluster = build_gps(
        DStreamEngine(2),
        placement={"track_movement": 0, "detect_anomaly": 1},
    )
    try:
        for chunk in gps_fixes(30):
            single.ingest("gps_in", chunk)
            cluster.ingest("gps_in", chunk)
        single.run_until_quiescent()
        cluster.run_until_quiescent()
        report = differential_report(single, cluster)
        assert report.equivalent, report.summary()
        # the sprinting bike produced a stolen-bike alert on worker 1 only
        observation = cluster.observe()
        assert logical(observation)["alerts"], "workload never exercised detect_anomaly"
        assert observation[0]["p0:alerts"] == []
        # the recent_movements window statistic was maintained on worker 1
        speed = cluster.execute_sql(
            "SELECT avg_recent_speed FROM city_stats WHERE stat_id = 0"
        ).scalar()
        assert speed is not None and speed > 0
    finally:
        cluster.shutdown()


# ---------------------------------------------------------------------------
# Order evidence: the oracle actually detects order, not just state
# ---------------------------------------------------------------------------


def test_oracle_flags_divergent_commit_order():
    single_a = build_pipe_single()
    single_b = build_pipe_single()
    for k in range(4):
        single_a.ingest("src", [(k,)])
    for k in reversed(range(4)):
        single_b.ingest("src", [(k,)])
    single_a.run_until_quiescent()
    single_b.run_until_quiescent()
    report = differential_report(single_a, single_b)
    assert not report.equivalent
    assert "commits:src" in report.mismatched_keys


def test_cluster_observation_flags_divergent_commit_order():
    """What the crash-recovery checker compares on a cluster sees order too:
    the same keys in opposite orders commit equal tables on both workers
    but different commit digests on each stream."""
    forward = build_pipe_cluster(2)
    backward = build_pipe_cluster(2)
    try:
        for k in range(4):
            forward.ingest("src", [(k,)])
            backward.ingest("src", [(3 - k,)])
        forward.run_until_quiescent()
        backward.run_until_quiescent()
        assert diverging(forward.observe(), backward.observe()) == [
            "w0/commits:src",
            "w1/commits:mid",
        ]
    finally:
        forward.shutdown()
        backward.shutdown()
