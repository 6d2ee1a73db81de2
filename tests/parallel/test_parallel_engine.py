"""ParallelHStoreEngine behaves exactly like the in-process engine."""

from __future__ import annotations

import pytest

from repro.apps.voter import schema
from repro.apps.voter.workload import VoterWorkload
from repro.errors import PartitionError, ReproError, UnknownObjectError
from repro.hstore.engine import HStoreEngine
from repro.hstore.partition import route_value
from repro.parallel import ParallelHStoreEngine

from tests.parallel.conftest import _DDL, _PROCEDURES, build_cluster
from tests.parallel.procs import RoutedValidateVote

pytestmark = pytest.mark.parallel


# ---------------------------------------------------------------------------
# Routing + single-partition execution
# ---------------------------------------------------------------------------


def test_single_partition_txns_route_by_stable_hash(cluster):
    for key in range(24):
        result = cluster.call_procedure("PutKV", key, f"v{key}")
        assert result.success, result.error
        assert result.partition == 0  # worker-local partition id
    # every row lives on exactly the worker stable_hash says it should
    for wid in range(2):
        shard_keys = sorted(row[0] for row in cluster.table_rows("kv", wid))
        assert shard_keys == sorted(
            key for key in range(24) if route_value(key, 2) == wid
        )


def test_reads_see_writes_across_processes(cluster):
    assert cluster.call_procedure("PutKV", 5, "hello").success
    got = cluster.call_procedure("GetKV", 5)
    assert got.success and got.data == "hello"
    missing = cluster.call_procedure("GetKV", 999)
    assert missing.success and missing.data is None


def test_aborts_cross_the_pipe_as_results_not_exceptions(cluster):
    result = cluster.call_procedure("AbortOnNegative", -3, "x")
    assert not result.success
    assert "negative key" in result.error
    assert cluster.table_rows("kv") == []


def test_unknown_procedure_raises_coordinator_side(cluster):
    with pytest.raises(UnknownObjectError):
        cluster.call_procedure("Nonexistent", 1)


def test_locally_defined_procedure_is_rejected_with_guidance(cluster):
    from repro.hstore.procedure import StoredProcedure

    class Local(StoredProcedure):
        name = "Local"
        statements = {}

        def run(self, ctx):
            return None

    with pytest.raises(ReproError, match="module level"):
        cluster.register_procedure(Local)


# ---------------------------------------------------------------------------
# Multi-partition fence protocol
# ---------------------------------------------------------------------------


def test_everywhere_txn_commits_on_all_workers(cluster):
    result = cluster.call_procedure("BumpAll", 1, "note")
    assert result.success
    assert len(result.data) == 2  # one payload per worker
    assert len(cluster.table_rows("audit")) == 2
    for wid in range(2):
        assert len(cluster.table_rows("audit", wid)) == 1


def test_everywhere_abort_rolls_back_every_worker(cluster):
    result = cluster.call_procedure("PoisonedEverywhere", 9, "boom")
    assert not result.success
    assert "poisoned" in result.error
    assert cluster.table_rows("audit") == []


def test_everywhere_read_aggregates_per_worker_answers(cluster):
    for key in range(10):
        cluster.call_procedure("PutKV", key, "x")
    counts = cluster.call_procedure("CountEverywhere")
    assert counts.success
    assert sum(counts.data) == 10


def test_cluster_matches_inprocess_engine_state():
    """The equivalence the whole subsystem rests on: same API, same state."""
    reference = HStoreEngine(partitions=2)
    for ddl in _DDL:
        reference.execute_ddl(ddl)
    for procedure in _PROCEDURES:
        reference.register_procedure(procedure)
    cluster = build_cluster(workers=2)
    try:
        script = [
            ("PutKV", (3, "a")),
            ("PutKV", (7, "b")),
            ("BumpAll", (1, "first")),
            ("AbortOnNegative", (-1, "no")),
            ("PutKV", (12, "c")),
            ("BumpAll", (2, "second")),
        ]
        for name, params in script:
            ref = reference.call_procedure(name, *params)
            par = cluster.call_procedure(name, *params)
            assert ref.success == par.success
        ref_kv = {
            wid: sorted(reference.table_rows("kv", wid)) for wid in range(2)
        }
        par_kv = {wid: sorted(cluster.table_rows("kv", wid)) for wid in range(2)}
        assert ref_kv == par_kv
        assert sorted(reference.table_rows("audit", 0)) == sorted(
            cluster.table_rows("audit", 0)
        )
    finally:
        cluster.shutdown()


def _voter(engine):
    schema.install_tables(engine)
    engine.register_procedure(RoutedValidateVote)
    schema.seed_contestants(engine, 12)
    return engine


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_routed_votes_commit_as_in_process_at_every_worker_count(workers):
    """Sharding Voter's SP1 by phone changes no vote's fate: as many
    transactions commit, and the same votes are accepted, as in process."""
    workload = VoterWorkload(seed=4242, num_contestants=12)
    rows = [request.as_row() for request in workload.generate(240)]
    reference = _voter(HStoreEngine())
    committed = sum(
        reference.call_procedure("validate_vote", *row).success for row in rows
    )
    cluster = _voter(ParallelHStoreEngine(workers))
    try:
        routed = sum(
            cluster.call_procedure("validate_vote", *row).success for row in rows
        )
        assert routed == committed
        assert sorted(cluster.table_rows("votes")) == sorted(
            reference.table_rows("votes")
        )
    finally:
        cluster.shutdown()


# ---------------------------------------------------------------------------
# Ad-hoc SQL
# ---------------------------------------------------------------------------


def test_adhoc_dml_replicates_to_every_worker(cluster):
    count = cluster.execute_sql(
        "INSERT INTO audit (tag, note) VALUES (?, ?)", 1, "seeded"
    )
    assert count == 1
    for wid in range(2):
        assert cluster.table_rows("audit", wid) == [(1, "seeded")]


def test_adhoc_select_scatter_gathers(cluster):
    for key in range(8):
        cluster.call_procedure("PutKV", key, f"v{key}")
    result = cluster.execute_sql("SELECT k, v FROM kv WHERE k < ?", 4)
    assert sorted(result.rows) == [(k, f"v{k}") for k in range(4)]


def test_adhoc_ordered_select_refused_on_multi_worker(cluster):
    with pytest.raises(PartitionError, match="scatter-gather"):
        cluster.execute_sql("SELECT k FROM kv ORDER BY k")


def test_adhoc_ordered_select_allowed_on_single_worker():
    single = build_cluster(workers=1)
    try:
        single.call_procedure("PutKV", 2, "b")
        single.call_procedure("PutKV", 1, "a")
        result = single.execute_sql("SELECT k FROM kv ORDER BY k")
        assert [row[0] for row in result.rows] == [1, 2]
    finally:
        single.shutdown()


# ---------------------------------------------------------------------------
# Stats + IPC accounting
# ---------------------------------------------------------------------------


def test_stats_merge_coordinator_and_workers(cluster):
    for key in range(6):
        cluster.call_procedure("PutKV", key, "x")
    merged = cluster.stats
    assert merged.txns_committed == 6
    assert merged.client_pe_roundtrips == 6
    # one IPC round trip per invoke, plus deployment traffic
    assert merged.ipc_roundtrips >= 6
    # worker-local stats know nothing of client round trips
    for worker_stats in cluster.worker_stats():
        assert worker_stats.client_pe_roundtrips == 0
        assert worker_stats.ipc_roundtrips == 0


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def test_shutdown_stops_worker_processes():
    cluster = build_cluster(workers=2)
    processes = [worker.process for worker in cluster.workers]
    assert all(process.is_alive() for process in processes)
    cluster.shutdown()
    assert not any(process.is_alive() for process in processes)
    # idempotent
    cluster.shutdown()


def test_context_manager_shuts_down():
    with build_cluster(workers=2) as cluster:
        assert cluster.call_procedure("PutKV", 1, "x").success
    assert not any(worker.alive for worker in cluster.workers)


def test_exported_from_package_root():
    import repro

    assert repro.ParallelHStoreEngine is ParallelHStoreEngine
