"""E14 — Distributed streaming: the workflow scheduler on the cluster.

ISSUE 6's tentpole, measured: the same voter workflow runs in-process and
on DStreamEngine clusters of 1/2/4 workers.  The cluster must be
*semantically invisible* — identical committed state, identical per-stream
batch commit order, identical election — while paying real IPC for every
ingest.  Reported: throughput of each deployment plus the (deterministic)
messaging overhead; the equivalence flags and the votes-per-roundtrip
ratio are regression-guarded.
"""

from __future__ import annotations

import pytest

from repro.apps.voter.workload import VoterWorkload
from repro.bench import (
    compare_summaries,
    format_table,
    run_voter_dstream,
    run_voter_sstore,
    write_bench_json,
)
from repro.core.recovery import differential_report

from tests.dstream.conftest import commits_of

CONTESTANTS = 8
VOTES = 400
BATCH_SIZE = 2
INGEST_CHUNK = 4
WORKER_COUNTS = [1, 2, 4]


def _requests():
    return VoterWorkload(seed=1414, num_contestants=CONTESTANTS).generate(VOTES)


@pytest.fixture(scope="module")
def reference():
    return run_voter_sstore(
        _requests(),
        num_contestants=CONTESTANTS,
        batch_size=BATCH_SIZE,
        ingest_chunk=INGEST_CHUNK,
    )


def test_e14_cluster_vs_inprocess_throughput(benchmark, reference, save_report):
    rows = []
    results = {}
    equivalence = {}

    def run_all():
        results.clear()
        equivalence.clear()
        for workers in WORKER_COUNTS:
            result = run_voter_dstream(
                _requests(),
                num_contestants=CONTESTANTS,
                batch_size=BATCH_SIZE,
                ingest_chunk=INGEST_CHUNK,
                workers=workers,
                shutdown=False,
            )
            engine = result.app.engine
            try:
                report = differential_report(reference.app.engine, engine)
                anomaly = compare_summaries(reference.summary, result.summary)
                equivalence[workers] = (report, anomaly)
            finally:
                engine.shutdown()
            results[workers] = result

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows.append(
        [
            "in-process",
            f"{reference.wall_seconds:.3f}s",
            f"{reference.simulated_tps:.0f}",
            reference.counters.get("ipc_roundtrips", 0),
            "—",
        ]
    )
    for workers in WORKER_COUNTS:
        result = results[workers]
        report, anomaly = equivalence[workers]
        assert report.equivalent, f"{workers}w: {report.summary()}"
        assert not anomaly.any_anomaly, f"{workers}w: {anomaly}"
        rows.append(
            [
                result.system,
                f"{result.wall_seconds:.3f}s",
                f"{result.simulated_tps:.0f}",
                result.counters.get("ipc_roundtrips", 0),
                report.summary(),
            ]
        )

    two = results[2]
    votes_per_ipc = two.votes_processed / max(
        1, two.counters.get("ipc_roundtrips", 0)
    )
    votes_per_client_rt = two.votes_processed / max(
        1, two.counters.get("client_pe_roundtrips", 0)
    )
    save_report(
        "e14_dstream",
        format_table(
            ["deployment", "wall", "simulated tps", "ipc", "differential"],
            rows,
        )
        + f"\nvotes/ipc @2w = {votes_per_ipc:.3f}, "
        f"votes/client-roundtrip @2w = {votes_per_client_rt:.3f}",
    )
    write_bench_json(
        "e14_dstream",
        {
            "workload": {
                "votes": VOTES,
                "contestants": CONTESTANTS,
                "batch_size": BATCH_SIZE,
                "ingest_chunk": INGEST_CHUNK,
            },
            "wall_seconds": {
                "in_process": reference.wall_seconds,
                **{
                    f"workers_{workers}": results[workers].wall_seconds
                    for workers in WORKER_COUNTS
                },
            },
            "simulated_tps": {
                "in_process": reference.simulated_tps,
                **{
                    f"workers_{workers}": results[workers].simulated_tps
                    for workers in WORKER_COUNTS
                },
            },
            "ipc_roundtrips": {
                f"workers_{workers}": results[workers].counters.get(
                    "ipc_roundtrips", 0
                )
                for workers in WORKER_COUNTS
            },
            # regression-guarded metrics: all deterministic — equivalence
            # flags (1.0 = the oracle held at every worker count) and the
            # cluster's messaging efficiency on a fixed workload
            "guard": {
                "state_order_equivalence": float(
                    all(
                        report.equivalent and not anomaly.any_anomaly
                        for report, anomaly in equivalence.values()
                    )
                ),
                "votes_per_ipc_roundtrip": votes_per_ipc,
                "votes_per_client_roundtrip": votes_per_client_rt,
            },
        },
    )


def test_e14_commit_order_identical_across_worker_counts(reference):
    """The per-stream batch commit order is the same at every scale."""
    ref_order = commits_of(reference.app.engine)
    for workers in (2, 4):
        result = run_voter_dstream(
            _requests(),
            num_contestants=CONTESTANTS,
            batch_size=BATCH_SIZE,
            ingest_chunk=INGEST_CHUNK,
            workers=workers,
            shutdown=False,
        )
        engine = result.app.engine
        try:
            assert commits_of(engine) == ref_order
        finally:
            engine.shutdown()
