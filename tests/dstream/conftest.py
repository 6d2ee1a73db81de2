"""Shared builders for the distributed-streaming (dstream) suite.

Every builder deploys the *same* workflow script on whatever engine it is
handed — a single-process :class:`SStoreEngine` or a
:class:`DStreamEngine` cluster — which is what makes the differential
report meaningful: identical inputs, identical deployment, two runtimes.
"""

from __future__ import annotations

from repro.core.engine import SStoreEngine
from repro.core.recovery import logical
from repro.core.workflow import WorkflowSpec
from repro.dstream import DStreamEngine

from tests.dstream.procs import Audit, Logger, Relay, Sink

PIPE_DDL = [
    "CREATE STREAM src (k INTEGER)",
    "CREATE STREAM src2 (k INTEGER)",
    "CREATE STREAM mid (k INTEGER, tag VARCHAR(8))",
    # no PRIMARY KEY on relay_log: re-running a key during crash-recovery
    # workloads must never turn into a replay-breaking constraint violation
    "CREATE TABLE relay_log (k INTEGER NOT NULL, parity INTEGER)",
    "CREATE TABLE sink_counts (k INTEGER NOT NULL, n INTEGER, PRIMARY KEY (k))",
    "CREATE TABLE audit_log (k INTEGER NOT NULL, tag VARCHAR(8))",
]

#: relay on worker 0, sink on worker 1 — the canonical cross-worker edge
PIPE_SPLIT = {"relay": 0, "sink": 1}


def install_pipe_schema(engine) -> None:
    for ddl in PIPE_DDL:
        engine.execute_ddl(ddl)
    for procedure in (Relay, Sink, Audit, Logger):
        engine.register_procedure(procedure)


def pipe_spec(batch_size: int = 2) -> WorkflowSpec:
    spec = WorkflowSpec("pipe")
    spec.add_node(
        "relay", input_stream="src", batch_size=batch_size,
        output_streams=("mid",),
    )
    spec.add_node("sink", input_stream="mid")
    return spec


def build_pipe(engine, placement=None, batch_size: int = 2):
    """Deploy the relay → sink pipe on ``engine`` (single or cluster)."""
    install_pipe_schema(engine)
    if placement is None or not isinstance(engine, DStreamEngine):
        engine.deploy_workflow(pipe_spec(batch_size))
    else:
        engine.deploy_workflow(pipe_spec(batch_size), placement=placement)
    return engine


def build_pipe_single(batch_size: int = 2) -> SStoreEngine:
    return build_pipe(SStoreEngine(), batch_size=batch_size)


def build_pipe_cluster(
    workers: int = 2, placement=PIPE_SPLIT, batch_size: int = 2, **kwargs
) -> DStreamEngine:
    engine = DStreamEngine(workers, **kwargs)
    return build_pipe(engine, placement=placement, batch_size=batch_size)


def commits_of(engine) -> dict[str, tuple[int, int]]:
    """``commits:<stream>`` → ``(batches, crc32)``, wherever it committed."""
    return {
        key: value
        for key, value in logical(engine.observe()).items()
        if key.startswith("commits:")
    }


# ---------------------------------------------------------------------------
# BikeShare, GPS pipeline only — the hybrid OLTP half stays off the cluster
# (router-chosen workers would write workflow-owned tables; see
# docs/INTERNALS.md §11)
# ---------------------------------------------------------------------------


def build_gps(engine, placement=None):
    """Deploy only BikeShare's gps_pipeline (track_movement → detect_anomaly).

    The two nodes write disjoint tables (positions/rides vs
    bikes/alerts/city_stats), so a split placement is legal; seeding runs
    *after* deploy so owned-table DML routes to the owner.
    """
    from repro.apps.bikeshare import schema
    from repro.apps.bikeshare.procedures import DetectAnomaly, TrackMovement

    schema.install_tables(engine)
    schema.install_streams(engine)
    engine.register_procedure(TrackMovement)
    engine.register_procedure(DetectAnomaly)
    spec = WorkflowSpec("gps_pipeline")
    spec.add_node(
        "track_movement", input_stream="gps_in", batch_size=4,
        output_streams=("movements",),
    )
    spec.add_node("detect_anomaly", input_stream="movements")
    if placement is None or not isinstance(engine, DStreamEngine):
        engine.deploy_workflow(spec)
    else:
        engine.deploy_workflow(spec, placement=placement)
    schema.seed_city(engine, num_stations=4, capacity=6, bikes_per_station=3,
                     num_riders=6)
    return engine


def gps_fixes(reports: int = 40) -> list[list[tuple]]:
    """Deterministic GPS fix chunks: bike 1 creeps, bike 2 sprints (alerts)."""
    chunks = []
    for step in range(reports):
        ts = (step + 1) * 10
        chunks.append([
            (1, ts, 0.001 * step, 0.0),
            (2, ts, 0.2 * step, 0.1 * step),
        ])
    return chunks
