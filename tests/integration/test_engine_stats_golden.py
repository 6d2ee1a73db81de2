"""Every engine counter of a fixed Voter run and a fixed BikeShare run.

The apps' answers are checked elsewhere; this pins *how* the engine got
them — which lane each statement took (``point_lookups``), how many
statements, round trips, triggers, window slides and log records it cost —
so a change to the execution engine that keeps every answer but moves a
statement to another lane, or adds a crossing, fails here.  The numbers are the engine's own at the time they
were recorded; a change that moves one on purpose re-records it and says
why.
"""

from __future__ import annotations

from repro.apps.bikeshare import BikeShareApp, BikeShareSimulation
from repro.apps.voter.sstore_app import VoterSStoreApp
from repro.apps.voter.workload import VoterWorkload
from repro.core.engine import SStoreEngine

VOTER = {
    "client_pe_roundtrips": 101,
    "ee_statements": 3980,
    "ee_trigger_firings": 345,
    "ipc_roundtrips": 0,
    "log_flushes": 101,
    "log_records": 101,
    "pe_ee_roundtrips": 4728,
    "pe_trigger_firings": 348,
    "plan_cache_hits": 18,
    "plan_cache_misses": 3,
    "point_lookups": 1117,
    "rows_deleted": 2055,
    "rows_inserted": 2494,
    "rows_updated": 748,
    "snapshots_taken": 0,
    "stream_tuples_emitted": 348,
    "stream_tuples_gced": 748,
    "stream_tuples_ingested": 400,
    "txns_aborted": 0,
    "txns_committed": 769,
    "window_expired_rows": 245,
    "window_slides": 345,
}

BIKESHARE = {
    "client_pe_roundtrips": 438,
    "ee_statements": 12383,
    "ee_trigger_firings": 2546,
    "ipc_roundtrips": 0,
    "log_flushes": 507,
    "log_records": 507,
    "pe_ee_roundtrips": 13731,
    "pe_trigger_firings": 674,
    "plan_cache_hits": 123,
    "plan_cache_misses": 9,
    "point_lookups": 3017,
    "rows_deleted": 7696,
    "rows_inserted": 7871,
    "rows_updated": 5864,
    "snapshots_taken": 0,
    "stream_tuples_emitted": 2577,
    "stream_tuples_gced": 5180,
    "stream_tuples_ingested": 2573,
    "txns_aborted": 69,
    "txns_committed": 1424,
    "window_expired_rows": 2516,
    "window_slides": 2546,
}


def test_voter_counters():
    engine = SStoreEngine()
    app = VoterSStoreApp(engine, num_contestants=10)
    requests = VoterWorkload(seed=303, num_contestants=10).generate(400)
    app.submit(requests, ingest_chunk=5)
    assert engine.stats.snapshot() == VOTER


def test_bikeshare_counters():
    engine = SStoreEngine()
    app = BikeShareApp(
        engine, num_stations=9, capacity=8, bikes_per_station=4, num_riders=24
    )
    BikeShareSimulation(
        app,
        seed=88,
        trip_speed_mph=30.0,
        drain_station=1,
        drain_bias=0.7,
        theft_at_tick=60,
        trip_start_probability=0.5,
    ).run(200)
    assert engine.stats.snapshot() == BIKESHARE
