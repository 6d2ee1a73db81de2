"""E13 — Query compilation: plans lowered once, and the plan cache.

:mod:`repro.hstore.compile` turns each planned statement into flat closures
once at plan time, and the engine's PlanCache makes ad-hoc ``execute_sql``
pay parse+plan once per distinct statement text.

Measured here:

* Voter streaming workload (the E3 configuration) and the BikeShare mixed
  workload (the E8 city, shortened) end-to-end, CPU seconds — a record,
  not a guarded ratio: the tree-walking interpreter they were once
  compared against is the test oracle now (``tests/oracle.py``), and its
  speed is not a property of the product;
* ad-hoc statement repetition with the plan cache on vs. off — the
  hot path must amortize parse+plan away entirely.

Bar: plan-cache hot ≥ 5× cold.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.apps.bikeshare import BikeShareApp, BikeShareSimulation
from repro.apps.voter.sstore_app import VoterSStoreApp
from repro.apps.voter.workload import VoterWorkload
from repro.bench import format_table, write_bench_json
from repro.core.engine import SStoreEngine
from repro.hstore.engine import HStoreEngine

CONTESTANTS = 10
VOTES = 600
VOTER_ROUNDS = 6
BIKESHARE_TICKS = 120
BIKESHARE_ROUNDS = 2
ADHOC_REPEATS = 2000

MIN_CACHE_SPEEDUP = 5.0

#: a representative ad-hoc statement: enough expression surface that
#: parse+plan dominates its (point-lookup) execution
ADHOC_SQL = (
    "SELECT k, v, k * 2 + 1 FROM kv "
    "WHERE k = ? AND (v LIKE '%a%' OR v IS NULL OR k BETWEEN ? AND ?)"
)


def _requests():
    return VoterWorkload(seed=303, num_contestants=CONTESTANTS).generate(VOTES)


def _run_voter() -> tuple[float, SStoreEngine]:
    engine = SStoreEngine()
    app = VoterSStoreApp(engine, num_contestants=CONTESTANTS)
    requests = _requests()
    gc.collect()
    started = time.process_time()
    app.submit(requests, ingest_chunk=5)
    return time.process_time() - started, engine


def _run_bikeshare() -> float:
    engine = SStoreEngine()
    app = BikeShareApp(
        engine, num_stations=9, capacity=8, bikes_per_station=4, num_riders=24
    )
    sim = BikeShareSimulation(
        app,
        seed=88,
        trip_speed_mph=30.0,
        drain_station=1,
        drain_bias=0.7,
        theft_at_tick=60,
        trip_start_probability=0.5,
    )
    gc.collect()
    started = time.process_time()
    sim.run(BIKESHARE_TICKS)
    return time.process_time() - started


def _make_kv(**kwargs) -> HStoreEngine:
    eng = HStoreEngine(**kwargs)
    eng.execute_ddl(
        "CREATE TABLE kv (k INTEGER NOT NULL, v VARCHAR(16), PRIMARY KEY (k))"
    )
    for i in range(50):
        eng.execute_sql("INSERT INTO kv VALUES (?, ?)", i, f"v{i}a")
    return eng


def _run_adhoc(cache: bool) -> float:
    eng = _make_kv(plan_cache_size=128 if cache else 0)
    eng.execute_sql(ADHOC_SQL, 0, 0, 1)  # warm: first miss planned either way
    gc.collect()
    started = time.process_time()
    for i in range(ADHOC_REPEATS):
        eng.execute_sql(ADHOC_SQL, i % 50, 10, 20)
    return time.process_time() - started


@pytest.fixture(scope="module")
def sweep():
    voter = float("inf")
    voter_counters: dict[str, int] = {}
    for _ in range(VOTER_ROUNDS):
        elapsed, engine = _run_voter()
        if elapsed < voter:
            voter = elapsed
            voter_counters = engine.stats.snapshot()

    bikeshare = min(_run_bikeshare() for _ in range(BIKESHARE_ROUNDS))

    adhoc = {"hot": float("inf"), "cold": float("inf")}
    for _ in range(3):
        adhoc["hot"] = min(adhoc["hot"], _run_adhoc(cache=True))
        adhoc["cold"] = min(adhoc["cold"], _run_adhoc(cache=False))

    return voter, voter_counters, bikeshare, adhoc


def test_e13_cache_counters_track_the_workload(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    eng = _make_kv()
    misses_after_seed = eng.stats.plan_cache_misses
    for i in range(10):
        eng.execute_sql("SELECT v FROM kv WHERE k = ?", i)
    assert eng.stats.plan_cache_misses == misses_after_seed + 1
    assert eng.stats.plan_cache_hits >= 9 + 49  # probe hits + seed INSERT hits


def test_e13_compile_throughput(benchmark, sweep, save_report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    voter, voter_counters, bikeshare, adhoc = sweep

    cache_speedup = adhoc["cold"] / adhoc["hot"]

    rows = [
        ["voter (E3 config)", f"{voter * 1000:.1f}ms", "", ""],
        [f"bikeshare ({BIKESHARE_TICKS} ticks)", f"{bikeshare * 1000:.1f}ms", "", ""],
        [
            f"ad-hoc x{ADHOC_REPEATS} (hot vs cold)",
            f"{adhoc['hot'] * 1000:.1f}ms",
            f"{adhoc['cold'] * 1000:.1f}ms",
            f"{cache_speedup:.2f}x",
        ],
    ]
    save_report(
        "e13_compile",
        format_table(["workload", "cpu / hot", "cold", "speedup"], rows)
        + f"\nbar: plan-cache hot ≥ {MIN_CACHE_SPEEDUP}x (best of "
        + f"{VOTER_ROUNDS} voter rounds, 3 ad-hoc rounds)"
        + f"\npoint lookups served: {voter_counters.get('point_lookups', 0)}",
    )
    write_bench_json(
        "e13_compile",
        {
            "workloads": {
                "voter": {"votes": VOTES, "contestants": CONTESTANTS},
                "bikeshare": {"ticks": BIKESHARE_TICKS},
                "adhoc": {"repeats": ADHOC_REPEATS},
            },
            "cpu_seconds": {
                "voter": voter,
                "bikeshare": bikeshare,
                "adhoc_hot": adhoc["hot"],
                "adhoc_cold": adhoc["cold"],
            },
            "point_lookups": voter_counters.get("point_lookups", 0),
            "bars": {"min_cache_speedup": MIN_CACHE_SPEEDUP},
            # regression-guarded metric (benchmarks/check_regression.py):
            # a machine-independent ratio, not a wall time
            "guard": {"plan_cache_hot_speedup": cache_speedup},
        },
    )

    assert cache_speedup >= MIN_CACHE_SPEEDUP, (adhoc, cache_speedup)
    assert voter_counters.get("point_lookups", 0) > 0
