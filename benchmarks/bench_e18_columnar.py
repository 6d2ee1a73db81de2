"""E18 — Columnar storage: vectorized full-scan analytics vs row-at-a-time.

The claim (docs/INTERNALS.md §15): full-scan aggregates and filters over
:class:`~repro.hstore.columnar.ColumnCache` vectors run batch-at-a-time —
one Python-level dispatch per *column expression* instead of one per row —
so analytics over history tables get faster as tables grow, while point
lookups keep taking the row-store fast lane untouched.

The sweep runs a BikeShare-style ride-history analytics mix (global
filtered aggregates, GROUP BY rollups, a predicate projection) at 1x, 10x
and 100x table sizes on three engines that differ only in execution mode:

* *vector*  — default: compiled plans + columnar batch evaluation;
* *row*     — ``tests.lanes.compiled_row_arm``: the same compiled closures
  with no statement lowered, row-at-a-time;
* *interp*  — ``tests.oracle.oracle_arm``: the tree-walking interpreter
  (oracle).

All three must return identical rows.  Expectation: the vector/row ratio
grows with table size and clears 3x at 100x (the acceptance bar), with the
vector/interp ratio higher still.

Regression guard: ``columnar_scan_speedup`` (machine-independent ratio).
"""

from __future__ import annotations

import gc
import time

from repro.bench import format_table, write_bench_json
from repro.hstore.engine import HStoreEngine
from tests.lanes import compiled_row_arm
from tests.oracle import oracle_arm

BASE_SIZE = 300
SCALES = (1, 10, 100)
QUERY_ROUNDS = 12
STATIONS = 9
MIN_SPEEDUP_100X = 3.0

QUERIES = [
    # global filtered aggregate: the archetypal history-table rollup
    "SELECT COUNT(*), SUM(fare), AVG(duration_s), MIN(distance_mi), "
    "MAX(distance_mi) FROM ride_history WHERE duration_s > 600",
    # per-station rollup: grouped aggregation over the full table
    "SELECT station, COUNT(*), SUM(fare), AVG(distance_mi) "
    "FROM ride_history GROUP BY station",
    # predicate projection: selection-vector filter, no aggregation
    "SELECT ride_id, fare FROM ride_history "
    "WHERE distance_mi > 2.5 AND promo IS NULL",
]

ARMS = {
    "vector": HStoreEngine,
    "row": lambda: compiled_row_arm(HStoreEngine()),
    "interp": lambda: oracle_arm(HStoreEngine()),
}


def build(size: int, make_engine=HStoreEngine) -> HStoreEngine:
    eng = make_engine()
    eng.execute_ddl(
        "CREATE TABLE ride_history ("
        "ride_id INTEGER NOT NULL, station INTEGER NOT NULL, "
        "duration_s INTEGER NOT NULL, distance_mi FLOAT NOT NULL, "
        "fare FLOAT NOT NULL, promo INTEGER, PRIMARY KEY (ride_id))"
    )
    table = eng.partitions[0].ee.table("ride_history")
    # bulk-load via insert_many — the same funnel snapshot load_state uses
    table.insert_many(
        [
            (
                i,
                i % STATIONS,
                120 + (i * 37) % 1800,
                0.25 * (1 + (i * 13) % 20),
                1.5 + 0.1 * ((i * 7) % 40),
                None if i % 5 else i % 3,
            )
            for i in range(size)
        ]
    )
    return eng


def run_point(size: int, make_engine) -> tuple[float, list, dict[str, int]]:
    """CPU seconds for QUERY_ROUNDS passes over the analytics mix."""
    eng = build(size, make_engine)
    results = [eng.execute_sql(q).rows for q in QUERIES]  # warm plan cache
    gc.collect()
    started = time.process_time()
    for _ in range(QUERY_ROUNDS):
        for query in QUERIES:
            eng.execute_sql(query)
    elapsed = time.process_time() - started
    return elapsed, results, eng.stats.snapshot()


def test_e18_columnar_sweep(benchmark, save_report):
    times: dict[tuple[int, str], float] = {}
    counters: dict[tuple[int, str], dict[str, int]] = {}

    def sweep():
        for scale in SCALES:
            size = BASE_SIZE * scale
            reference = None
            for arm, make_engine in ARMS.items():
                best = float("inf")
                for _ in range(3):
                    elapsed, results, stats = run_point(size, make_engine)
                    best = min(best, elapsed)
                # correctness first: every arm answers identically
                if reference is None:
                    reference = results
                else:
                    assert results == reference, (scale, arm)
                times[(scale, arm)] = best
                counters[(scale, arm)] = stats

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    speedup_row = {s: times[(s, "row")] / times[(s, "vector")] for s in SCALES}
    speedup_interp = {
        s: times[(s, "interp")] / times[(s, "vector")] for s in SCALES
    }
    rows = [
        [
            f"{scale}x ({BASE_SIZE * scale} rows)",
            f"{times[(scale, 'interp')] * 1000:.1f}ms",
            f"{times[(scale, 'row')] * 1000:.1f}ms",
            f"{times[(scale, 'vector')] * 1000:.1f}ms",
            f"{speedup_row[scale]:.1f}x",
            f"{speedup_interp[scale]:.1f}x",
        ]
        for scale in SCALES
    ]
    save_report(
        "e18_columnar_sweep",
        format_table(
            ["table", "interp", "row", "vector", "vs row", "vs interp"], rows
        )
        + f"\n{QUERY_ROUNDS} rounds x {len(QUERIES)} queries per point, "
        + "best of 3;"
        + f"\nbar: vector-vs-row speedup at 100x >= {MIN_SPEEDUP_100X}x",
    )
    write_bench_json(
        "e18_columnar",
        {
            "config": {
                "base_size": BASE_SIZE,
                "scales": list(SCALES),
                "query_rounds": QUERY_ROUNDS,
                "queries": len(QUERIES),
            },
            "cpu_seconds": {
                f"{scale}x_{arm}": elapsed
                for (scale, arm), elapsed in sorted(times.items())
            },
            "speedup_vs_row": {f"{s}x": speedup_row[s] for s in SCALES},
            "speedup_vs_interp": {f"{s}x": speedup_interp[s] for s in SCALES},
            "bars": {"min_speedup_100x": MIN_SPEEDUP_100X},
            # regression-guarded metric (benchmarks/check_regression.py):
            # machine-independent ratio, not wall time
            "guard": {"columnar_scan_speedup": speedup_row[100]},
        },
    )

    # every timed query in the vector arm actually took the batch path
    # (3 queries x (1 warm + QUERY_ROUNDS) passes), with zero fallbacks
    vec_stats = counters[(100, "vector")]
    assert vec_stats.get("vector_scans", 0) >= len(QUERIES) * QUERY_ROUNDS
    assert vec_stats.get("vector_runtime_fallbacks", 0) == 0
    # the architectural claim: batch evaluation amortizes per-row dispatch,
    # so the advantage grows with table size...
    assert speedup_row[100] > speedup_row[1]
    # ...and clears the acceptance bar at 100x
    assert speedup_row[100] >= MIN_SPEEDUP_100X, (times, speedup_row)


def test_e18_point_lookups_untouched(benchmark, save_report):
    """OLTP guard: point lookups never detour through the column store.

    The vector path must engage only for full scans — a PK equality probe
    stays on the row-store index fast lane, and the columnar mirror is not
    even built for a table that never sees an analytics scan.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    eng = build(BASE_SIZE)
    for i in range(200):
        eng.execute_sql(
            "SELECT fare FROM ride_history WHERE ride_id = ?", i % BASE_SIZE
        )
    stats = eng.stats.snapshot()
    assert stats.get("point_lookups", 0) >= 200
    assert stats.get("vector_scans", 0) == 0
    assert eng.partitions[0].ee.table("ride_history")._colstore is None
    save_report(
        "e18_point_lookups",
        f"200 PK probes: {stats.get('point_lookups', 0)} point lookups, "
        f"{stats.get('vector_scans', 0)} vector scans, columnar mirror "
        "never materialized",
    )
