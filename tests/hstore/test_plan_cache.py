"""Engine-level plan cache: hit/miss accounting, LRU, DDL invalidation.

Ad-hoc ``execute_sql`` statements are parsed and planned once per distinct
(normalized) SQL text; repeat executions bind fresh parameters against the
cached plan.  Any DDL bumps ``catalog.version`` and lazily invalidates every
stale entry.  Recovery replays ad-hoc DML through ``execute_sql`` — i.e.
through this cache — so cached plans must stay safe across a crash.
"""

from __future__ import annotations

import pytest

from repro.hstore.engine import HStoreEngine
from repro.hstore.plancache import PlanCache, normalize_sql
from repro.hstore.recovery import crash_and_recover


def make_kv(**kwargs) -> HStoreEngine:
    eng = HStoreEngine(**kwargs)
    eng.execute_ddl(
        "CREATE TABLE kv (k INTEGER NOT NULL, v VARCHAR(16), PRIMARY KEY (k))"
    )
    return eng


class TestNormalization:
    def test_whitespace_collapses(self):
        assert normalize_sql("SELECT  *\n  FROM t") == "SELECT * FROM t"

    def test_whitespace_variants_share_one_entry(self):
        eng = make_kv()
        eng.execute_sql("INSERT INTO kv VALUES (1, 'a')")
        eng.execute_sql("SELECT v FROM kv WHERE k = ?", 1)
        before = eng.stats.plan_cache_hits
        eng.execute_sql("SELECT v\n   FROM kv   WHERE k = ?", 1)
        assert eng.stats.plan_cache_hits == before + 1


class TestHitMiss:
    def test_first_execution_misses_then_hits(self):
        eng = make_kv()
        eng.execute_sql("INSERT INTO kv VALUES (?, ?)", 1, "a")
        eng.execute_sql("INSERT INTO kv VALUES (?, ?)", 2, "b")
        eng.execute_sql("INSERT INTO kv VALUES (?, ?)", 3, "c")
        # one distinct INSERT text: 1 miss + 2 hits
        assert eng.stats.plan_cache_misses == 1
        assert eng.stats.plan_cache_hits == 2
        assert eng.execute_sql("SELECT v FROM kv WHERE k = ?", 2).scalar() == "b"
        assert eng.execute_sql("SELECT v FROM kv WHERE k = ?", 3).scalar() == "c"
        assert eng.stats.plan_cache_misses == 2
        assert eng.stats.plan_cache_hits == 3

    def test_cached_plan_returns_fresh_results(self):
        """A cache hit must re-execute, not replay stale rows."""
        eng = make_kv()
        sql = "SELECT COUNT(*) FROM kv"
        assert eng.execute_sql(sql).scalar() == 0
        eng.execute_sql("INSERT INTO kv VALUES (1, 'a')")
        assert eng.execute_sql(sql).scalar() == 1

    def test_cache_disabled_with_size_zero(self):
        eng = make_kv(plan_cache_size=0)
        assert eng.plan_cache is None
        eng.execute_sql("SELECT * FROM kv")
        eng.execute_sql("SELECT * FROM kv")
        assert eng.stats.plan_cache_hits == 0
        assert eng.stats.plan_cache_misses == 0

    def test_procedure_statements_do_not_touch_the_cache(self):
        from repro.hstore.procedure import StoredProcedure

        class Put(StoredProcedure):
            name = "put"
            partition_param = 0
            statements = {"ins": "INSERT INTO kv VALUES (?, ?)"}

            def run(self, ctx, key, value):
                ctx.execute("ins", key, value)

        eng = make_kv()
        eng.register_procedure(Put)
        for i in range(5):
            eng.call_procedure("put", i, f"v{i}")
        assert eng.stats.plan_cache_hits == 0
        assert eng.stats.plan_cache_misses == 0


class TestLru:
    def test_capacity_evicts_least_recently_used(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 0, "plan-a")
        cache.put("b", 0, "plan-b")
        assert cache.get("a", 0) == "plan-a"  # a is now most recent
        cache.put("c", 0, "plan-c")  # evicts b
        assert cache.contains("a")
        assert not cache.contains("b")
        assert cache.contains("c")
        assert len(cache) == 2

    def test_engine_cache_respects_capacity(self):
        eng = make_kv(plan_cache_size=2)
        eng.execute_sql("SELECT k FROM kv")
        eng.execute_sql("SELECT v FROM kv")
        eng.execute_sql("SELECT k, v FROM kv")
        assert len(eng.plan_cache) == 2
        assert not eng.plan_cache.contains("SELECT k FROM kv")


class TestInvalidation:
    def test_ddl_bumps_catalog_version(self):
        eng = make_kv()
        v0 = eng.catalog.version
        eng.execute_ddl("CREATE TABLE other (id INTEGER)")
        v1 = eng.catalog.version
        assert v1 > v0
        eng.execute_ddl("CREATE INDEX kv_by_v ON kv (v)")
        assert eng.catalog.version > v1

    def test_stale_entry_is_invalidated_not_served(self):
        eng = make_kv()
        eng.execute_sql("INSERT INTO kv VALUES (1, 'a')")
        sql = "SELECT * FROM kv"
        assert eng.execute_sql(sql).rows == [(1, "a")]
        # replace kv with a different schema: the cached plan is now wrong
        eng.execute_ddl("DROP TABLE kv")
        eng.execute_ddl(
            "CREATE TABLE kv (k INTEGER NOT NULL, v VARCHAR(16), "
            "extra INTEGER, PRIMARY KEY (k))"
        )
        eng.execute_sql("INSERT INTO kv VALUES (1, 'a', 7)")
        assert eng.execute_sql(sql).rows == [(1, "a", 7)]
        assert eng.plan_cache.invalidations >= 1

    def test_new_index_is_picked_up_after_ddl(self):
        """Plans cached before CREATE INDEX must be re-planned to use it."""
        from repro.hstore.planner import IndexEqScan

        eng = make_kv()
        sql = "SELECT k FROM kv WHERE v = ?"
        eng.execute_sql(sql, "a")  # caches a seq-scan plan
        eng.execute_ddl("CREATE INDEX kv_by_v ON kv (v)")
        eng.execute_sql(sql, "a")  # stale: re-planned against the new catalog
        plan = eng.plan_cache.get(sql, eng.catalog.version)
        assert plan is not None
        assert isinstance(plan.access, IndexEqScan)


class TestRecovery:
    def test_cached_plans_safe_across_crash_and_recover(self):
        eng = make_kv()
        ins = "INSERT INTO kv VALUES (?, ?)"
        for i in range(5):
            eng.execute_sql(ins, i, f"v{i}")
        # the INSERT plan is hot in the cache when the crash hits
        assert eng.plan_cache.contains(ins)
        report = crash_and_recover(eng)
        assert report.replayed_transactions == 5
        rows = eng.execute_sql("SELECT k, v FROM kv ORDER BY k").rows
        assert rows == [(i, f"v{i}") for i in range(5)]

    def test_replay_goes_through_the_cache(self):
        eng = make_kv()
        ins = "INSERT INTO kv VALUES (?, ?)"
        for i in range(4):
            eng.execute_sql(ins, i, f"v{i}")
        hits_before = eng.stats.plan_cache_hits
        crash_and_recover(eng)
        # 4 replayed INSERTs hit the (still-valid) cached plan
        assert eng.stats.plan_cache_hits >= hits_before + 4


class TestObsExport:
    def test_counters_exported_through_metrics(self):
        from repro.obs.config import ObsConfig

        eng = HStoreEngine(obs=ObsConfig(metrics=True))
        eng.execute_ddl(
            "CREATE TABLE kv (k INTEGER NOT NULL, v VARCHAR(16), PRIMARY KEY (k))"
        )
        eng.execute_sql("INSERT INTO kv VALUES (1, 'a')")
        eng.execute_sql("INSERT INTO kv VALUES (2, 'b')")
        exported = eng.metrics.to_json()
        assert exported["engine.plan_cache_misses"][0]["value"] == 2
        assert exported["engine.plan_cache_hits"][0]["value"] == 0
        assert "plan_compile_us" in exported

    def test_compile_spans_emitted_when_tracing(self):
        from repro.obs.config import ObsConfig

        eng = HStoreEngine(obs=ObsConfig(tracing=True))
        eng.execute_ddl(
            "CREATE TABLE kv (k INTEGER NOT NULL, v VARCHAR(16), PRIMARY KEY (k))"
        )
        eng.execute_sql("INSERT INTO kv VALUES (1, 'a')")
        compiles = eng.tracer.collector.find(kind="compile")
        assert compiles
        assert any(span.attrs.get("sql") for span in compiles)
