"""End-to-end tracing/metrics through the engines.

These tests exercise the instrumentation sites rather than the tracer in
isolation: a traced workload must come out the other side as a *well-formed
span forest* — every parent exists in the same trace, time flows forward,
nothing leaks — with the causal chain the paper's architecture implies
(ingest → PE trigger → downstream transaction) sharing one trace id.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import SStoreEngine, StreamProcedure
from repro.core.workflow import WorkflowSpec
from repro.hstore.engine import TXN_SAMPLE_BOUND, HStoreEngine
from repro.hstore.procedure import StoredProcedure
from repro.obs import ObsConfig


pytestmark = pytest.mark.obs

class Doubler(StreamProcedure):
    name = "doubler"
    statements = {}

    def run(self, ctx):
        ctx.emit("doubled", [(v * 2,) for (v,) in ctx.batch])


class Recorder(StreamProcedure):
    name = "recorder"
    statements = {"ins": "INSERT INTO sink VALUES (?)"}

    def run(self, ctx):
        for (v,) in ctx.batch:
            ctx.execute("ins", v)


def build_pipeline(obs: ObsConfig | None, *, batch_size: int = 2) -> SStoreEngine:
    eng = SStoreEngine(obs=obs)
    eng.execute_ddl("CREATE STREAM numbers (v INTEGER)")
    eng.execute_ddl("CREATE STREAM doubled (v INTEGER)")
    eng.execute_ddl("CREATE TABLE sink (v INTEGER)")
    eng.register_procedure(Doubler)
    eng.register_procedure(Recorder)
    wf = WorkflowSpec("doubling")
    wf.add_node(
        "doubler",
        input_stream="numbers",
        batch_size=batch_size,
        output_streams=("doubled",),
    )
    wf.add_node("recorder", input_stream="doubled")
    eng.deploy_workflow(wf)
    return eng


def assert_well_formed_forest(spans) -> None:
    """Every span closed, ids unique, parents resolvable within the trace.

    Time containment is asserted only for same-process parent/child pairs
    where the child started while the parent was open — a PE-trigger span
    legitimately *ends* before the downstream transaction it caused runs
    (async causality, as in the scheduler), and cross-process clocks are
    only approximately aligned.
    """
    by_id = {}
    for span in spans:
        assert span.span_id not in by_id, "duplicate span id"
        by_id[span.span_id] = span
    for span in spans:
        assert span.end_us is not None, f"open span {span!r}"
        assert span.end_us >= span.start_us
        assert not (span.attrs or {}).get("leaked"), f"leaked span {span!r}"
        if span.parent_id is not None:
            parent = by_id.get(span.parent_id)
            assert parent is not None, f"orphan parent id on {span!r}"
            assert parent.trace_id == span.trace_id


class TestStreamingLineage:
    def test_ingest_chain_shares_one_trace(self):
        eng = build_pipeline(ObsConfig())
        eng.ingest("numbers", [(1,), (2,)])
        spans = eng.tracer.collector.spans()
        assert_well_formed_forest(spans)
        ingest = eng.tracer.collector.find(kind="workflow")
        assert len(ingest) == 1
        trace = [s for s in spans if s.trace_id == ingest[0].trace_id]
        kinds = {s.kind for s in trace}
        # the whole cascade — both TEs and the trigger hop between them —
        # hangs off the single ingest trace
        assert {"workflow", "trigger", "txn"} <= kinds
        txn_names = {s.name for s in trace if s.kind == "txn"}
        assert txn_names == {"doubler", "recorder"}

    def test_separate_ingests_get_separate_traces(self):
        eng = build_pipeline(ObsConfig(), batch_size=1)
        eng.ingest("numbers", [(1,)])
        eng.ingest("numbers", [(2,)])
        roots = eng.tracer.collector.find(kind="workflow")
        assert len(roots) == 2
        assert roots[0].trace_id != roots[1].trace_id

    def test_txn_outcome_attribute(self):
        eng = build_pipeline(ObsConfig())
        eng.ingest("numbers", [(5,), (6,)])
        for txn in eng.tracer.collector.find(kind="txn"):
            assert txn.attrs["outcome"] == "committed"

    def test_sql_spans_are_opt_in(self):
        silent = build_pipeline(ObsConfig())
        silent.ingest("numbers", [(1,), (2,)])
        assert silent.tracer.collector.find(kind="sql") == []
        verbose = build_pipeline(ObsConfig(sql_spans=True))
        verbose.ingest("numbers", [(1,), (2,)])
        sql = verbose.tracer.collector.find(kind="sql")
        assert any(span.name == "ins" for span in sql)
        # a statement span parents under its transaction
        txn_ids = {s.span_id for s in verbose.tracer.collector.find(kind="txn")}
        assert all(span.parent_id in txn_ids for span in sql)

    def test_log_flush_spans_recorded(self):
        eng = build_pipeline(ObsConfig())
        eng.ingest("numbers", [(1,), (2,)])
        assert eng.tracer.collector.find(kind="log.flush")

    def test_metrics_histograms_fill(self):
        eng = build_pipeline(ObsConfig())
        eng.ingest("numbers", [(1,), (2,)])
        snapshot = eng.metrics.to_json()
        procedures = {
            entry["labels"]["procedure"]
            for entry in snapshot["txn_latency_us"]
        }
        assert procedures == {"doubler", "recorder"}
        assert all(e["count"] >= 1 for e in snapshot["txn_latency_us"])

    def test_disabled_engine_records_nothing(self):
        eng = build_pipeline(None)
        eng.ingest("numbers", [(1,), (2,)])
        assert eng.tracer.enabled is False
        assert len(eng.tracer.collector) == 0
        assert eng.metrics is None
        # the workload itself still ran
        assert eng.execute_sql("SELECT COUNT(*) FROM sink").scalar() == 2


class Tally(StoredProcedure):
    name = "tally"
    statements = {"ins": "INSERT INTO tally VALUES (?, ?)"}

    def run(self, ctx, key, amount):
        ctx.execute("ins", key, amount)
        return amount


class TestHStoreInstrumentation:
    def _engine(self, obs: ObsConfig | None = None) -> HStoreEngine:
        eng = HStoreEngine(obs=obs)
        eng.execute_ddl(
            "CREATE TABLE tally (k INTEGER NOT NULL, amount INTEGER, "
            "PRIMARY KEY (k))"
        )
        eng.register_procedure(Tally)
        return eng

    def test_call_wraps_txn(self):
        eng = self._engine(ObsConfig())
        eng.call_procedure("tally", 1, 10)
        calls = eng.tracer.collector.find(kind="call")
        txns = eng.tracer.collector.find(kind="txn")
        assert len(calls) == 1 and len(txns) == 1
        assert txns[0].parent_id == calls[0].span_id
        assert txns[0].trace_id == calls[0].trace_id
        assert_well_formed_forest(eng.tracer.collector.spans())

    def test_snapshot_span(self):
        eng = self._engine(ObsConfig())
        eng.call_procedure("tally", 1, 10)
        eng.take_snapshot()
        assert eng.tracer.collector.find(kind="snapshot", name="take")

    def test_recovery_span_shows_what_it_read_and_replayed(self, tmp_path):
        eng = self._engine()
        eng.enable_durability(tmp_path)
        for k in range(5):
            if k == 3:
                offset = eng.take_snapshot().log_offset
            eng.call_procedure("tally", k, 10)
        eng.shutdown()
        fresh = self._engine(ObsConfig())
        fresh.restore_from_disk(tmp_path)
        [replay] = fresh.tracer.collector.find(kind="recovery", name="replay")
        assert offset > 0
        assert replay.attrs == {
            "log_offset": offset, "records_scanned": 2, "replayed": 2
        }
        fresh.shutdown()

    def test_adhoc_sql_span(self):
        eng = self._engine(ObsConfig())
        eng.execute_sql("SELECT COUNT(*) FROM tally")
        assert eng.tracer.collector.find(kind="sql", name="<adhoc>")

    def test_call_metrics(self):
        eng = self._engine(ObsConfig(tracing=False))
        eng.call_procedure("tally", 1, 10)
        eng.call_procedure("tally", 2, 20)
        snapshot = eng.metrics.to_json()
        assert snapshot["txn_latency_us"][0]["count"] == 2
        committed = snapshot["txns_total"][0]
        assert committed["labels"]["outcome"] == "committed"
        assert committed["value"] == 2

    def test_sample_list_is_bounded_between_exports(self):
        eng = self._engine(ObsConfig(tracing=False))
        longest = 0
        for k in range(10_000):
            eng.call_procedure("tally", k, 1)
            longest = max(longest, len(eng._txn_samples))
        assert longest <= TXN_SAMPLE_BOUND
        # full lists were folded in on the engine thread, not held for export
        [latency] = eng.metrics.to_json()["txn_latency_us"]
        assert latency["count"] == 10_000
        assert eng._txn_samples == []


def _exported(text: str, name: str) -> float:
    """The value of an unlabeled series in Prometheus text exposition."""
    [value] = [
        line.split()[-1] for line in text.splitlines() if line.startswith(f"{name} ")
    ]
    return float(value)


def test_engine_stats_exported_as_engine_counters():
    eng = SStoreEngine(obs=ObsConfig())
    eng.execute_ddl(
        "CREATE TABLE tally (k INTEGER NOT NULL, amount INTEGER, PRIMARY KEY (k))"
    )
    eng.register_procedure(Tally)
    for k in range(3):
        assert eng.call_procedure("tally", k, 10).success
    text = eng.metrics.to_prometheus()
    stats = eng.stats
    assert stats.txns_committed == 3
    assert _exported(text, "repro_engine.txns_committed") == stats.txns_committed
    assert _exported(text, "repro_engine.pe_ee_roundtrips") == stats.pe_ee_roundtrips
    assert stats.pe_ee_roundtrips > 0


class TestSpanForestProperty:
    """For arbitrary small workload shapes, the span forest is well-formed."""

    @settings(max_examples=12, deadline=None)
    @given(
        tuples=st.integers(min_value=1, max_value=12),
        batch_size=st.integers(min_value=1, max_value=4),
        chunk=st.integers(min_value=1, max_value=4),
        sql_spans=st.booleans(),
    )
    def test_any_shape_yields_well_formed_forest(
        self, tuples, batch_size, chunk, sql_spans
    ):
        eng = build_pipeline(
            ObsConfig(sql_spans=sql_spans), batch_size=batch_size
        )
        rows = [(v,) for v in range(tuples)]
        for start in range(0, tuples, chunk):
            eng.ingest("numbers", rows[start : start + chunk])
        spans = eng.tracer.collector.spans()
        assert_well_formed_forest(spans)
        assert eng.tracer.depth == 0
        # lineage: every txn span belongs to a trace rooted at some ingest
        ingest_traces = {
            s.trace_id for s in spans if s.kind == "workflow"
        }
        for txn in (s for s in spans if s.kind == "txn"):
            assert txn.trace_id in ingest_traces
