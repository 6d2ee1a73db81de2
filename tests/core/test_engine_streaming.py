"""End-to-end tests of the S-Store engine: ingest, triggers, GC, recovery."""

import pytest

from repro.core.engine import SStoreEngine, StreamProcedure
from repro.core.recovery import crash_and_recover_streaming
from repro.core.workflow import WorkflowSpec
from repro.errors import (
    ScopeViolationError,
    StreamingError,
    UnknownObjectError,
)


class Doubler(StreamProcedure):
    """BSP: forwards doubled values downstream."""

    name = "doubler"
    statements = {}

    def run(self, ctx):
        ctx.emit("doubled", [(v * 2,) for (v,) in ctx.batch])


class Recorder(StreamProcedure):
    """ISP: writes whatever arrives into a table."""

    name = "recorder"
    statements = {"ins": "INSERT INTO sink VALUES (?)"}

    def run(self, ctx):
        for (v,) in ctx.batch:
            ctx.execute("ins", v)


@pytest.fixture
def pipeline() -> SStoreEngine:
    eng = SStoreEngine()
    eng.execute_ddl("CREATE STREAM numbers (v INTEGER)")
    eng.execute_ddl("CREATE STREAM doubled (v INTEGER)")
    eng.execute_ddl("CREATE TABLE sink (v INTEGER)")
    eng.register_procedure(Doubler)
    eng.register_procedure(Recorder)
    wf = WorkflowSpec("doubling")
    wf.add_node(
        "doubler", input_stream="numbers", batch_size=2, output_streams=("doubled",)
    )
    wf.add_node("recorder", input_stream="doubled")
    eng.deploy_workflow(wf)
    return eng


class TestIngestAndTriggers:
    def test_pipeline_end_to_end(self, pipeline):
        pipeline.ingest("numbers", [(1,), (2,), (3,), (4,)])
        assert pipeline.execute_sql("SELECT v FROM sink ORDER BY v").rows == [
            (2,),
            (4,),
            (6,),
            (8,),
        ]

    def test_partial_batch_waits(self, pipeline):
        pipeline.ingest("numbers", [(1,)])  # batch size is 2
        assert pipeline.execute_sql("SELECT COUNT(*) FROM sink").scalar() == 0
        pipeline.ingest("numbers", [(2,)])
        assert pipeline.execute_sql("SELECT COUNT(*) FROM sink").scalar() == 2

    def test_one_client_roundtrip_per_ingest(self, pipeline):
        before = pipeline.stats.client_pe_roundtrips
        pipeline.ingest("numbers", [(1,), (2,), (3,), (4,)])
        assert pipeline.stats.client_pe_roundtrips == before + 1

    def test_pe_triggers_counted(self, pipeline):
        pipeline.ingest("numbers", [(1,), (2,)])
        assert pipeline.stats.pe_trigger_firings == 1

    def test_ingest_unknown_stream(self, pipeline):
        with pytest.raises(UnknownObjectError):
            pipeline.ingest("ghost", [(1,)])

    def test_ingest_into_interior_stream_rejected(self, pipeline):
        with pytest.raises(StreamingError):
            pipeline.ingest("doubled", [(1,)])

    def test_ingest_empty_rows_noop(self, pipeline):
        assert pipeline.ingest("numbers", []) == 0

    def test_lazy_mode_defers_execution(self):
        eng = SStoreEngine(eager=False)
        eng.execute_ddl("CREATE STREAM s (v INTEGER)")
        eng.execute_ddl("CREATE TABLE out (v INTEGER)")

        class Copy(StreamProcedure):
            name = "copy"
            statements = {"ins": "INSERT INTO out VALUES (?)"}

            def run(self, ctx):
                for (v,) in ctx.batch:
                    ctx.execute("ins", v)

        eng.register_procedure(Copy)
        wf = WorkflowSpec("wf")
        wf.add_node("copy", input_stream="s", batch_size=1)
        eng.deploy_workflow(wf)

        eng.ingest("s", [(1,), (2,)])
        assert eng.scheduler.pending_count == 2
        assert eng.execute_sql("SELECT COUNT(*) FROM out").scalar() == 0
        executed = eng.run_until_quiescent()
        assert executed == 2
        assert eng.execute_sql("SELECT COUNT(*) FROM out").scalar() == 2

    def test_schedule_history_recorded(self, pipeline):
        pipeline.ingest("numbers", [(1,), (2,), (3,), (4,)])
        procs = [r.procedure for r in pipeline.schedule_history]
        assert procs == ["doubler", "recorder", "doubler", "recorder"]

    def test_direct_stream_dml_rejected(self, pipeline):
        with pytest.raises(StreamingError):
            pipeline.execute_sql("INSERT INTO numbers VALUES (1)")

    def test_direct_window_dml_rejected(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM s (v INTEGER)")
        eng.execute_ddl("CREATE WINDOW w ON s ROWS 2 SLIDE 1 OWNED BY x")
        with pytest.raises(StreamingError):
            eng.execute_sql("DELETE FROM w")

    def test_adhoc_stream_read_allowed(self, pipeline):
        # monitoring reads on streams are fine
        assert pipeline.execute_sql("SELECT COUNT(*) FROM numbers").scalar() == 0


class TestWorkflowStatus:
    def test_quiescent_status(self, pipeline):
        pipeline.ingest("numbers", [(1,), (2,)])
        status = pipeline.workflow_status()
        assert status["pending_tes"] == 0
        assert status["committed_tes"] == 2  # doubler + recorder
        assert status["workflows"]["doubling"]["border"] == ["doubler"]
        assert status["streams"]["numbers"]["live_tuples"] == 0
        assert status["latency"].count == 1

    def test_buffered_and_pending_visible(self):
        eng = SStoreEngine(eager=False)
        eng.execute_ddl("CREATE STREAM s (v INTEGER)")

        class Noop(StreamProcedure):
            name = "noop_status"
            statements = {}

            def run(self, ctx):
                pass

        eng.register_procedure(Noop)
        wf = WorkflowSpec("wf")
        wf.add_node("noop_status", input_stream="s", batch_size=2)
        eng.deploy_workflow(wf)

        eng.ingest("s", [(1,), (2,), (3,)])  # one batch cut, one tuple left
        status = eng.workflow_status()
        assert status["pending_tes"] == 1
        assert status["streams"]["s"]["buffered"] == 1

    def test_window_status(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM s (v INTEGER)")
        eng.execute_ddl("CREATE WINDOW w ON s ROWS 4 SLIDE 2 OWNED BY owner_x")
        status = eng.workflow_status()
        assert status["windows"]["w"]["spec"] == ("ROWS", 4, 2)
        assert status["windows"]["w"]["owner"] == "owner_x"


class TestGarbageCollection:
    def test_streams_drained_after_quiescence(self, pipeline):
        pipeline.ingest("numbers", [(i,) for i in range(10)])
        assert pipeline.gc.live_tuples("numbers") == 0
        assert pipeline.gc.live_tuples("doubled") == 0

    def test_gc_counts_stats(self, pipeline):
        pipeline.ingest("numbers", [(1,), (2,)])
        assert pipeline.stats.stream_tuples_gced >= 2

    def test_unconsumed_partial_batch_not_collected(self, pipeline):
        pipeline.ingest("numbers", [(1,), (2,), (3,)])  # 3rd waits in buffer
        # the buffered tuple never reached stream state, so nothing leaks
        assert pipeline.gc.live_tuples("numbers") == 0


class TestInTeExpiry:
    """A stream's sole consumer expires its input inside the TE that read
    it; the ``<gc>`` pass only runs for what that could not reach."""

    @staticmethod
    def gc_passes(eng) -> int:
        return eng.stats.extra.get("gc_passes", 0)

    def test_sole_consumer_chain_never_opens_a_gc_transaction(self, pipeline):
        for start in range(0, 20, 2):
            pipeline.ingest("numbers", [(start,), (start + 1,)])
            assert pipeline.gc.live_tuples("numbers") == 0
            assert pipeline.gc.live_tuples("doubled") == 0
        assert self.gc_passes(pipeline) == 0
        assert pipeline.stats.stream_tuples_gced == 40  # 20 in, 20 doubled

    def test_aborted_interior_te_leaves_its_input_to_one_gc_pass(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM a (v INTEGER)")
        eng.execute_ddl("CREATE STREAM b (v INTEGER)")
        eng.execute_ddl("CREATE TABLE out (v INTEGER)")

        class Forward(StreamProcedure):
            name = "forward"
            statements = {}

            def run(self, ctx):
                ctx.emit("b", list(ctx.batch))

        class Picky(StreamProcedure):
            name = "picky"
            statements = {"ins": "INSERT INTO out VALUES (?)"}

            def run(self, ctx):
                for (v,) in ctx.batch:
                    ctx.execute("ins", v)
                    if v < 0:
                        ctx.abort("negative input")

        eng.register_procedure(Forward)
        eng.register_procedure(Picky)
        wf = WorkflowSpec("wf")
        wf.add_node("forward", input_stream="a", batch_size=1, output_streams=("b",))
        wf.add_node("picky", input_stream="b")
        eng.deploy_workflow(wf)

        eng.ingest("a", [(1,)])
        assert self.gc_passes(eng) == 0
        eng.ingest("a", [(-1,)])  # picky aborts: rollback restores b's tuple
        assert eng.stats.extra.get("stream_te_aborts") == 1
        assert eng.gc.live_tuples("a") == eng.gc.live_tuples("b") == 0
        assert self.gc_passes(eng) == 1
        # the cursor advanced past the aborted batch: the next one is clean
        eng.ingest("a", [(2,)])
        assert self.gc_passes(eng) == 1
        assert eng.execute_sql("SELECT v FROM out ORDER BY v").rows == [(1,), (2,)]

    def test_shared_stream_keeps_a_tuple_until_both_cursors_pass_it(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM src (v INTEGER)")
        eng.execute_ddl("CREATE STREAM fan (v INTEGER)")
        eng.execute_ddl("CREATE TABLE seen (who VARCHAR(8), live INTEGER)")

        class Split(StreamProcedure):
            name = "split"
            statements = {}

            def run(self, ctx):
                ctx.emit("fan", list(ctx.batch))

        def reader(who):
            class Reader(StreamProcedure):
                name = who
                statements = {"ins": "INSERT INTO seen VALUES (?, ?)"}

                def run(self, ctx):
                    ctx.execute("ins", who, eng.gc.live_tuples("fan"))

            return Reader

        eng.register_procedure(Split)
        eng.register_procedure(reader("left"))
        eng.register_procedure(reader("right"))
        wf = WorkflowSpec("wf")
        wf.add_node("split", input_stream="src", batch_size=1, output_streams=("fan",))
        wf.add_node("left", input_stream="fan")
        wf.add_node("right", input_stream="fan")
        eng.deploy_workflow(wf)

        eng.ingest("src", [(7,)])
        # both consumers found the tuple live; only quiescence collected it
        assert sorted(eng.table_rows("seen")) == [("left", 1), ("right", 1)]
        assert eng.gc.live_tuples("fan") == 0
        assert self.gc_passes(eng) == 1
        assert eng.streams.get("fan").cursors == {"left": 0, "right": 0}


class TestEmissionRules:
    def test_emit_undeclared_stream_rejected(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM a (v INTEGER)")
        eng.execute_ddl("CREATE STREAM other (v INTEGER)")

        class Bad(StreamProcedure):
            name = "bad"
            statements = {}

            def run(self, ctx):
                ctx.emit("other", [(1,)])

        eng.register_procedure(Bad)
        wf = WorkflowSpec("wf")
        wf.add_node("bad", input_stream="a", batch_size=1)
        eng.deploy_workflow(wf)
        with pytest.raises(StreamingError):
            eng.ingest("a", [(1,)])

    def test_oltp_procedure_can_emit_into_border_stream(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM events (v INTEGER)")
        eng.execute_ddl("CREATE TABLE log (v INTEGER)")

        from repro.hstore.procedure import StoredProcedure

        class Emitter(StoredProcedure):
            name = "emitter"
            statements = {}

            def run(self, ctx, v):
                ctx.emit("events", [(v,)])

        class Consume(StreamProcedure):
            name = "consume"
            statements = {"ins": "INSERT INTO log VALUES (?)"}

            def run(self, ctx):
                for (v,) in ctx.batch:
                    ctx.execute("ins", v)

        eng.register_procedure(Emitter)
        eng.register_procedure(Consume)
        wf = WorkflowSpec("wf")
        wf.add_node("consume", input_stream="events", batch_size=1)
        eng.deploy_workflow(wf)

        eng.call_procedure("emitter", 42)
        assert eng.execute_sql("SELECT v FROM log").rows == [(42,)]

    def test_aborted_te_produces_nothing_downstream(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM a (v INTEGER)")
        eng.execute_ddl("CREATE STREAM b (v INTEGER)")
        eng.execute_ddl("CREATE TABLE out (v INTEGER)")

        class Flaky(StreamProcedure):
            name = "flaky"
            statements = {}

            def run(self, ctx):
                (v,) = list(ctx.batch)[0]
                ctx.emit("b", [(v,)])
                if v < 0:
                    ctx.abort("negative input")

        class Sink(StreamProcedure):
            name = "sink2"
            statements = {"ins": "INSERT INTO out VALUES (?)"}

            def run(self, ctx):
                for (v,) in ctx.batch:
                    ctx.execute("ins", v)

        eng.register_procedure(Flaky)
        eng.register_procedure(Sink)
        wf = WorkflowSpec("wf")
        wf.add_node("flaky", input_stream="a", batch_size=1, output_streams=("b",))
        wf.add_node("sink2", input_stream="b")
        eng.deploy_workflow(wf)

        eng.ingest("a", [(-1,), (5,)])
        assert eng.execute_sql("SELECT v FROM out").rows == [(5,)]
        assert eng.stats.extra.get("stream_te_aborts") == 1
        # the aborted batch's emitted tuples were rolled back
        assert eng.gc.live_tuples("b") == 0


class TestEdgeCases:
    def test_ingest_before_workflow_deploys_buffers(self):
        """Tuples pushed before any consumer exists wait in the buffer and
        are processed once a workflow arrives."""
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM early (v INTEGER)")
        eng.execute_ddl("CREATE TABLE out2 (v INTEGER)")
        eng.ingest("early", [(1,), (2,)])  # nobody consumes yet

        class Sink(StreamProcedure):
            name = "early_sink"
            statements = {"ins": "INSERT INTO out2 VALUES (?)"}

            def run(self, ctx):
                for (v,) in ctx.batch:
                    ctx.execute("ins", v)

        eng.register_procedure(Sink)
        wf = WorkflowSpec("wf")
        wf.add_node("early_sink", input_stream="early", batch_size=1)
        eng.deploy_workflow(wf)
        assert eng.execute_sql("SELECT COUNT(*) FROM out2").scalar() == 0
        eng.ingest("early", [(3,)])  # triggers cutting of the backlog too
        assert eng.execute_sql("SELECT v FROM out2 ORDER BY v").rows == [
            (1,),
            (2,),
            (3,),
        ]

    def test_ee_trigger_cycle_detected(self):
        """Two EE triggers forming a cycle must fail loudly, not hang."""
        from repro.errors import StorageError

        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM ping (v INTEGER)")
        eng.execute_ddl("CREATE STREAM pong (v INTEGER)")
        eng.create_ee_trigger(
            "p1", "ping", "INSERT INTO pong VALUES (?)", param_columns=["v"]
        )
        eng.create_ee_trigger(
            "p2", "pong", "INSERT INTO ping VALUES (?)", param_columns=["v"]
        )

        class Kick(StreamProcedure):
            name = "kick"
            statements = {}

            def run(self, ctx):
                pass

        eng.register_procedure(Kick)
        wf = WorkflowSpec("wf")
        wf.add_node("kick", input_stream="ping", batch_size=1)
        eng.deploy_workflow(wf)
        with pytest.raises(StorageError, match="recursion"):
            eng.ingest("ping", [(1,)])

    def test_ee_trigger_on_regular_table_rejected(self):
        from repro.errors import CatalogError

        eng = SStoreEngine()
        eng.execute_ddl("CREATE TABLE plain (v INTEGER)")
        with pytest.raises(CatalogError):
            eng.create_ee_trigger(
                "t", "plain", "INSERT INTO plain VALUES (1)"
            )

    def test_duplicate_workflow_name_rejected(self, pipeline):
        from repro.errors import WorkflowError

        duplicate = WorkflowSpec("doubling")
        duplicate.add_node("ghost", input_stream="numbers")
        with pytest.raises(WorkflowError):
            pipeline.deploy_workflow(duplicate)


class TestMultiPartitionGuards:
    def test_emit_from_nonzero_partition_rejected(self):
        """Streaming state is single-sited on partition 0; an OLTP txn
        routed elsewhere must not write into it invisibly."""
        from repro.hstore.procedure import StoredProcedure

        eng = SStoreEngine(partitions=4)
        eng.execute_ddl("CREATE STREAM events (v INTEGER)")

        class Emitter(StoredProcedure):
            name = "emitter"
            partition_param = 0
            statements = {}

            def run(self, ctx, v):
                ctx.emit("events", [(v,)])

        eng.register_procedure(Emitter)
        # find a value routing to a non-zero partition
        from repro.hstore.partition import route_value

        value = next(v for v in range(100) if route_value(v, 4) != 0)
        with pytest.raises(StreamingError):
            eng.call_procedure("emitter", value)

        # a partition-0 value works fine
        zero_value = next(v for v in range(100) if route_value(v, 4) == 0)
        assert eng.call_procedure("emitter", zero_value).success


class TestStreamingRecovery:
    def test_recovery_equivalence_without_snapshot(self, pipeline):
        pipeline.ingest("numbers", [(i,) for i in range(8)])
        report = crash_and_recover_streaming(pipeline)
        assert report.state_matches

    def test_recovery_equivalence_with_snapshot(self, pipeline):
        pipeline.ingest("numbers", [(1,), (2,)])
        pipeline.take_snapshot()
        pipeline.ingest("numbers", [(3,), (4,)])
        report = crash_and_recover_streaming(pipeline)
        assert report.state_matches
        assert report.had_snapshot

    def test_partial_batch_survives_via_ingest_log(self, pipeline):
        pipeline.ingest("numbers", [(1,)])  # buffered, not yet a batch
        crash_and_recover_streaming(pipeline)
        pipeline.ingest("numbers", [(2,)])  # completes the batch post-recovery
        assert pipeline.execute_sql("SELECT COUNT(*) FROM sink").scalar() == 2

    def test_interior_tes_not_logged(self, pipeline):
        pipeline.ingest("numbers", [(1,), (2,)])
        procedures = [r.procedure for r in pipeline.command_log.all_records()]
        assert procedures == ["<ingest>"]

    def test_crash_with_pending_queue_recovers_clean(self):
        """Crash while TEs are still queued (lazy mode): recovery rebuilds
        from the ingest log and reaches the same state as a clean run."""
        eng = SStoreEngine(eager=False)
        eng.execute_ddl("CREATE STREAM s (v INTEGER)")
        eng.execute_ddl("CREATE TABLE out3 (v INTEGER)")

        class Sink(StreamProcedure):
            name = "lazy_sink"
            statements = {"ins": "INSERT INTO out3 VALUES (?)"}

            def run(self, ctx):
                for (v,) in ctx.batch:
                    ctx.execute("ins", v)

        eng.register_procedure(Sink)
        wf = WorkflowSpec("wf")
        wf.add_node("lazy_sink", input_stream="s", batch_size=1)
        eng.deploy_workflow(wf)

        eng.ingest("s", [(1,), (2,), (3,)])
        assert eng.scheduler.pending_count == 3  # nothing ran yet
        eng.crash()
        eng.recover()  # replay = ingest record → eager drain
        assert eng.execute_sql("SELECT v FROM out3 ORDER BY v").rows == [
            (1,),
            (2,),
            (3,),
        ]
        assert eng.scheduler.pending_count == 0

    def test_time_window_state_recovers(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM s (ts TIMESTAMP, v INTEGER)")
        eng.execute_ddl("CREATE WINDOW w ON s RANGE 10 SLIDE 5 OWNED BY copy2")
        eng.execute_ddl("CREATE TABLE out (v INTEGER)")

        class Copy(StreamProcedure):
            name = "copy2"
            statements = {"n": "SELECT COUNT(*) FROM w",
                          "ins": "INSERT INTO out VALUES (?)"}

            def run(self, ctx):
                ctx.execute("ins", ctx.execute("n").scalar())

        eng.register_procedure(Copy)
        wf = WorkflowSpec("wf")
        wf.add_node("copy2", input_stream="s", batch_size=1)
        eng.deploy_workflow(wf)

        eng.advance_time(5)
        eng.ingest("s", [(3, 1)])
        eng.advance_time(5)
        eng.ingest("s", [(9, 2)])
        report = crash_and_recover_streaming(eng)
        assert report.state_matches
        assert eng.clock.now == 10

    def test_snapshot_is_not_aliased_by_later_mutation(self):
        """`take_snapshot` stores the dumped state uncopied, so the dumps
        must share nothing with live state: mutate tables, windows and
        ingest buffers behind the log's back, then recover in memory mode."""
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM s (v INTEGER)")
        eng.execute_ddl("CREATE WINDOW w ON s ROWS 4 SLIDE 4 OWNED BY keep")
        eng.execute_ddl("CREATE TABLE kept (v INTEGER)")

        class Keep(StreamProcedure):
            name = "keep"
            statements = {"ins": "INSERT INTO kept VALUES (?)"}

            def run(self, ctx):
                for (v,) in ctx.batch:
                    ctx.execute("ins", v)

        eng.register_procedure(Keep)
        wf = WorkflowSpec("wf")
        wf.add_node("keep", input_stream="s", batch_size=2)
        eng.deploy_workflow(wf)
        eng.ingest("s", [(v,) for v in range(7)])  # 3 batches + 1 buffered
        window = eng.windows["w"]
        def observe():
            buffers = {name: list(rows) for name, rows in eng._ingest_buffers.items()}
            return eng.observe(), buffers

        before = observe()
        assert before[0]["window:w"]["staging"] and before[1]["s"] == [(6,)]
        eng.take_snapshot()

        ee = eng.partitions[0].ee
        ee.table("kept")._rows[0] = (999,)  # unlogged, in place
        ee.table("kept").insert((1000,))
        ee.table("w")._rows.clear()
        window._staging.append((77,))
        window._live_rowids.clear()
        window._arrivals += 5
        eng._ingest_buffers["s"].append((78,))
        eng.streams.get("s").cursors["keep"] = 10**6

        eng.crash()
        assert eng.recover() == 0
        assert observe() == before
        eng.ingest("s", [(7,)])  # the restored buffer completes batch 4
        assert eng.execute_sql("SELECT COUNT(*) FROM kept").scalar() == 8


    def test_recover_restarts_per_te_observations(self, pipeline):
        """crash(); recover() replays every TE: history, commit count and
        latency must describe the replayed run, not both runs end to end."""
        from repro.core.transaction import validate_schedule

        for start in range(0, 40, 2):
            pipeline.ingest("numbers", [(start,), (start + 1,)])
        pipeline.ingest("numbers", [(99,)])  # half a batch: stays buffered
        before = pipeline.workflow_status()
        commits = dict(pipeline.stream_commits)
        assert before["committed_tes"] == 40
        pipeline.latency.record_enqueue(10_000)  # in flight when the crash hits
        pipeline.crash()
        pipeline.recover()
        after = pipeline.workflow_status()
        assert after["committed_tes"] == 40
        assert [r.seq for r in pipeline.schedule_history] == list(range(40))
        assert validate_schedule(
            pipeline.schedule_history, pipeline.workflows["doubling"]
        ) == []
        assert pipeline.stream_commits == commits
        assert pipeline.latency.completed_count == 20
        assert pipeline.latency._in_flight == {}

    def test_recovery_report_sees_commit_digests(self, pipeline, monkeypatch):
        """A restore that keeps the live commit digests, so replay counts
        every batch twice, leaves the tables right and the report wrong."""
        restore = SStoreEngine._restore_extra

        def keep_live_commits(self, extra):
            live = self.stream_commits
            restore(self, extra)
            self.stream_commits = live

        monkeypatch.setattr(SStoreEngine, "_restore_extra", keep_live_commits)
        pipeline.ingest("numbers", [(i,) for i in range(6)])
        report = crash_and_recover_streaming(pipeline)
        assert not report.state_matches
        assert report.mismatched_keys == ["commits:doubled", "commits:numbers"]
        assert pipeline.stream_commits["numbers"][0] == 6

    def test_recovery_report_sees_window_bookkeeping(self, monkeypatch):
        """A restore that drops the window's staged tuples changes when the
        next slide fires; the live rows alone would not show it."""
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM s (v INTEGER)")
        eng.execute_ddl("CREATE WINDOW w ON s ROWS 4 SLIDE 4 OWNED BY keep")
        eng.execute_ddl("CREATE TABLE kept (v INTEGER)")

        class Keep(StreamProcedure):
            name = "keep"
            statements = {"ins": "INSERT INTO kept VALUES (?)"}

            def run(self, ctx):
                for (v,) in ctx.batch:
                    ctx.execute("ins", v)

        eng.register_procedure(Keep)
        wf = WorkflowSpec("wf")
        wf.add_node("keep", input_stream="s", batch_size=2)
        eng.deploy_workflow(wf)
        eng.ingest("s", [(v,) for v in range(6)])  # one slide, two staged
        eng.take_snapshot()
        restore = SStoreEngine._restore_extra

        def forget_staging(self, extra):
            restore(self, extra)
            for state in self.windows.values():
                state._staging.clear()

        monkeypatch.setattr(SStoreEngine, "_restore_extra", forget_staging)
        report = crash_and_recover_streaming(eng)
        assert report.mismatched_keys == ["window:w"]


class TestBoundedProcessState:
    """What the engine retains is the database or a bounded ring — E6's
    claim for tables, checked here for the process (ISSUE 19)."""

    def test_heap_and_history_stay_flat_past_ring_capacity(self, tmp_path):
        import gc
        import tracemalloc

        from repro.core.latency import LATENCY_RING
        from repro.core.transaction import HISTORY_RING

        ring = max(HISTORY_RING, LATENCY_RING)
        eng = SStoreEngine(snapshot_interval=200)
        eng.execute_ddl("CREATE STREAM s (v INTEGER)")
        eng.execute_ddl("CREATE WINDOW recent ON s ROWS 50 OWNED BY bump")
        eng.execute_ddl(
            "CREATE TABLE counter (id INTEGER NOT NULL, n INTEGER, PRIMARY KEY (id))"
        )

        class Bump(StreamProcedure):
            name = "bump"
            statements = {"up": "UPDATE counter SET n = n + 1 WHERE id = 0"}

            def run(self, ctx):
                ctx.execute("up")

        eng.register_procedure(Bump)
        wf = WorkflowSpec("wf")
        wf.add_node("bump", input_stream="s", batch_size=1)
        eng.deploy_workflow(wf)
        eng.execute_sql("INSERT INTO counter VALUES (0, 0)")
        eng.enable_durability(tmp_path)

        def drive_to(total: int) -> int:
            for v in range(eng.workflow_status()["committed_tes"], total):
                eng.ingest("s", [(v % 1000,)])
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            at_2x = drive_to(2 * ring)
            at_4x = drive_to(4 * ring)
        finally:
            tracemalloc.stop()
        assert abs(at_4x - at_2x) < 256 * 1024, (at_2x, at_4x)
        assert len(eng.schedule_history) <= HISTORY_RING
        assert eng.workflow_status()["committed_tes"] == 4 * ring
        assert eng.latency.completed_count == 4 * ring
        assert len(eng.latency.latencies_ms()) <= LATENCY_RING
        assert eng.table_rows("counter") == [(0, 4 * ring)]
        assert len(eng.stream_commits) == 1 and eng.stream_commits["s"][0] == 4 * ring
