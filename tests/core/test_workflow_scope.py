"""Tests for workflow validation, sharing analysis and TE scoping."""

import pytest

from repro.core.engine import SStoreEngine, StreamProcedure
from repro.core.scope import WindowScopes
from repro.core.workflow import WorkflowSpec, plan_table_access
from repro.errors import (
    DuplicateObjectError,
    ScopeViolationError,
    UnknownObjectError,
    WorkflowError,
)


class _Pass(StreamProcedure):
    statements = {}

    def run(self, ctx):
        if ctx.has_batch and getattr(self, "forward_to", None):
            ctx.emit(self.forward_to, list(ctx.batch))


def make_proc(proc_name, forward_to=None, statements=None):
    cls = type(
        proc_name.title().replace("_", ""),
        (_Pass,),
        {
            "name": proc_name,
            "forward_to": forward_to,
            "statements": statements or {},
        },
    )
    return cls


class TestWorkflowValidation:
    def setup_engine(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM a (v INTEGER)")
        eng.execute_ddl("CREATE STREAM b (v INTEGER)")
        eng.execute_ddl("CREATE STREAM c (v INTEGER)")
        return eng

    def test_two_stage_pipeline_classification(self):
        eng = self.setup_engine()
        eng.register_procedure(make_proc("first", forward_to="b"))
        eng.register_procedure(make_proc("second"))
        wf = WorkflowSpec("wf")
        wf.add_node("first", input_stream="a", output_streams=("b",))
        wf.add_node("second", input_stream="b")
        eng.deploy_workflow(wf)
        assert wf.border_procedures == ["first"]
        assert wf.interior_procedures == ["second"]
        assert wf.nodes["first"].depth == 0
        assert wf.nodes["second"].depth == 1

    def test_empty_workflow_rejected(self):
        eng = self.setup_engine()
        wf = WorkflowSpec("wf")
        with pytest.raises(WorkflowError):
            eng.deploy_workflow(wf)

    def test_cycle_rejected(self):
        eng = self.setup_engine()
        eng.register_procedure(make_proc("p1", forward_to="b"))
        eng.register_procedure(make_proc("p2", forward_to="a"))
        wf = WorkflowSpec("wf")
        # p1: a→b, p2: b→a, both interior → no border procedure
        wf.add_node("p1", input_stream="a", output_streams=("b",))
        wf.add_node("p2", input_stream="b", output_streams=("a",))
        with pytest.raises(WorkflowError):
            eng.deploy_workflow(wf)

    def test_self_loop_rejected(self):
        from repro.hstore.catalog import Catalog

        spec = WorkflowSpec("wf")
        spec.add_node("p", input_stream="a", output_streams=("a",))
        with pytest.raises(WorkflowError):
            spec.finalize(Catalog(), {})

    def test_double_producer_rejected(self):
        eng = self.setup_engine()
        eng.register_procedure(make_proc("p1", forward_to="c"))
        eng.register_procedure(make_proc("p2", forward_to="c"))
        wf = WorkflowSpec("wf")
        wf.add_node("p1", input_stream="a", output_streams=("c",))
        wf.add_node("p2", input_stream="b", output_streams=("c",))
        with pytest.raises(WorkflowError):
            eng.deploy_workflow(wf)

    def test_unknown_stream_rejected(self):
        eng = self.setup_engine()
        eng.register_procedure(make_proc("p1"))
        wf = WorkflowSpec("wf")
        wf.add_node("p1", input_stream="ghost")
        with pytest.raises(WorkflowError):
            eng.deploy_workflow(wf)

    def test_unregistered_procedure_rejected(self):
        eng = self.setup_engine()
        wf = WorkflowSpec("wf")
        wf.add_node("ghost", input_stream="a")
        with pytest.raises(WorkflowError):
            eng.deploy_workflow(wf)

    def test_duplicate_node_rejected(self):
        wf = WorkflowSpec("wf")
        wf.add_node("p", input_stream="a")
        with pytest.raises(WorkflowError):
            wf.add_node("p", input_stream="b")

    def test_bad_batch_size_rejected(self):
        wf = WorkflowSpec("wf")
        with pytest.raises(WorkflowError):
            wf.add_node("p", input_stream="a", batch_size=0)

    def test_one_bsp_per_border_stream(self):
        eng = self.setup_engine()
        eng.register_procedure(make_proc("p1"))
        eng.register_procedure(make_proc("p2"))
        wf1 = WorkflowSpec("wf1")
        wf1.add_node("p1", input_stream="a")
        eng.deploy_workflow(wf1)
        wf2 = WorkflowSpec("wf2")
        wf2.add_node("p2", input_stream="a")
        with pytest.raises(WorkflowError):
            eng.deploy_workflow(wf2)

    def test_procedure_in_two_workflows_rejected(self):
        eng = self.setup_engine()
        eng.register_procedure(make_proc("p1"))
        wf1 = WorkflowSpec("wf1")
        wf1.add_node("p1", input_stream="a")
        eng.deploy_workflow(wf1)
        wf2 = WorkflowSpec("wf2")
        wf2.add_node("p1", input_stream="b")
        with pytest.raises(WorkflowError):
            eng.deploy_workflow(wf2)


class TestSharingAnalysis:
    def test_shared_writable_table_detected(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM a (v INTEGER)")
        eng.execute_ddl("CREATE STREAM b (v INTEGER)")
        eng.execute_ddl("CREATE TABLE shared (v INTEGER)")
        writer = make_proc(
            "writer",
            forward_to="b",
            statements={"w": "INSERT INTO shared VALUES (?)"},
        )
        reader = make_proc(
            "reader", statements={"r": "SELECT COUNT(*) FROM shared"}
        )
        eng.register_procedure(writer)
        eng.register_procedure(reader)
        wf = WorkflowSpec("wf")
        wf.add_node("writer", input_stream="a", output_streams=("b",))
        wf.add_node("reader", input_stream="b")
        eng.deploy_workflow(wf)
        assert wf.shared_writable_tables == {"shared"}
        assert wf.serial_required

    def test_read_only_sharing_is_not_serial(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM a (v INTEGER)")
        eng.execute_ddl("CREATE STREAM b (v INTEGER)")
        eng.execute_ddl("CREATE TABLE lookup (v INTEGER)")
        r1 = make_proc(
            "r1", forward_to="b", statements={"r": "SELECT COUNT(*) FROM lookup"}
        )
        r2 = make_proc("r2", statements={"r": "SELECT COUNT(*) FROM lookup"})
        eng.register_procedure(r1)
        eng.register_procedure(r2)
        wf = WorkflowSpec("wf")
        wf.add_node("r1", input_stream="a", output_streams=("b",))
        wf.add_node("r2", input_stream="b")
        eng.deploy_workflow(wf)
        assert not wf.serial_required

    def test_streams_do_not_count_as_shared_tables(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM a (v INTEGER)")
        eng.execute_ddl("CREATE STREAM b (v INTEGER)")
        p1 = make_proc("p1", forward_to="b")
        p2 = make_proc("p2")
        eng.register_procedure(p1)
        eng.register_procedure(p2)
        wf = WorkflowSpec("wf")
        wf.add_node("p1", input_stream="a", output_streams=("b",))
        wf.add_node("p2", input_stream="b")
        eng.deploy_workflow(wf)
        assert wf.shared_writable_tables == set()

    def test_plan_table_access_select_join(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE TABLE t1 (a INTEGER)")
        eng.execute_ddl("CREATE TABLE t2 (a INTEGER)")
        from repro.hstore.parser import parse

        plan = eng.planner.plan(
            parse("SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a")
        )
        reads, writes = plan_table_access(plan)
        assert reads == {"t1", "t2"} and writes == set()

    def test_plan_table_access_insert_select(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE TABLE t1 (a INTEGER)")
        eng.execute_ddl("CREATE TABLE t2 (a INTEGER)")
        from repro.hstore.parser import parse

        plan = eng.planner.plan(parse("INSERT INTO t1 SELECT a FROM t2"))
        reads, writes = plan_table_access(plan)
        assert reads == {"t2"} and writes == {"t1"}


class TestWindowScopes:
    def test_owner_access_allowed(self):
        scopes = WindowScopes()
        scopes.assign("w", "sp2")
        scopes.check_access({"w"}, "sp2")  # no raise

    def test_foreign_access_rejected(self):
        scopes = WindowScopes()
        scopes.assign("w", "sp2")
        with pytest.raises(ScopeViolationError):
            scopes.check_access({"w"}, "sp1")

    def test_adhoc_access_rejected(self):
        scopes = WindowScopes()
        scopes.assign("w", "sp2")
        with pytest.raises(ScopeViolationError):
            scopes.check_access({"w"}, None)

    def test_non_window_tables_unrestricted(self):
        scopes = WindowScopes()
        scopes.assign("w", "sp2")
        scopes.check_access({"votes", "contestants"}, None)  # no raise

    def test_reassignment_rejected(self):
        scopes = WindowScopes()
        scopes.assign("w", "sp2")
        scopes.assign("w", "sp2")  # idempotent is fine
        with pytest.raises(DuplicateObjectError):
            scopes.assign("w", "sp3")

    def test_unknown_window_owner_lookup(self):
        with pytest.raises(UnknownObjectError):
            WindowScopes().owner_of("ghost")

    def test_engine_enforces_scope_in_procedures(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM s (v INTEGER)")
        eng.execute_ddl("CREATE WINDOW w ON s ROWS 5 SLIDE 1 OWNED BY owner_sp")

        class Owner(StreamProcedure):
            name = "owner_sp"
            statements = {"peek": "SELECT COUNT(*) FROM w"}

            def run(self, ctx):
                return ctx.execute("peek").scalar()

        class Intruder(StreamProcedure):
            name = "intruder"
            statements = {"peek": "SELECT COUNT(*) FROM w"}

            def run(self, ctx):
                return ctx.execute("peek").scalar()

        eng.register_procedure(Owner)
        eng.register_procedure(Intruder)
        wf = WorkflowSpec("wf")
        wf.add_node("owner_sp", input_stream="s", batch_size=1)
        eng.deploy_workflow(wf)

        eng.ingest("s", [(1,)])  # owner runs fine
        with pytest.raises(ScopeViolationError):
            eng.call_procedure("intruder")

    def test_engine_assign_window_owner_requires_window(self):
        eng = SStoreEngine()
        with pytest.raises(UnknownObjectError):
            eng.assign_window_owner("ghost", "sp")


class TestAccessCheckMemo:
    """A passed check is remembered per plan only while what it was decided
    from stands: window owners (``scopes.epoch``) and the catalog version."""

    @staticmethod
    def _reader(window_ddl):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM s (v INTEGER)")
        eng.execute_ddl(window_ddl)

        class Peek(StreamProcedure):
            name = "peek"
            statements = {"peek": "SELECT COUNT(*) FROM w"}

            def run(self, ctx):
                return ctx.execute("peek").scalar()

        eng.register_procedure(Peek)
        return eng

    def test_rescoping_is_seen_on_the_very_next_call(self):
        eng = self._reader("CREATE WINDOW w ON s ROWS 5 SLIDE 1")
        assert eng.call_procedure("peek").success  # unowned: passes, remembered
        assert eng.call_procedure("peek").success
        eng.assign_window_owner("w", "someone_else")
        with pytest.raises(ScopeViolationError, match="scoped to procedure 'someone_else'"):
            eng.call_procedure("peek")

    def test_adhoc_plan_from_the_cache_is_rechecked_after_rescoping(self):
        eng = self._reader("CREATE WINDOW w ON s ROWS 5 SLIDE 1")
        assert eng.execute_sql("SELECT COUNT(*) FROM w").scalar() == 0
        assert eng.execute_sql("SELECT COUNT(*) FROM w").scalar() == 0  # cached plan
        eng.assign_window_owner("w", "peek")
        with pytest.raises(ScopeViolationError, match="<ad-hoc client access>"):
            eng.execute_sql("SELECT COUNT(*) FROM w")
        assert eng.call_procedure("peek").success  # the owner still may

    def test_pass_is_per_accessor_not_per_statement_text(self):
        eng = self._reader("CREATE WINDOW w ON s ROWS 5 SLIDE 1 OWNED BY peek")
        assert eng.call_procedure("peek").success

        class Intruder(StreamProcedure):
            name = "intruder"
            statements = {"peek": "SELECT COUNT(*) FROM w"}

            def run(self, ctx):
                return ctx.execute("peek").scalar()

        eng.register_procedure(Intruder)
        with pytest.raises(ScopeViolationError):
            eng.call_procedure("intruder")
        assert eng.call_procedure("peek").success

    def test_ddl_is_seen_on_the_very_next_call(self):
        from repro.errors import StreamingError

        eng = SStoreEngine()
        eng.execute_ddl("CREATE TABLE t (v INTEGER)")

        class Put(StreamProcedure):
            name = "put"
            statements = {"ins": "INSERT INTO t VALUES (?)"}

            def run(self, ctx, v):
                ctx.execute("ins", v)

        eng.register_procedure(Put)
        assert eng.call_procedure("put", 1).success
        assert eng.call_procedure("put", 2).success
        # the pre-planned statement now points at a stream of the same name
        eng.execute_ddl("DROP TABLE t")
        eng.execute_ddl("CREATE STREAM t (v INTEGER)")
        with pytest.raises(StreamingError, match="direct DML on stream 't'"):
            eng.call_procedure("put", 3)
