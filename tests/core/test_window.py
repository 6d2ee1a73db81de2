"""Tests for native window semantics (tuple and time based)."""

import pytest

from repro.core.engine import SStoreEngine, StreamProcedure
from repro.core.window import WindowKind, WindowSpec
from repro.core.workflow import WorkflowSpec
from repro.errors import WindowError
from repro.hstore.procedure import StoredProcedure


def make_engine(window_ddl: str) -> SStoreEngine:
    eng = SStoreEngine()
    eng.execute_ddl("CREATE STREAM s (ts TIMESTAMP, v INTEGER)")
    eng.execute_ddl(window_ddl)
    eng.register_procedure(Sink)
    wf = WorkflowSpec("wf")
    wf.add_node("sink", input_stream="s", batch_size=1)
    eng.deploy_workflow(wf)
    return eng


def window_rows(eng: SStoreEngine, name: str):
    # bypass scoping (tests observe internal state directly)
    return eng.partitions[0].ee.table(name).rows()


class Sink(StreamProcedure):
    name = "sink"
    statements = {}

    def run(self, ctx):
        pass


def abort_path_engine(path: str) -> SStoreEngine:
    """Stream ``s`` feeding ``ROWS 3 SLIDE 1`` window ``w`` with a view.

    ``te``: a workflow TE that aborts on a negative tuple.  ``call`` /
    ``prepared``: an OLTP procedure that emits its argument into ``s`` (and,
    on ``call``, then aborts on a negative one).
    """
    eng = SStoreEngine()
    eng.execute_ddl("CREATE STREAM s (v INTEGER)")
    eng.create_window("w", "s", kind="ROWS", size=3, slide=1)
    eng.execute_ddl("CREATE VIEW av AS SELECT COUNT(*), SUM(v), MIN(v) FROM w")

    if path == "te":

        class Picky(StreamProcedure):
            name = "picky"
            statements = {}

            def run(self, ctx):
                if any(v < 0 for (v,) in ctx.batch):
                    ctx.abort("negative")

        eng.register_procedure(Picky)
        wf = WorkflowSpec("wf")
        wf.add_node("picky", input_stream="s", batch_size=1)
        eng.deploy_workflow(wf)
    else:

        class Feed(StoredProcedure):
            name = "feed"
            statements = {}

            def run(self, ctx, v):
                ctx.emit("s", [(v,)])
                if v < 0 and path == "call":
                    ctx.abort("negative")

        eng.register_procedure(Feed)
    return eng


def feed(eng: SStoreEngine, path: str, v: int) -> None:
    """Push ``v`` through ``path``; a negative ``v`` is rolled back."""
    if path == "te":
        eng.ingest("s", [(v,)])
    elif path == "call":
        assert eng.call_procedure("feed", v).success == (v > 0)
    else:
        _result, prepared = eng.prepare_invoke("feed", (v,))
        if v > 0:
            eng.commit_prepared(prepared)
        else:
            eng.abort_prepared(prepared)


def window_and_view(eng: SStoreEngine, name: str = "w"):
    state = eng.windows[name]
    return (
        window_rows(eng, name),
        state.live_count,
        state.staged_count,
        state._arrivals,
        eng.delta_views["av"].ext_rows(),
    )


class TestWindowSpec:
    def test_validation(self):
        with pytest.raises(WindowError):
            WindowSpec("w", "s", WindowKind.TUPLE, size=0, slide=1)
        with pytest.raises(WindowError):
            WindowSpec("w", "s", WindowKind.TUPLE, size=5, slide=0)

    def test_tuple_slide_larger_than_size_rejected(self):
        with pytest.raises(WindowError):
            WindowSpec("w", "s", WindowKind.TUPLE, size=5, slide=6)

    def test_time_window_requires_timestamp_column(self):
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM nots (v INTEGER)")
        with pytest.raises(WindowError):
            eng.create_window("w", "nots", kind="RANGE", size=10)


class TestTupleWindows:
    def test_sliding_window_holds_last_n(self):
        eng = make_engine("CREATE WINDOW w ON s ROWS 3 SLIDE 1 OWNED BY sink")
        for i in range(5):
            eng.ingest("s", [(i, i * 10)])
        assert [r[1] for r in window_rows(eng, "w")] == [20, 30, 40]

    def test_window_below_capacity(self):
        eng = make_engine("CREATE WINDOW w ON s ROWS 10 SLIDE 1 OWNED BY sink")
        for i in range(4):
            eng.ingest("s", [(i, i)])
        assert len(window_rows(eng, "w")) == 4

    def test_slide_granularity(self):
        # slide 3: contents only change every 3 arrivals
        eng = make_engine("CREATE WINDOW w ON s ROWS 3 SLIDE 3 OWNED BY sink")
        eng.ingest("s", [(0, 0)])
        eng.ingest("s", [(1, 1)])
        assert window_rows(eng, "w") == []  # not slid yet
        eng.ingest("s", [(2, 2)])
        assert [r[1] for r in window_rows(eng, "w")] == [0, 1, 2]
        eng.ingest("s", [(3, 3)])
        assert [r[1] for r in window_rows(eng, "w")] == [0, 1, 2]  # unchanged
        eng.ingest("s", [(4, 4)])
        eng.ingest("s", [(5, 5)])
        assert [r[1] for r in window_rows(eng, "w")] == [3, 4, 5]  # tumbled

    def test_tumbling_window_replaces_contents(self):
        eng = make_engine("CREATE WINDOW w ON s ROWS 2 SLIDE 2 OWNED BY sink")
        eng.ingest("s", [(0, 0), (1, 1)])
        assert [r[1] for r in window_rows(eng, "w")] == [0, 1]
        eng.ingest("s", [(2, 2), (3, 3)])
        assert [r[1] for r in window_rows(eng, "w")] == [2, 3]

    def test_window_slide_counts_in_stats(self):
        eng = make_engine("CREATE WINDOW w ON s ROWS 2 SLIDE 1 OWNED BY sink")
        eng.ingest("s", [(0, 0), (1, 1), (2, 2)])
        assert eng.stats.window_slides == 3

    def test_batch_bigger_than_slide(self):
        eng = make_engine("CREATE WINDOW w ON s ROWS 3 SLIDE 2 OWNED BY sink")
        eng.ingest("s", [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)])
        # slides at arrivals 2 and 4: window = last 3 of first 4 = 1,2,3
        assert [r[1] for r in window_rows(eng, "w")] == [1, 2, 3]


class TestTimeWindows:
    def make(self, size=10, slide=5) -> SStoreEngine:
        return make_engine(
            f"CREATE WINDOW w ON s RANGE {size} SLIDE {slide} OWNED BY sink"
        )

    def test_contents_follow_clock(self):
        eng = self.make(size=10, slide=5)
        eng.advance_time(5)
        eng.ingest("s", [(3, 30), (5, 50)])
        assert [r[1] for r in window_rows(eng, "w")] == [30, 50]
        # at boundary 15, extent is (5, 15]: ts=3 and 5 expire
        eng.advance_time(10)
        assert window_rows(eng, "w") == []

    def test_future_tuples_stay_staged(self):
        eng = self.make(size=10, slide=5)
        eng.ingest("s", [(7, 70)])  # clock still at 0 → boundary 0; 7 > 0
        assert window_rows(eng, "w") == []
        eng.advance_time(10)
        assert [r[1] for r in window_rows(eng, "w")] == [70]

    def test_partial_expiry(self):
        eng = self.make(size=10, slide=5)
        eng.advance_time(10)
        eng.ingest("s", [(2, 20), (9, 90)])
        assert [r[1] for r in window_rows(eng, "w")] == [20, 90]
        eng.advance_time(5)  # boundary 15, extent (5, 15]
        assert [r[1] for r in window_rows(eng, "w")] == [90]

    def test_no_slide_between_boundaries(self):
        eng = self.make(size=10, slide=5)
        eng.advance_time(4)  # boundary still 0
        slides_before = eng.stats.window_slides
        eng.advance_time(0)
        assert eng.stats.window_slides == slides_before


class TestWindowAbortRestore:
    def test_aborted_te_restores_window_state_and_bookkeeping(self):
        """A TE abort must roll back both the window table AND the
        incremental bookkeeping (arrival counters, staged tuples), or the
        next slide would diverge."""
        from repro.core.engine import StreamProcedure
        from repro.core.workflow import WorkflowSpec

        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM s (ts TIMESTAMP, v INTEGER)")
        eng.execute_ddl("CREATE WINDOW w ON s ROWS 3 SLIDE 1 OWNED BY picky")
        eng.execute_ddl("CREATE TABLE seen (v INTEGER)")

        class Picky(StreamProcedure):
            name = "picky"
            statements = {"ins": "INSERT INTO seen VALUES (?)"}

            def run(self, ctx):
                for _ts, v in ctx.batch:
                    if v < 0:
                        ctx.abort("negative")
                    ctx.execute("ins", v)

        eng.register_procedure(Picky)
        wf = WorkflowSpec("wf")
        wf.add_node("picky", input_stream="s", batch_size=1)
        eng.deploy_workflow(wf)

        eng.ingest("s", [(0, 1), (1, 2)])
        assert [r[1] for r in window_rows(eng, "w")] == [1, 2]
        state_before = eng.windows["w"].dump_state()

        eng.ingest("s", [(2, -9)])  # aborts: tuple must not stay anywhere
        assert [r[1] for r in window_rows(eng, "w")] == [1, 2]
        assert eng.windows["w"].dump_state() == state_before

        # subsequent slides behave as if the aborted tuple never arrived
        eng.ingest("s", [(3, 3), (4, 4)])
        assert [r[1] for r in window_rows(eng, "w")] == [2, 3, 4]
        assert eng.execute_sql("SELECT v FROM seen ORDER BY v").rows == [
            (1,),
            (2,),
            (3,),
            (4,),
        ]


    @pytest.mark.parametrize("path", ["te", "call", "prepared"])
    def test_abort_leaves_window_and_view_as_if_never_seen(self, path):
        """Whichever way a transaction that fed the window is rolled back —
        a TE abort, an OLTP procedure that emits then aborts, a fenced
        invocation the coordinator aborts — table, bookkeeping and delta
        view must equal those of an engine that never saw it."""
        subject, reference = abort_path_engine(path), abort_path_engine(path)
        for v in (1, -2, 3):  # commit / abort / commit
            feed(subject, path, v)
            if v > 0:
                feed(reference, path, v)
        assert window_and_view(subject) == window_and_view(reference)
        # the next slides expire rows admitted before the aborted call
        for v in (4, 5, 6, 7):
            feed(subject, path, v)
            feed(reference, path, v)
        assert window_and_view(subject) == window_and_view(reference)
        assert [r[0] for r in window_rows(subject, "w")] == [5, 6, 7]

    def test_failed_tick_rolls_back_windows_already_slid(self, monkeypatch):
        """<tick> is one transaction over every time window: if the second
        window's maintenance raises, the first window's expiry is undone."""
        eng = SStoreEngine()
        eng.execute_ddl("CREATE STREAM s (ts TIMESTAMP, v INTEGER)")
        eng.create_window("w1", "s", kind="RANGE", size=10, slide=5)
        eng.create_window("w2", "s", kind="RANGE", size=10, slide=5)
        eng.execute_ddl("CREATE VIEW av AS SELECT COUNT(*), SUM(v) FROM w1")
        eng.register_procedure(Sink)
        wf = WorkflowSpec("wf")
        wf.add_node("sink", input_stream="s", batch_size=1)
        eng.deploy_workflow(wf)
        eng.ingest("s", [(0, 1)])
        eng.ingest("s", [(0, 2)])
        before = window_and_view(eng, "w1")
        assert before[0] == [(0, 1), (0, 2)]

        def boom(txn, now):
            raise RuntimeError("second window failed")

        monkeypatch.setattr(eng.windows["w2"], "advance_time", boom)
        with pytest.raises(RuntimeError):
            eng.advance_time(20)  # would expire both rows of w1
        assert window_and_view(eng, "w1") == before
        assert not eng.partitions[0].busy

    def test_committed_te_does_no_work_proportional_to_window_size(self):
        """The commit path never copies the window: no dump_state(), no
        iteration over the live rowids (analytics-churn's ROWS 4000 SLIDE 1)."""
        from collections import deque
        from unittest import mock

        eng = make_engine("CREATE WINDOW w ON s ROWS 4000 SLIDE 1 OWNED BY sink")
        eng.ingest("s", [(i, i) for i in range(4000)])
        state = eng.windows["w"]
        walks = []

        class CountingDeque(deque):
            def __iter__(self):
                walks.append(1)
                return super().__iter__()

        state._live_rowids = CountingDeque(state._live_rowids)
        with mock.patch.object(
            type(state), "dump_state", side_effect=AssertionError("copied")
        ):
            committed = eng.stats.txns_committed
            for i in range(4000, 4010):
                eng.ingest("s", [(i, i)])
            assert eng.stats.txns_committed == committed + 10
        assert not walks
        assert state.live_count == 4000


class TestWindowOverWindow:
    def test_window_on_window_maintained(self):
        eng = make_engine("CREATE WINDOW w ON s ROWS 4 SLIDE 1 OWNED BY sink")
        eng.create_window("w2", "w", kind="ROWS", size=2, slide=1, owner="sink")
        for i in range(6):
            eng.ingest("s", [(i, i)])
        # w2 sees w's inserts; its contents are the 2 newest admitted rows
        assert len(window_rows(eng, "w2")) == 2

    def test_window_over_regular_table_rejected(self):
        from repro.errors import CatalogError

        eng = SStoreEngine()
        eng.execute_ddl("CREATE TABLE t (a INTEGER)")
        with pytest.raises(CatalogError):
            eng.create_window("w", "t", kind="ROWS", size=2)
