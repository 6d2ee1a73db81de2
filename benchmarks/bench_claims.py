"""One check per paper claim: E1–E10, E4b and the ablations A1–A4.

The paper is a demo paper: its claims are orderings, anomaly counts,
round-trip counts, bounded state and recovery equivalence.  Each test here
drives the apps directly, asserts the claim's shape, and writes one table to
``benchmarks/_results/`` — the file its row in ``EXPERIMENTS.md`` cites.
Throughput and latency here are a *model*: ``repro.hstore.netsim`` charges
each counted layer crossing at a LAN latency, and every such column says
"(netsim)".  Wall-clock performance is what ``benchmarks/e2e`` measures.

E1, E9 and E10 are asserted by tier-1 tests (``EXPERIMENTS.md`` names
them); their tests here only write the table.

Run: ``make experiments``.
"""

from __future__ import annotations

import contextlib
import gc
import tempfile
import tracemalloc
from collections import Counter
from functools import partial

from repro.apps.bikeshare import BikeShareApp, BikeShareSimulation
from repro.apps.voter.hstore_app import VoterHStoreApp
from repro.apps.voter.observe import compare_summaries
from repro.apps.voter.sstore_app import VoterSStoreApp
from repro.apps.voter.workload import VoterWorkload
from repro.core.engine import SStoreEngine, StreamProcedure
from repro.core.recovery import crash_and_recover_streaming
from repro.core.transaction import HISTORY_RING, validate_schedule
from repro.core.workflow import WorkflowSpec
from repro.dstream import DStreamEngine
from repro.faults import FaultPlan, RecoveryEquivalenceChecker
from repro.hstore.cmdlog import LogRecord
from repro.hstore.engine import HStoreEngine
from repro.hstore.netsim import LatencyModel, simulated_tps
from repro.hstore.procedure import StoredProcedure
from repro.hstore.stats import snapshot_delta

MODEL_TPS = "model TPS (netsim)"
MODEL_NOTE = "netsim model, µs per counted crossing: " + ", ".join(
    f"{name} {cost:g}" for name, cost in vars(LatencyModel()).items()
)


def votes(seed: int, n: int, contestants: int, **kwargs):
    return VoterWorkload(seed=seed, num_contestants=contestants, **kwargs).generate(n)


def measured(engine, drive) -> tuple[dict[str, int], float]:
    """Run ``drive()``: the engine's counter delta and its modelled TPS."""
    before = engine.stats.snapshot()
    drive()
    after = engine.stats.snapshot()
    return snapshot_delta(before, after), simulated_tps(before, after)


@contextlib.contextmanager
def clustered_voter(contestants: int):
    """The Voter workflow on a 2-worker ``DStreamEngine``, shut down on exit."""
    engine = DStreamEngine(2)
    try:
        yield VoterSStoreApp(engine, num_contestants=contestants)
    finally:
        engine.shutdown()


class Sink(StreamProcedure):
    """A workflow node that does nothing: it lets windows and EE triggers run."""

    name = "sink"
    statements = {}

    def run(self, ctx):
        pass


def one_node(ddl: list[str], proc=Sink, *, stream="feed", batch_size=1):
    """An engine with ``ddl`` applied and ``proc`` deployed on ``stream``."""
    engine = SStoreEngine()
    for statement in ddl:
        engine.execute_ddl(statement)
    engine.register_procedure(proc)
    workflow = WorkflowSpec("wf")
    workflow.add_node(proc.name, input_stream=stream, batch_size=batch_size)
    engine.deploy_workflow(workflow)
    return engine


# ---------------------------------------------------------------------------
# E1, E2: ordering anomalies of naive H-Store (§3.1)
# ---------------------------------------------------------------------------


def anomaly_row(label, reference, summary) -> list:
    report = compare_summaries(reference, summary)
    return [label, report.wrong_removals, report.vote_count_divergence,
            report.total_votes_delta, report.false_winner]


def test_e1_correctness(save_report):
    """§3.1, Fig. 3: interleaved H-Store clients eliminate the wrong
    candidates and miscount votes; S-Store, on one engine or a cluster,
    matches the sequential reference."""
    requests = votes(101, 700, 8)
    reference = VoterHStoreApp(num_contestants=8)
    reference.run_sequential(requests)
    expected = reference.summary()
    sstore = VoterSStoreApp(num_contestants=8)
    sstore.submit(requests)
    rows = [anomaly_row("s-store", expected, sstore.summary())]
    with clustered_voter(8) as cluster:
        cluster.submit(requests)
        rows.append(anomaly_row("s-store, 2-worker cluster", expected, cluster.summary()))
    for seed in range(1, 6):
        hstore = VoterHStoreApp(num_contestants=8)
        hstore.run_interleaved(requests, clients=10, seed=seed)
        rows.append(anomaly_row(f"h-store, 10 clients, seed {seed}", expected, hstore.summary()))
    save_report(
        "e1_correctness",
        ["system", "wrong removals", "vote-count divergence", "total-votes delta", "false winner"],
        rows,
        note="700 votes, 8 candidates; reference: one sequential H-Store client",
    )


def misordered_pairs(app, requests) -> list[int]:
    """[rapid pairs whose second vote was recorded, rapid pairs]."""
    recorded = dict(app.vote_rows())
    seconds = [i for i, request in enumerate(requests) if request.is_rapid_second]
    wrong = sum(
        recorded.get(requests[i - 1].phone_number) == requests[i].contestant_number
        for i in seconds
    )
    return [wrong, len(seconds)]


def test_e2_arrival_order(save_report):
    """§3.1: of one phone's rapid pair the first vote must count; interleaved
    H-Store sometimes records the second, S-Store never does."""
    # below the elimination threshold (100): a removal returns votes and
    # would confound the pair count, and so would duplicates
    requests = votes(202, 90, 6, rapid_pair_fraction=0.3, duplicate_fraction=0.0)
    sstore = VoterSStoreApp(num_contestants=6)
    sstore.submit(requests)
    rows = [["s-store", *misordered_pairs(sstore, requests)]]
    with clustered_voter(6) as cluster:
        cluster.submit(requests)
        rows.append(["s-store, 2-worker cluster", *misordered_pairs(cluster, requests)])
    for seed in range(1, 6):
        hstore = VoterHStoreApp(num_contestants=6)
        hstore.run_interleaved(requests, clients=8, seed=seed)
        rows.append([f"h-store, 8 clients, seed {seed}", *misordered_pairs(hstore, requests)])
    save_report("e2_arrival_order", ["system", "second vote recorded", "rapid pairs"], rows)
    assert all(wrong == 0 and pairs > 0 for _, wrong, pairs in rows[:2])
    assert sum(wrong for _, wrong, _ in rows[2:]) > 0


# ---------------------------------------------------------------------------
# E3, E4, E4b, E5: where the throughput gap comes from (§1, §2, §3.1, §4)
# ---------------------------------------------------------------------------


def voter_sides(requests, contestants) -> dict[str, tuple]:
    """The same votes through naive H-Store (its client chains SP1 → SP2 →
    SP3) and S-Store pushing 1 or 25 votes per ingest:
    name → (app, counter delta, modelled TPS)."""
    hstore = VoterHStoreApp(num_contestants=contestants)
    sides = {"h-store": (hstore, *measured(hstore.engine, partial(hstore.run_sequential, requests)))}
    for chunk in (1, 25):
        app = VoterSStoreApp(num_contestants=contestants)
        drive = partial(app.submit, requests, ingest_chunk=chunk)
        sides[f"s-store, {chunk} per push"] = (app, *measured(app.engine, drive))
    return sides


def test_e3_throughput(save_report):
    """§1, §3.1, §4: the same election, at higher (modelled) throughput on
    S-Store than hand-rolled on H-Store — more so with push batching."""
    sides = voter_sides(votes(303, 600, 10), 10)
    rows = [
        [name, round(tps), delta["client_pe_roundtrips"], delta["pe_ee_roundtrips"]]
        for name, (_app, delta, tps) in sides.items()
    ]
    save_report(
        "e3_throughput",
        ["system", MODEL_TPS, "client-PE round trips", "PE-EE round trips"],
        rows,
        note=f"600 votes, 10 candidates; {MODEL_NOTE}",
    )
    (hstore, _, h_tps), (sstore, _, s_tps), (_, _, batched_tps) = sides.values()
    assert sstore.summary() == hstore.summary()
    assert s_tps > h_tps
    assert batched_tps > 2 * h_tps


def test_e4_client_pe_roundtrips(save_report):
    """§2, §3.1: push-based workflows remove client↔PE round trips — one
    push per vote instead of ~2 chained calls, ~0.04 with push batching."""
    requests = votes(404, 500, 10)
    per_1000 = {
        name: delta["client_pe_roundtrips"] * 1000 / len(requests)
        for name, (_app, delta, _tps) in voter_sides(requests, 10).items()
    }
    save_report(
        "e4_client_pe_roundtrips",
        ["system", "client-PE round trips per 1000 votes"],
        [[name, round(value)] for name, value in per_1000.items()],
    )
    hstore, single, batched = per_1000.values()
    assert hstore >= 1700  # ~2 calls per accepted vote + 1 per rejected one
    assert hstore > 1.5 * single
    assert single > 10 * batched
    assert batched <= 60


def test_e4b_polling(save_report):
    """§2: polling staged votes buys freshness with round trips, or saves
    round trips and goes stale; push pays neither."""
    requests = votes(440, 400, 8)
    rows = []
    for every in (1, 5, 25):
        app = VoterHStoreApp(num_contestants=8)
        app.run_polling(requests, poll_every=every)
        rows.append([f"poll every {every}", app.engine.stats.client_pe_roundtrips,
                     app.empty_polls, app.max_backlog])
    push = VoterSStoreApp(num_contestants=8)
    delta, _ = measured(push.engine, partial(push.submit, requests, ingest_chunk=25))
    # downstream TEs commit before ingest returns: nothing is ever staged
    rows.append(["s-store push, 25 per push", delta["client_pe_roundtrips"], 0, 0])
    save_report(
        "e4b_polling",
        ["mode", "client-PE round trips per 1000 votes", "empty polls", "max staleness (staged votes)"],
        [[mode, round(trips * 1000 / len(requests)), *rest] for mode, trips, *rest in rows],
    )
    (_, eager_trips, _, eager_stale), _, (_, lazy_trips, _, lazy_stale), (_, push_trips, _, _) = rows
    assert eager_trips > 1.5 * lazy_trips
    assert lazy_stale >= 5 * eager_stale > 0
    assert push_trips < lazy_trips


class WindowStat(StreamProcedure):
    name = "stat"
    statements = {"stat": "SELECT COUNT(*), AVG(v) FROM recent"}

    def run(self, ctx):
        ctx.execute("stat")


class HandKeptWindow(StoredProcedure):
    """The same 100-row window kept by hand in SQL, as H-Store's SP2 must."""

    name = "stat"
    statements = {
        "push": "INSERT INTO recent VALUES (?, ?)",
        "count": "SELECT COUNT(*) FROM recent",
        "oldest": "SELECT MIN(seq) FROM recent",
        "evict": "DELETE FROM recent WHERE seq = ?",
        "stat": "SELECT COUNT(*), AVG(v) FROM recent",
    }

    def run(self, ctx, seq, v):
        ctx.execute("push", seq, v)
        if ctx.execute("count").scalar() > 100:
            ctx.execute("evict", ctx.execute("oldest").scalar())
        ctx.execute("stat")


def test_e5_pe_ee_roundtrips(save_report):
    """§2, §3.1: native windows remove PE↔EE round trips — the EE slides the
    window inside the inserting statement; H-Store spends SQL calls on it."""
    tuples = 500
    sstore = one_node([
        "CREATE STREAM feed (seq INTEGER, v INTEGER)",
        "CREATE WINDOW recent ON feed ROWS 100 SLIDE 1 OWNED BY stat",
    ], WindowStat)
    hstore = HStoreEngine()
    hstore.execute_ddl(
        "CREATE TABLE recent (seq INTEGER NOT NULL, v INTEGER, PRIMARY KEY (seq))"
    )
    hstore.register_procedure(HandKeptWindow)

    def push():
        for i in range(tuples):
            sstore.ingest("feed", [(i, i % 7)])

    def call():
        for i in range(tuples):
            hstore.call_procedure("stat", i, i % 7)

    sides = {"s-store, EE-kept window": measured(sstore, push)[0],
             "h-store, window kept in SQL": measured(hstore, call)[0]}
    save_report(
        "e5_pe_ee_roundtrips",
        ["system", "PE-EE round trips per tuple", "EE-trigger firings per tuple", "rows deleted"],
        [[name, round(delta["pe_ee_roundtrips"] / tuples, 2),
          round(delta["ee_trigger_firings"] / tuples, 2), delta["rows_deleted"]]
         for name, delta in sides.items()],
        note=f"{tuples} tuples through a ROWS 100 window, one window query each",
    )
    s, h = sides.values()
    # S-Store: the ingest insert + the query; H-Store: push + count + query
    # (+ oldest + evict once full)
    assert h["pe_ee_roundtrips"] > 1.5 * s["pe_ee_roundtrips"]
    assert s["ee_trigger_firings"] >= tuples  # the upkeep ran inside the EE
    assert h["ee_trigger_firings"] == 0


# ---------------------------------------------------------------------------
# E6, E7: uniform state management and upstream backup (§2)
# ---------------------------------------------------------------------------


class Relay(StreamProcedure):
    name = "relay"
    statements = {"peek": "SELECT COUNT(*) FROM recent"}

    def run(self, ctx):
        ctx.execute("peek")
        ctx.emit("derived", list(ctx.batch))


def test_e6_gc_bounded_state(save_report):
    """§2: stream and window state stays bounded on unbounded input — and so
    does the process: past its history rings' capacity the traced heap of a
    durable engine stops growing."""
    chunk, window = 10, 50
    # 4x the rings' capacity in TEs (two per chunk), so the 50/75/100 %
    # checkpoints all lie past the point the rings are full
    tuples = 2 * HISTORY_RING * chunk
    engine = SStoreEngine(snapshot_interval=200)
    for ddl in ("CREATE STREAM feed (seq INTEGER, v INTEGER)",
                "CREATE STREAM derived (seq INTEGER, v INTEGER)",
                f"CREATE WINDOW recent ON feed ROWS {window} SLIDE 1 OWNED BY relay"):
        engine.execute_ddl(ddl)
    engine.register_procedure(Relay)
    engine.register_procedure(Sink)
    workflow = WorkflowSpec("wf")
    workflow.add_node("relay", input_stream="feed", batch_size=chunk, output_streams=("derived",))
    workflow.add_node("sink", input_stream="derived")
    engine.deploy_workflow(workflow)
    tables = [engine.partitions[0].ee.table(name) for name in ("feed", "derived", "recent")]
    high, rows = [0, 0, 0], []
    with tempfile.TemporaryDirectory() as directory:
        engine.enable_durability(directory)
        tracemalloc.start()
        try:
            for start in range(0, tuples, chunk):
                engine.ingest("feed", [(i, i % 11) for i in range(start, start + chunk)])
                live = [table.row_count() for table in tables]
                high = list(map(max, high, live))
                if (start + chunk) % (tuples // 4) == 0:
                    gc.collect()
                    rows.append([start + chunk, *live, tracemalloc.get_traced_memory()[0] // 1024])
        finally:
            tracemalloc.stop()
            engine.shutdown()
    committed = engine.workflow_status()["committed_tes"]
    gced = engine.stats.stream_tuples_gced
    # a window still holds only its rows when nothing reads its stream
    unread = one_node([
        "CREATE STREAM raw (v INTEGER)",
        "CREATE WINDOW w ON raw ROWS 25 SLIDE 5 OWNED BY nobody",
    ], stream="raw", batch_size=5)
    for i in range(1000):
        unread.ingest("raw", [(i,)])
    unread_rows = unread.partitions[0].ee.table("w").row_count()
    save_report(
        "e6_gc_bounded_state",
        ["tuples ingested", "feed (stream)", "derived (stream)", "recent (window)", "traced heap KB"],
        [*rows, ["high-water mark", *high, "-"]],
        note=f"{committed} TEs committed (history rings hold {HISTORY_RING}); "
        f"{gced} stream tuples collected; a ROWS 25 window on a stream nobody "
        f"reads holds {unread_rows} rows after 1000 tuples",
    )
    assert committed == 4 * HISTORY_RING
    assert all(row[1:4] == [0, 0, window] for row in rows)
    heaps = [row[-1] for row in rows[1:]]
    assert max(heaps) - min(heaps) < 256, rows  # the process holds nothing that grows
    assert high[0] <= 2 * chunk and high[1] <= 2 * chunk and high[2] <= window
    assert gced >= 2 * tuples  # feed and derived both fully collected
    assert unread_rows <= 25


def durable_voter(path, prefix: int, suffix: int):
    """Log ``prefix`` records (one vote each) into ``path``, snapshot, log
    ``suffix`` more: (the snapshot, votes counted at the end)."""
    app = VoterSStoreApp(num_contestants=8)
    app.engine.enable_durability(path)
    requests = iter(votes(709, prefix + suffix, 8))
    log = app.engine.command_log
    while log.durable_lsn < prefix:
        app.submit([next(requests)])
    snapshot = app.engine.take_snapshot()
    while log.durable_lsn < prefix + suffix:
        app.submit([next(requests)])
    total = app.summary().total_votes
    app.engine.shutdown()
    return snapshot, total


def test_e7_recovery(save_report, tmp_path, monkeypatch):
    """§2: upstream backup — only border inputs are logged, recovery replays
    them to the state that crashed, and a restore from a durability
    directory parses only the suffix past the snapshot, however long the
    checkpointed prefix."""
    requests = votes(707, 400, 8)
    rows = []
    for interval in (None, 60):
        app = VoterSStoreApp(num_contestants=8, snapshot_interval=interval)
        app.submit(requests, ingest_chunk=4)
        if interval is None:
            kinds = Counter(record.procedure for record in app.engine.command_log.all_records())
            tes = app.engine.workflow_status()["committed_tes"]
        report = crash_and_recover_streaming(app.engine)
        assert report.state_matches
        assert report.had_snapshot == (interval is not None)
        rows.append([f"in memory, snapshot every {interval or '-'}", "-", "-",
                     report.replayed_records, report.state_matches])
    assert rows[1][3] < len(requests) / 4  # the snapshot bounded the replay
    # upstream backup: ingest records and the seed DML, never an interior TE
    assert set(kinds) <= {"<ingest>", "<adhoc>", "<tick>"}
    assert tes > kinds["<ingest>"]

    suffix, parsed, init = 100, [], LogRecord.__init__

    def counting(self, *args, **kwargs):
        parsed.append(args)
        init(self, *args, **kwargs)

    for factor in (1, 4, 16):
        path = tmp_path / f"prefix-{factor}x"
        snapshot, total = durable_voter(path, factor * suffix, suffix)
        fresh = VoterSStoreApp(num_contestants=8)
        parsed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(LogRecord, "__init__", counting)
            replayed = fresh.engine.restore_from_disk(path)
        same = fresh.summary().total_votes == total
        assert same and snapshot.through_lsn == factor * suffix
        assert len(parsed) == replayed == suffix  # whatever the prefix
        assert len(fresh.engine.command_log) == snapshot.through_lsn + suffix
        fresh.engine.shutdown()
        rows.append([f"directory, {factor}x prefix", snapshot.through_lsn,
                     len(parsed), replayed, same])
    save_report(
        "e7_recovery",
        ["run", "checkpointed records", "records parsed", "records replayed", "recovered == live"],
        rows,
        note=f"command log of the 400-vote run: {dict(sorted(kinds.items()))}; "
        f"{tes} TEs committed, re-derived on replay, never logged",
    )


# ---------------------------------------------------------------------------
# E8: BikeShare — OLTP, streaming and hybrid in one engine (§3.2)
# ---------------------------------------------------------------------------


def test_e8_bikeshare(save_report):
    """§3.2, Figs. 4–5: one engine runs checkouts and returns (OLTP), GPS
    statistics and theft alerts (streaming) and discounts (hybrid), with
    transactional correctness."""
    app = BikeShareApp(num_stations=9, capacity=8, bikes_per_station=4, num_riders=24)
    report = BikeShareSimulation(
        app, seed=88, trip_speed_mph=30.0, drain_station=1, drain_bias=0.7,
        theft_at_tick=60, trip_start_probability=0.5,
    ).run(300)
    sql = app.engine.execute_sql
    save_report("e8_bikeshare", ["metric", "value"], [
        ["ticks simulated", report.ticks],
        ["checkouts / returns", f"{report.checkouts} / {report.returns}"],
        ["gps fixes ingested", report.gps_fixes],
        ["txns committed", app.engine.stats.txns_committed],
        ["discounts accepted", report.discounts_accepted],
        ["stolen-bike alerts", len(app.alerts())],
        ["billing total", f"${app.billing_total():.2f}"],
    ])
    # streaming: the planted theft alerts once, statistics flow
    assert report.thefts_started == 1 and len(app.alerts()) == 1
    assert app.city_speed() is not None
    # OLTP: bikes conserved, exactly one charge per finished ride
    assert sum(n for _, n in sql("SELECT status, COUNT(*) FROM bikes GROUP BY status").rows) == 36
    finished = sql("SELECT COUNT(*) FROM rides WHERE end_ts IS NOT NULL").scalar()
    assert finished == sql("SELECT COUNT(*) FROM billing").scalar() == report.returns
    # hybrid: the drain produced discounts, none granted twice
    assert sql("SELECT COUNT(*) FROM discounts").scalar() > 0
    grants = sql(
        "SELECT discount_id, COUNT(*) FROM discounts "
        "WHERE state = 'accepted' OR state = 'redeemed' GROUP BY discount_id"
    ).rows
    assert all(count == 1 for _, count in grants)
    # ride distances match the simulator's ground truth within one GPS step
    truth = {rider: list(distances) for rider, distances in report.true_distances.items()}
    for rider, distance in sql(
        "SELECT rider_id, distance FROM rides WHERE end_ts IS NOT NULL ORDER BY ride_id"
    ).rows:
        if truth.get(rider):
            assert abs(truth[rider].pop(0) - distance) <= 30.0 / 3600.0 + 1e-9


# ---------------------------------------------------------------------------
# E9, E10: the transaction model's order and fault-tolerance guarantees (§2)
# ---------------------------------------------------------------------------


def test_e9_schedules(save_report):
    """§2: S-Store keeps each procedure's TEs in batch order, workflow order
    per batch, and a batch's pipeline contiguous when procedures share
    tables — on one engine and on every cluster worker; interleaved H-Store
    keeps neither."""
    requests = votes(909, 500, 8)
    sstore = VoterSStoreApp(num_contestants=8)
    sstore.submit(requests)
    hstore = VoterHStoreApp(num_contestants=8)
    hstore.run_interleaved(requests, clients=10, seed=4)
    histories = {"s-store": sstore.engine.schedule_history, "h-store, 10 clients": hstore.te_history}
    with clustered_voter(8) as cluster:
        cluster.submit(requests)
        for worker, history in enumerate(cluster.engine.schedule_histories()):
            histories[f"s-store cluster, worker {worker}"] = history
    rules = ["natural-order", "workflow-order", "contiguity"]
    rows = []
    for name, history in histories.items():
        broken = Counter(v.rule for v in validate_schedule(history, sstore.workflow))
        rows.append([name, len(history), *(broken[rule] for rule in rules)])
    save_report("e9_schedules", ["history", "TEs", *(f"{rule} violations" for rule in rules)], rows)


def test_e10_faults(save_report):
    """§2: command logging and snapshots give the streaming engine the OLTP
    engine's guarantee — after any single seeded fault, recovery reaches the
    state of a run that never failed."""
    requests = votes(707, 60, 4)
    ops = [("ingest", "votes_in", [request.as_row() for request in requests[i:i + 3]])
           for i in range(0, len(requests), 3)] + [("tick", 1)]

    def build_engine():
        return VoterSStoreApp(num_contestants=4, snapshot_interval=10).engine

    rows = []
    for seed in range(9100, 9124):
        plan = FaultPlan.single_fault(seed)
        report = RecoveryEquivalenceChecker(build_engine, ops, plan).run()
        rows.append([seed, plan.describe(), "ok" if report.equivalent else "DIVERGED",
                     report.crashes, report.recoveries, report.replayed_transactions,
                     report.torn_records, report.snapshots_skipped])
    recovered = sum(row[2] == "ok" for row in rows)
    save_report(
        "e10_faults",
        ["seed", "plan", "verdict", "crashes", "recoveries", "replayed", "torn", "snapshots skipped"],
        rows,
        note=f"recovered {recovered}/{len(rows)} scenarios",
    )


# ---------------------------------------------------------------------------
# A1–A4: ablations of the design decisions
# ---------------------------------------------------------------------------


def test_a1_batch_size(save_report):
    """§2's batch-defined TE: bigger batches amortize per-TE overhead, so
    modelled tuples/s climbs; batches up to 10 keep the exact per-vote
    elimination outcome (a larger one counts trailing votes first)."""
    requests = votes(111, 400, 8)
    rows, remaining = [], {}
    for batch in (1, 2, 5, 10, 25, 50):
        app = VoterSStoreApp(num_contestants=8, batch_size=batch)
        delta, tps = measured(app.engine, partial(app.submit, requests, ingest_chunk=batch))
        rows.append([batch, round(tps * len(requests) / delta["txns_committed"]),
                     delta["txns_committed"], delta["client_pe_roundtrips"]])
        remaining[batch] = app.summary().remaining
    save_report(
        "a1_batch_size",
        ["batch", "model tuples/s (netsim)", "txns", "client-PE round trips"],
        rows,
        note=MODEL_NOTE,
    )
    rate = {row[0]: row[1] for row in rows}
    assert rate[25] > 3 * rate[1]
    assert len({remaining[batch] for batch in (1, 2, 5, 10)}) == 1


def test_a2_windows_triggers(save_report):
    """§2's two trigger levels: a window slides once per SLIDE tuples
    whatever its size, and an EE-trigger chain fires every stage inside the
    transaction without one more PE↔EE round trip per stage."""
    rows, slides, chains = [], {}, {}
    for size, slide in ((100, 1), (100, 10), (100, 100), (10, 1), (500, 1)):
        engine = one_node([
            "CREATE STREAM feed (seq INTEGER, v INTEGER)",
            f"CREATE WINDOW w ON feed ROWS {size} SLIDE {slide} OWNED BY sink",
        ], batch_size=10)
        for start in range(0, 600, 10):
            engine.ingest("feed", [(i, i % 5) for i in range(start, start + 10)])
        slides[size, slide] = engine.stats.window_slides
        rows.append([f"window ROWS {size} SLIDE {slide}", slides[size, slide], "-", "-"])
    for depth in (0, 1, 2, 4, 8):
        engine = one_node(
            [f"CREATE STREAM s{level} (v INTEGER)" for level in range(depth + 1)],
            stream="s0", batch_size=10,
        )
        for level in range(1, depth + 1):
            engine.create_ee_trigger(f"t{level}", f"s{level - 1}",
                                     f"INSERT INTO s{level} VALUES (?)", param_columns=["v"])
        for start in range(0, 200, 10):
            engine.ingest("s0", [(i,) for i in range(start, start + 10)])
        chains[depth] = (engine.stats.ee_trigger_firings, engine.stats.pe_ee_roundtrips)
        rows.append([f"EE-trigger chain, depth {depth}", "-", *chains[depth]])
    save_report(
        "a2_windows_triggers",
        ["config", "window slides", "EE-trigger firings", "PE-EE round trips"],
        rows,
        note="600 tuples into each window, 200 into each chain, 10 per ingest",
    )
    assert [slides[100, s] for s in (1, 10, 100)] == [600, 60, 6]
    assert slides[10, 1] == slides[500, 1]
    assert chains[4][0] == 4 * 200
    assert chains[8][1] == chains[0][1]


def test_a3_logging(save_report):
    """Command logging [7]: group commit cuts log flushes and raises
    modelled throughput; more frequent snapshots shorten the replay."""
    requests = votes(333, 300, 8)
    rows, flushes, tps, replayed = [], {}, {}, {}
    for group in (1, 4, 16, 64):
        app = VoterSStoreApp(SStoreEngine(log_group_size=group), num_contestants=8)
        delta, tps[group] = measured(app.engine, partial(app.submit, requests, ingest_chunk=5))
        flushes[group] = delta["log_flushes"]
        rows.append([f"group commit of {group}", flushes[group], round(tps[group]), "-", "-"])
    for interval in (None, 200, 50, 20):
        app = VoterSStoreApp(num_contestants=8, snapshot_interval=interval)
        app.submit(requests, ingest_chunk=2)
        snapshots = app.engine.stats.snapshots_taken
        report = crash_and_recover_streaming(app.engine)
        assert report.state_matches
        replayed[interval] = report.replayed_records
        rows.append([f"snapshot every {interval or '-'}", "-", "-", snapshots, replayed[interval]])
    save_report(
        "a3_logging",
        ["config", "log flushes", MODEL_TPS, "snapshots", "records replayed"],
        rows,
        note=MODEL_NOTE,
    )
    assert flushes[64] < flushes[1] / 16 and tps[64] > tps[1]
    assert replayed[20] < replayed[None] and replayed[50] <= replayed[200]


def test_a4_latency(save_report):
    """The flip side of A1: a bigger batch makes fewer, longer pipelines —
    the engine tracks every one, and modelled time per pipeline grows."""
    requests = votes(444, 300, 8)
    rows, per_pipeline = [], {}
    for batch in (1, 5, 25):
        app = VoterSStoreApp(num_contestants=8, batch_size=batch)
        delta, _ = measured(app.engine, partial(app.submit, requests, ingest_chunk=batch))
        pipelines = app.engine.latency.summary().count
        assert pipelines == len(requests) // batch
        per_pipeline[batch] = LatencyModel().cost_of(delta).total_us / pipelines
        rows.append([batch, pipelines, round(per_pipeline[batch])])
    save_report(
        "a4_latency",
        ["batch", "pipelines", "model µs per pipeline (netsim)"],
        rows,
        note=MODEL_NOTE,
    )
    assert per_pipeline[1] < per_pipeline[5] < per_pipeline[25]
