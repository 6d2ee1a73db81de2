"""The three applications the benchmark drives, and their references.

* Season Voter: the stock ``ValidateVote`` / ``UpdateLeaderboard`` wired to
  a benchmark-local ``SeasonRemoveLowest``.  Stock Voter ends after 24
  eliminations and then only rejects; the season variant re-seeds the
  election inside the eliminating TE so the mix stays stationary for any
  number of votes.
* BikeShare: E8's city (9 stations, 24 riders, drain + theft).
* Analytics churn: a ride-history table plus a windowed delta view.

Nothing here times anything; ``workloads.py`` does.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.apps.bikeshare import BikeShareApp, BikeShareSimulation
from repro.apps.voter import schema as voter_schema
from repro.apps.voter.procedures import RemoveLowest, UpdateLeaderboard, ValidateVote
from repro.apps.voter.workload import VoterWorkload
from repro.core.engine import StreamProcedure
from repro.core.workflow import WorkflowSpec

# ---------------------------------------------------------------------------
# Season Voter
# ---------------------------------------------------------------------------

NUM_CONTESTANTS = voter_schema.NUM_CONTESTANTS
ELIMINATION_EVERY = voter_schema.ELIMINATION_EVERY
#: logged commands between automatic snapshots, on every Voter deployment
VOTER_SNAPSHOT_INTERVAL = 5000


class SeasonRemoveLowest(RemoveLowest):
    """SP3 that starts a new season once a single winner remains."""

    statements = {
        **RemoveLowest.statements,
        "clear_contestants": "DELETE FROM contestants",
        "clear_votes": "DELETE FROM votes",
        "clear_counters": "DELETE FROM contestant_votes",
        "clear_board": "DELETE FROM trending_board",
        "seed_contestant": "INSERT INTO contestants VALUES (?, ?)",
        "seed_counter": "INSERT INTO contestant_votes VALUES (?, 0)",
    }

    def run(self, ctx, *params: Any) -> int | None:
        removed = super().run(ctx, *params)
        if ctx.execute("count_remaining").scalar() <= 1:
            for statement in (
                "clear_contestants", "clear_votes", "clear_counters", "clear_board"
            ):
                ctx.execute(statement)
            for number in range(1, NUM_CONTESTANTS + 1):
                ctx.execute(
                    "seed_contestant", number, voter_schema.CONTESTANT_NAMES[number - 1]
                )
                ctx.execute("seed_counter", number)
        return removed


def deploy_voter(engine: Any) -> None:
    """Schema, procedures, workflow and seed rows on any streaming engine."""
    voter_schema.install_tables(engine)
    voter_schema.install_streams(engine)
    for procedure in (ValidateVote, UpdateLeaderboard, SeasonRemoveLowest):
        engine.register_procedure(procedure)
    workflow = WorkflowSpec("voter_leaderboard")
    workflow.add_node(
        "validate_vote",
        input_stream="votes_in",
        batch_size=1,
        output_streams=("validated_votes",),
    )
    workflow.add_node(
        "update_leaderboard",
        input_stream="validated_votes",
        output_streams=("removal_due",),
    )
    workflow.add_node("remove_lowest", input_stream="removal_due")
    engine.deploy_workflow(workflow)
    voter_schema.seed_contestants(engine)


def voter_rows(seed: int, count: int) -> list[tuple[str, int, int]]:
    return [request.as_row() for request in VoterWorkload(seed=seed).generate(count)]


#: the observable Voter state, in a fixed order so two dumps compare with ==
VOTER_STATE_SQL = {
    "votes": "SELECT phone_number, contestant_number, created_ts FROM votes "
    "ORDER BY phone_number",
    "contestant_votes": "SELECT contestant_number, num_votes FROM contestant_votes "
    "ORDER BY contestant_number",
    "election_stats": "SELECT total_votes, rejected_votes, eliminations "
    "FROM election_stats",
    "removals": "SELECT removal_seq, contestant_number, at_total_votes, "
    "votes_discarded FROM removals ORDER BY removal_seq",
}


def dump_state(
    execute_sql: Callable[[str], Any], queries: dict[str, str]
) -> dict[str, list[tuple]]:
    return {name: list(execute_sql(sql).rows) for name, sql in queries.items()}


def season_voter_model(rows: list[tuple[str, int, int]]) -> dict[str, list[tuple]]:
    """Pure-Python reference: what the tables must hold after ``rows``."""
    contestants = set(range(1, NUM_CONTESTANTS + 1))
    counts = dict.fromkeys(contestants, 0)
    votes: dict[str, tuple[int, int]] = {}
    total = rejected = 0
    removals: list[tuple[int, int, int, int]] = []
    for phone, contestant, ts in rows:
        if contestant not in contestants or phone in votes:
            rejected += 1
            continue
        votes[phone] = (contestant, ts)
        counts[contestant] += 1
        total += 1
        if total % ELIMINATION_EVERY:
            continue
        loser = min(counts, key=lambda number: (counts[number], number))
        discarded = sum(1 for voted, _ in votes.values() if voted == loser)
        removals.append((len(removals), loser, total, discarded))
        contestants.discard(loser)
        del counts[loser]
        votes = {p: vote for p, vote in votes.items() if vote[0] != loser}
        if len(contestants) <= 1:
            contestants = set(range(1, NUM_CONTESTANTS + 1))
            counts = dict.fromkeys(contestants, 0)
            votes = {}
    return {
        "votes": sorted((phone, c, ts) for phone, (c, ts) in votes.items()),
        "contestant_votes": sorted(counts.items()),
        "election_stats": [(total, rejected, len(removals))],
        "removals": removals,
    }


# ---------------------------------------------------------------------------
# BikeShare (E8's city)
# ---------------------------------------------------------------------------

BIKE_STATE_SQL = {
    table: f"SELECT * FROM {table}"
    for table in (
        "stations", "bikes", "riders", "rides", "billing", "discounts", "alerts",
        "city_stats",
    )
}


def build_bikeshare(engine: Any, seed: int) -> tuple[BikeShareApp, BikeShareSimulation]:
    app = BikeShareApp(
        engine, num_stations=9, capacity=8, bikes_per_station=4, num_riders=24
    )
    sim = BikeShareSimulation(
        app,
        seed=seed,
        trip_speed_mph=30.0,
        drain_station=1,
        drain_bias=0.7,
        theft_at_tick=60,
        trip_start_probability=0.5,
    )
    return app, sim


def bikeshare_violations(app: BikeShareApp, report: Any) -> list[str]:
    """E8's invariants; an empty list means all hold."""
    sql = app.engine.execute_sql
    problems = []
    statuses = dict(sql("SELECT status, COUNT(*) FROM bikes GROUP BY status").rows)
    if sum(statuses.values()) != 36:
        problems.append(f"bike conservation: {statuses}")
    finished = sql("SELECT COUNT(*) FROM rides WHERE end_ts IS NOT NULL").scalar()
    charges = sql("SELECT COUNT(*) FROM billing").scalar()
    if not finished == charges == report.returns:
        problems.append(
            f"billing: {finished} finished rides, {charges} charges, "
            f"{report.returns} returns"
        )
    grants = sql(
        "SELECT discount_id, COUNT(*) FROM discounts "
        "WHERE state = 'accepted' OR state = 'redeemed' GROUP BY discount_id"
    ).rows
    if any(count != 1 for _id, count in grants):
        problems.append("a discount was granted twice")
    step = 30.0 / 3600.0
    remaining = {rider: list(d) for rider, d in report.true_distances.items()}
    for rider, distance in sql(
        "SELECT rider_id, distance FROM rides WHERE end_ts IS NOT NULL ORDER BY ride_id"
    ).rows:
        if remaining.get(rider):
            truth = remaining[rider].pop(0)
            if abs(truth - distance) > step + 1e-9:
                problems.append(f"rider {rider}: distance {distance} vs truth {truth}")
                break
    # a seed whose 24 riders are all out at tick 60 has no thief to start
    if report.thefts_started > 1 or len(app.alerts()) != report.thefts_started:
        problems.append(
            f"theft: {report.thefts_started} started, {len(app.alerts())} alerts"
        )
    return problems


# ---------------------------------------------------------------------------
# Analytics churn
# ---------------------------------------------------------------------------

STATIONS = 9
HISTORY_ROWS = 30_000
WINDOW_ROWS = 4_000
GROUPS = 8

#: E18's three full scans, used in rotation
SCAN_QUERIES = [
    "SELECT COUNT(*), SUM(fare), AVG(duration_s), MIN(distance_mi), "
    "MAX(distance_mi) FROM ride_history WHERE duration_s > 600",
    "SELECT station, COUNT(*), SUM(fare), AVG(distance_mi) "
    "FROM ride_history GROUP BY station",
    "SELECT ride_id, fare FROM ride_history WHERE distance_mi > 2.5 AND promo IS NULL",
]
VIEW_QUERY = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM recent GROUP BY g"

ANALYTICS_STATE_SQL = {
    "ride_history": "SELECT * FROM ride_history ORDER BY ride_id",
    "recent": "SELECT seq, g, v FROM recent ORDER BY seq",
}


class _Sink(StreamProcedure):
    name = "sink"
    statements: dict[str, str] = {}

    def run(self, ctx) -> None:
        pass


def history_row(ride_id: int) -> tuple:
    return (
        ride_id,
        ride_id % STATIONS,
        120 + (ride_id * 37) % 1800,
        0.25 * (1 + (ride_id * 13) % 20),
        1.5 + 0.1 * ((ride_id * 7) % 40),
        None if ride_id % 5 else ride_id % 3,
    )


def deploy_analytics(engine: Any) -> None:
    """Schema only; ``workloads.py`` loads the rows (it needs them logged)."""
    engine.execute_ddl(
        "CREATE TABLE ride_history ("
        "ride_id INTEGER NOT NULL, station INTEGER NOT NULL, "
        "duration_s INTEGER NOT NULL, distance_mi FLOAT NOT NULL, "
        "fare FLOAT NOT NULL, promo INTEGER, PRIMARY KEY (ride_id))"
    )
    engine.execute_ddl("CREATE STREAM feed (seq INTEGER, g INTEGER, v INTEGER)")
    engine.execute_ddl(f"CREATE WINDOW recent ON feed ROWS {WINDOW_ROWS} SLIDE 1")
    engine.execute_ddl("CREATE VIEW recent_by_g AS " + VIEW_QUERY)
    engine.register_procedure(_Sink)
    workflow = WorkflowSpec("feed_sink")
    workflow.add_node("sink", input_stream="feed", batch_size=1)
    engine.deploy_workflow(workflow)


def scan_reference(shadow: dict[int, tuple], which: int) -> list[tuple]:
    """Recompute ``SCAN_QUERIES[which]`` over the shadow dict."""
    rows = [shadow[key] for key in sorted(shadow)]
    if which == 0:
        hit = [r for r in rows if r[2] > 600]
        if not hit:
            return [(0, None, None, None, None)]
        return [(
            len(hit),
            sum(r[4] for r in hit),
            sum(r[2] for r in hit) / len(hit),
            min(r[3] for r in hit),
            max(r[3] for r in hit),
        )]
    if which == 1:
        groups: dict[int, list[tuple]] = {}
        for r in rows:
            groups.setdefault(r[1], []).append(r)
        return [
            (
                station,
                len(members),
                sum(r[4] for r in members),
                sum(r[3] for r in members) / len(members),
            )
            for station, members in groups.items()
        ]
    return [(r[0], r[4]) for r in rows if r[3] > 2.5 and r[5] is None]


def view_reference(window: list[tuple[int, int, int]]) -> list[tuple]:
    groups: dict[int, list[int]] = {}
    for _seq, g, v in window:
        groups.setdefault(g, []).append(v)
    return sorted(
        (g, len(vs), sum(vs), min(vs), max(vs)) for g, vs in groups.items()
    )


def rows_match(got: list[tuple], want: list[tuple]) -> bool:
    """Row-set equality; floats compare to 1e-9 relative (sum order differs)."""
    if len(got) != len(want):
        return False
    first = lambda row: (row[0] is None, row[0])  # noqa: E731 - keys are unique
    for a, b in zip(sorted(got, key=first), sorted(want, key=first)):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) or isinstance(y, float):
                if x is None or y is None or abs(x - y) > 1e-9 * max(1.0, abs(y)):
                    return False
            elif x != y:
                return False
    return True
