"""Voter-with-Leaderboard application tests (both deployments)."""

import pytest

from repro.apps.voter import (
    ELIMINATION_EVERY,
    VoteRequest,
    VoterHStoreApp,
    VoterSStoreApp,
    VoterWorkload,
    render_leaderboard,
)
from repro.core.transaction import validate_schedule


def votes(pairs, start_ts=1):
    """Helper: build VoteRequests from (phone, contestant) pairs."""
    return [
        VoteRequest(phone, contestant, start_ts + i)
        for i, (phone, contestant) in enumerate(pairs)
    ]


class TestSStoreBasics:
    def test_vote_recorded_and_counted(self):
        app = VoterSStoreApp(num_contestants=3)
        app.submit(votes([("p1", 1), ("p2", 2), ("p3", 1)]))
        summary = app.summary()
        assert summary.total_votes == 3
        assert dict(summary.counts) == {1: 2, 2: 1, 3: 0}

    def test_duplicate_phone_rejected(self):
        app = VoterSStoreApp(num_contestants=3)
        app.submit(votes([("p1", 1), ("p1", 2)]))
        summary = app.summary()
        assert summary.total_votes == 1
        assert summary.rejected_votes == 1
        assert dict(summary.counts)[1] == 1  # first vote won

    def test_invalid_contestant_rejected(self):
        app = VoterSStoreApp(num_contestants=3)
        app.submit(votes([("p1", 99)]))
        summary = app.summary()
        assert summary.total_votes == 0
        assert summary.rejected_votes == 1

    def test_elimination_at_threshold(self):
        app = VoterSStoreApp(num_contestants=3)
        # 100 valid votes: contestant 3 gets none → eliminated
        pairs = [(f"p{i}", 1 if i % 2 else 2) for i in range(ELIMINATION_EVERY)]
        app.submit(votes(pairs))
        summary = app.summary()
        assert summary.eliminations == 1
        assert summary.removal_order() == (3,)
        assert 3 not in summary.remaining

    def test_eliminated_candidates_votes_returned(self):
        app = VoterSStoreApp(num_contestants=3)
        pairs = [(f"p{i}", (i % 2) + 1) for i in range(ELIMINATION_EVERY - 1)]
        pairs.append(("loser_fan", 3))  # one vote for the eventual loser
        app.submit(votes(pairs))
        summary = app.summary()
        assert summary.removal_order() == (3,)
        # loser_fan's phone is free again: a re-vote must be accepted
        app.submit(votes([("loser_fan", 1)], start_ts=10_000))
        assert app.summary().total_votes == ELIMINATION_EVERY + 1

    def test_trending_board_limited_to_window(self):
        app = VoterSStoreApp(num_contestants=5)
        pairs = [(f"a{i}", 1) for i in range(60)] + [
            (f"b{i}", 2) for i in range(60)
        ]
        app.submit(votes(pairs))
        boards = app.leaderboards()
        trending = {row[1]: row[3] for row in boards["trending"]}
        # last 100 votes: 40 for #1, 60 for #2
        assert trending[2] == 60
        assert trending[1] == 40
        names = {row[1]: row[2] for row in boards["trending"]}
        assert names[1] == "Aiden"

    def test_top_bottom_leaderboards(self):
        app = VoterSStoreApp(num_contestants=4)
        pairs = (
            [(f"a{i}", 1) for i in range(5)]
            + [(f"b{i}", 2) for i in range(3)]
            + [(f"c{i}", 3) for i in range(1)]
        )
        app.submit(votes(pairs))
        boards = app.leaderboards()
        assert [row[0] for row in boards["top"]] == [1, 2, 3]
        assert boards["bottom"][0][0] == 4  # zero votes

    def test_batch_size_amortizes_roundtrips(self):
        small = VoterSStoreApp(num_contestants=3, batch_size=1)
        big = VoterSStoreApp(num_contestants=3, batch_size=10)
        pairs = [(f"p{i}", (i % 3) + 1) for i in range(40)]
        small.submit(votes(pairs), ingest_chunk=1)
        big.submit(votes(pairs), ingest_chunk=10)
        assert (
            big.engine.stats.client_pe_roundtrips
            < small.engine.stats.client_pe_roundtrips
        )
        assert big.summary().counts == small.summary().counts

    def test_schedule_is_valid(self):
        app = VoterSStoreApp(num_contestants=5)
        requests = VoterWorkload(seed=3, num_contestants=5).generate(150)
        app.submit(requests)
        assert app.workflow.serial_required  # shared tables detected
        assert validate_schedule(app.engine.schedule_history, app.workflow) == []


class TestHStoreSequential:
    def test_matches_sstore_results(self):
        requests = VoterWorkload(seed=5, num_contestants=6).generate(250)
        s_app = VoterSStoreApp(num_contestants=6)
        s_app.submit(requests)
        h_app = VoterHStoreApp(num_contestants=6)
        h_app.run_sequential(requests)
        assert h_app.summary() == s_app.summary()

    def test_uses_more_client_roundtrips(self):
        requests = VoterWorkload(seed=5, num_contestants=6).generate(200)
        s_app = VoterSStoreApp(num_contestants=6)
        s_app.submit(requests, ingest_chunk=10)
        h_app = VoterHStoreApp(num_contestants=6)
        h_app.run_sequential(requests)
        assert (
            h_app.engine.stats.client_pe_roundtrips
            > 5 * s_app.engine.stats.client_pe_roundtrips
        )


class TestHStorePolling:
    def test_polling_processes_every_vote(self):
        requests = VoterWorkload(seed=5, num_contestants=6).generate(200)
        app = VoterHStoreApp(num_contestants=6)
        app.run_polling(requests, poll_every=10)
        reference = VoterHStoreApp(num_contestants=6)
        reference.run_sequential(requests)
        summary = app.summary()
        # every vote eventually processed: totals match; staging drained
        assert summary.total_votes == reference.summary().total_votes
        assert (
            app.engine.execute_sql(
                "SELECT COUNT(*) FROM pending_votes"
            ).scalar()
            == 0
        )

    def test_staleness_grows_with_poll_interval(self):
        requests = VoterWorkload(seed=5, num_contestants=6).generate(150)
        eager = VoterHStoreApp(num_contestants=6)
        eager.run_polling(requests, poll_every=1)
        lazy = VoterHStoreApp(num_contestants=6)
        lazy.run_polling(requests, poll_every=20)
        assert lazy.max_backlog > eager.max_backlog

    def test_empty_polls_counted(self):
        app = VoterHStoreApp(num_contestants=6)
        app.enable_polling_mode()
        app._poll_once()  # nothing staged: a wasted round trip
        assert app.empty_polls == 1

    def test_polling_mode_idempotent(self):
        app = VoterHStoreApp(num_contestants=6)
        app.enable_polling_mode()
        app.enable_polling_mode()  # no duplicate DDL/registration error


class TestHStoreInterleavedAnomalies:
    def test_diverges_from_reference(self):
        requests = VoterWorkload(seed=11, num_contestants=8).generate(500)
        reference = VoterHStoreApp(num_contestants=8)
        reference.run_sequential(requests)
        anomalous = VoterHStoreApp(num_contestants=8)
        anomalous.run_interleaved(requests, clients=8, seed=3)
        assert anomalous.summary() != reference.summary()

    def test_history_has_schedule_violations(self):
        requests = VoterWorkload(seed=11, num_contestants=8).generate(300)
        s_app = VoterSStoreApp(num_contestants=8)  # supplies the workflow spec
        anomalous = VoterHStoreApp(num_contestants=8)
        anomalous.run_interleaved(requests, clients=8, seed=3)
        violations = validate_schedule(anomalous.te_history, s_app.workflow)
        # TEs of one procedure run out of batch order, and one batch's
        # pipeline interleaves with another's despite the shared tables
        assert {"natural-order", "contiguity"} <= {v.rule for v in violations}

    def test_single_client_interleaved_is_clean(self):
        requests = VoterWorkload(seed=11, num_contestants=8).generate(200)
        reference = VoterHStoreApp(num_contestants=8)
        reference.run_sequential(requests)
        one_client = VoterHStoreApp(num_contestants=8)
        one_client.run_interleaved(requests, clients=1, seed=3)
        assert one_client.summary() == reference.summary()

    def test_rapid_fire_pair_misordered(self):
        # one phone votes for 1 then 2; with two clients the second vote can
        # be validated first, recording the *wrong* vote (paper's example)
        requests = [
            VoteRequest("racer", 1, 1),
            VoteRequest("racer", 2, 2, is_rapid_second=True),
        ]
        found_wrong = False
        for seed in range(30):
            app = VoterHStoreApp(num_contestants=3)
            app.run_interleaved(requests, clients=2, seed=seed)
            recorded = dict(app.vote_rows())
            if recorded.get("racer") == 2:
                found_wrong = True
                break
        assert found_wrong, "no seed produced the arrival-order anomaly"

    def test_sstore_never_misorders_rapid_fire(self):
        requests = [
            VoteRequest("racer", 1, 1),
            VoteRequest("racer", 2, 2, is_rapid_second=True),
        ]
        app = VoterSStoreApp(num_contestants=3)
        app.submit(requests)
        assert dict(app.vote_rows())["racer"] == 1


class TestWorkloadGenerator:
    def test_deterministic(self):
        first = VoterWorkload(seed=1).generate(100)
        second = VoterWorkload(seed=1).generate(100)
        assert first == second

    def test_different_seeds_differ(self):
        assert VoterWorkload(seed=1).generate(50) != VoterWorkload(seed=2).generate(50)

    def test_arrival_timestamps_strictly_increasing(self):
        requests = VoterWorkload(seed=1).generate(200)
        timestamps = [r.created_ts for r in requests]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == len(timestamps)

    def test_rapid_pairs_marked(self):
        requests = VoterWorkload(seed=1, rapid_pair_fraction=0.5).generate(200)
        pairs = [r for r in requests if r.is_rapid_second]
        assert pairs
        for second in pairs:
            index = requests.index(second)
            assert requests[index - 1].phone_number == second.phone_number
            assert requests[index - 1].contestant_number != second.contestant_number

    def test_requested_length(self):
        assert len(VoterWorkload(seed=1).generate(123)) == 123

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            VoterWorkload(duplicate_fraction=1.5)


class TestDisplay:
    def test_render_contains_boards_and_totals(self):
        app = VoterSStoreApp(num_contestants=3)
        app.submit(votes([("p1", 1), ("p2", 2)]))
        text = render_leaderboard(app.summary(), app.leaderboards())
        assert "Top 3" in text
        assert "Trending" in text
        assert "total votes: 2" in text

    def test_render_winner_banner(self):
        app = VoterSStoreApp(num_contestants=2)
        pairs = [(f"p{i}", 1) for i in range(ELIMINATION_EVERY)]
        app.submit(votes(pairs))
        summary = app.summary()
        assert summary.winner == 1
        assert "WINNER" in render_leaderboard(summary, app.leaderboards())
