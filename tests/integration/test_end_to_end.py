"""Integration tests: full applications, recovery, and cross-system checks."""

import pytest

from repro.apps.bikeshare import BikeShareApp, BikeShareSimulation
from repro.apps.voter import (
    VoterHStoreApp,
    VoterSStoreApp,
    VoterWorkload,
)
from repro.core.recovery import crash_and_recover_streaming
from repro.core.transaction import validate_schedule


class TestVoterFullElection:
    """Run a complete election (down to a single winner) on S-Store."""

    @pytest.fixture(scope="class")
    def finished(self):
        app = VoterSStoreApp(num_contestants=5, batch_size=5)
        requests = VoterWorkload(
            seed=42, num_contestants=5, duplicate_fraction=0.1
        ).generate(800)
        app.submit(requests, ingest_chunk=20)
        return app, app.summary()

    def test_single_winner_remains(self, finished):
        _app, summary = finished
        assert summary.winner is not None
        assert len(summary.remaining) == 1
        assert summary.eliminations == 4

    def test_removals_strictly_at_thresholds(self, finished):
        _app, summary = finished
        for _seq, _contestant, at_total in summary.removals:
            assert at_total % 100 == 0

    def test_counts_consistent_with_votes_table(self, finished):
        app, summary = finished
        for contestant, count in summary.counts:
            stored = app.engine.execute_sql(
                "SELECT COUNT(*) FROM votes WHERE contestant_number = ?",
                contestant,
            ).scalar()
            assert stored == count

    def test_schedule_clean(self, finished):
        app, _summary = finished
        assert validate_schedule(app.engine.schedule_history, app.workflow) == []

    def test_accepted_plus_rejected_equals_submitted(self, finished):
        app, summary = finished
        assert summary.total_votes + summary.rejected_votes == 800


class TestVoterRecoveryMidElection:
    def test_crash_between_batches_is_invisible(self):
        app = VoterSStoreApp(num_contestants=4, batch_size=1)
        requests = VoterWorkload(seed=9, num_contestants=4).generate(260)
        app.submit(requests[:130])
        report = crash_and_recover_streaming(app.engine)
        assert report.state_matches
        app.submit(requests[130:])

        # a never-crashed engine reaches the identical end state
        clean = VoterSStoreApp(num_contestants=4, batch_size=1)
        clean.submit(requests)
        assert clean.summary() == app.summary()

    def test_crash_with_snapshots(self):
        app = VoterSStoreApp(
            num_contestants=4, batch_size=1, snapshot_interval=50
        )
        requests = VoterWorkload(seed=9, num_contestants=4).generate(200)
        app.submit(requests)
        assert app.engine.stats.snapshots_taken >= 1
        report = crash_and_recover_streaming(app.engine)
        assert report.state_matches
        # replay only covered the post-snapshot suffix
        assert report.replayed_records < 200


class TestVoterCrossSystem:
    def test_sstore_equals_sequential_hstore_on_large_run(self):
        # batch size 1 = per-vote TEs, the exact semantics the sequential
        # H-Store client provides; results must be identical
        requests = VoterWorkload(seed=77, num_contestants=12).generate(1000)
        s_app = VoterSStoreApp(num_contestants=12, batch_size=1)
        s_app.submit(requests, ingest_chunk=8)
        h_app = VoterHStoreApp(num_contestants=12)
        h_app.run_sequential(requests)
        assert s_app.summary() == h_app.summary()

    def test_batched_sstore_same_outcome_shape(self):
        # with batch size > 1 a removal may lag a few intra-batch votes;
        # the *candidates* removed and the final survivor set still match
        requests = VoterWorkload(seed=77, num_contestants=12).generate(1000)
        batched = VoterSStoreApp(num_contestants=12, batch_size=4)
        batched.submit(requests, ingest_chunk=8)
        reference = VoterSStoreApp(num_contestants=12, batch_size=1)
        reference.submit(requests)
        assert batched.summary().removal_order() == (
            reference.summary().removal_order()
        )
        assert batched.summary().remaining == reference.summary().remaining

    def test_interleaved_hstore_wrong_removals_across_seeds(self):
        """Across seeds, interleaving eventually removes a wrong candidate —
        the paper's headline anomaly."""
        requests = VoterWorkload(seed=21, num_contestants=6).generate(600)
        reference = VoterSStoreApp(num_contestants=6)
        reference.submit(requests)
        expected_removals = reference.summary().removal_order()

        wrong = 0
        for seed in range(6):
            h_app = VoterHStoreApp(num_contestants=6)
            h_app.run_interleaved(requests, clients=10, seed=seed)
            if h_app.summary().removal_order() != expected_removals:
                wrong += 1
        assert wrong > 0


class TestBikeShareIntegration:
    def test_simulation_state_is_consistent(self):
        app = BikeShareApp(
            num_stations=9, capacity=8, bikes_per_station=4, num_riders=20
        )
        sim = BikeShareSimulation(
            app, seed=13, trip_speed_mph=30.0, drain_station=1,
            theft_at_tick=40,
        )
        report = sim.run(300)

        engine = app.engine
        # bikes conserved across states
        docked = engine.execute_sql(
            "SELECT COUNT(*) FROM bikes WHERE status = 'docked'"
        ).scalar()
        riding = engine.execute_sql(
            "SELECT COUNT(*) FROM bikes WHERE status = 'riding'"
        ).scalar()
        stolen = engine.execute_sql(
            "SELECT COUNT(*) FROM bikes WHERE status = 'stolen'"
        ).scalar()
        assert docked + riding + stolen == 36

        # station counters match the bikes table
        for station_id, _name, bikes_available, _docks in app.stations():
            actual = engine.execute_sql(
                "SELECT COUNT(*) FROM bikes WHERE station_id = ? AND "
                "status = 'docked'",
                station_id,
            ).scalar()
            assert actual == bikes_available

        # every finished ride was billed exactly once
        finished = engine.execute_sql(
            "SELECT COUNT(*) FROM rides WHERE end_ts IS NOT NULL"
        ).scalar()
        charges = engine.execute_sql("SELECT COUNT(*) FROM billing").scalar()
        assert finished == charges == report.returns

        # theft detected
        assert report.thefts_started == 1
        assert len(app.alerts()) == 1

    def test_no_discount_double_redeemed(self):
        app = BikeShareApp(
            num_stations=4, capacity=8, bikes_per_station=4, num_riders=16
        )
        sim = BikeShareSimulation(
            app, seed=31, drain_station=2, drain_bias=0.9,
            trip_start_probability=0.9, trip_speed_mph=40.0,
        )
        sim.run(240)
        # each discount id appears at most once in any non-offered state
        rows = app.engine.execute_sql(
            "SELECT discount_id, state, rider_id FROM discounts"
        ).rows
        ids = [r[0] for r in rows]
        assert len(ids) == len(set(ids))
        for _id, state, rider in rows:
            if state in ("accepted", "redeemed"):
                assert rider is not None

    def test_bikeshare_crash_recovery(self):
        app = BikeShareApp(
            num_stations=4, capacity=6, bikes_per_station=3, num_riders=10
        )
        sim = BikeShareSimulation(app, seed=8, trip_speed_mph=30.0)
        sim.run(120)
        report = crash_and_recover_streaming(app.engine)
        assert report.state_matches

    def test_bikeshare_recovery_with_snapshot(self):
        app = BikeShareApp(
            num_stations=4, capacity=6, bikes_per_station=3, num_riders=10,
            snapshot_interval=100,
        )
        sim = BikeShareSimulation(app, seed=8, trip_speed_mph=30.0)
        sim.run(150)
        assert app.engine.stats.snapshots_taken >= 1
        report = crash_and_recover_streaming(app.engine)
        assert report.state_matches


class TestMultipleWorkflowsOneEngine:
    def test_voter_and_extra_pipeline_coexist(self):
        """Two independent workflows share one engine without interference."""
        from repro.core.engine import StreamProcedure
        from repro.core.workflow import WorkflowSpec

        app = VoterSStoreApp(num_contestants=4)
        engine = app.engine
        engine.execute_ddl("CREATE STREAM metrics_in (v INTEGER)")
        engine.execute_ddl("CREATE TABLE metrics (v INTEGER)")

        class Meter(StreamProcedure):
            name = "meter"
            statements = {"ins": "INSERT INTO metrics VALUES (?)"}

            def run(self, ctx):
                for (v,) in ctx.batch:
                    ctx.execute("ins", v)

        engine.register_procedure(Meter)
        wf = WorkflowSpec("metrics_wf")
        wf.add_node("meter", input_stream="metrics_in", batch_size=1)
        engine.deploy_workflow(wf)

        requests = VoterWorkload(seed=2, num_contestants=4).generate(120)
        for i, request in enumerate(requests):
            app.submit([request])
            if i % 10 == 0:
                engine.ingest("metrics_in", [(i,)])

        assert engine.execute_sql("SELECT COUNT(*) FROM metrics").scalar() == 12
        summary = app.summary()
        assert summary.total_votes + summary.rejected_votes == 120
        # both workflows' histories validate
        assert validate_schedule(engine.schedule_history, app.workflow) == []
        assert validate_schedule(engine.schedule_history, wf) == []
