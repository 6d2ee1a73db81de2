"""Whole-app differential: both apps on a default engine and on the oracle.

The expression suites fuzz statements one at a time; this runs every
statement of Voter and of BikeShare — stored procedures, EE triggers,
window maintenance, ad-hoc reads — on a default engine and on an engine
whose plans all run on the tree-walking interpreter
(:func:`tests.oracle.oracle_arm`), and requires the same answers and the
same tables, cell for cell and type for type.
"""

from __future__ import annotations

import pytest

from repro.apps.bikeshare import BikeShareApp, BikeShareSimulation
from repro.apps.voter.sstore_app import VoterSStoreApp
from repro.apps.voter.workload import VoterWorkload
from repro.core.engine import SStoreEngine
from tests.oracle import oracle_arm

pytestmark = pytest.mark.compile

def table_contents(engine: SStoreEngine) -> dict:
    """Every table's rows by rowid, each cell with its Python type."""
    return {
        name: {
            rowid: tuple((type(cell).__name__, cell) for cell in row)
            for rowid, row in table.storage().items()
        }
        for name, table in engine.partitions[0].ee.tables().items()
    }


def run_voter(make_engine):
    engine = make_engine()
    app = VoterSStoreApp(engine, num_contestants=10)
    requests = VoterWorkload(seed=303, num_contestants=10).generate(600)
    app.submit(requests, ingest_chunk=5)
    return app.summary(), engine


def run_bikeshare(make_engine):
    engine = make_engine()
    app = BikeShareApp(
        engine, num_stations=9, capacity=8, bikes_per_station=4, num_riders=24
    )
    sim = BikeShareSimulation(
        app,
        seed=88,
        trip_speed_mph=30.0,
        drain_station=1,
        drain_bias=0.7,
        theft_at_tick=60,
        trip_start_probability=0.5,
    )
    return sim.run(120), engine


@pytest.mark.parametrize("run_app", [run_voter, run_bikeshare], ids=["voter", "bikeshare"])
def test_app_answers_and_tables_match_the_oracle(run_app):
    summary, engine = run_app(SStoreEngine)
    oracle_summary, oracle = run_app(lambda: oracle_arm(SStoreEngine()))
    assert summary == oracle_summary
    tables = table_contents(engine)
    assert tables == table_contents(oracle)
    assert any(tables.values())  # the run left state to compare
    # the arms really differ: only the default engine takes the point lane
    assert engine.stats.extra.get("point_lookups", 0) > 0
    assert oracle.stats.extra.get("point_lookups", 0) == 0
