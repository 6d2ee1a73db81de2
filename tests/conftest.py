"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.engine import SStoreEngine
from repro.hstore.catalog import Catalog, Column, Schema, TableEntry
from repro.hstore.engine import HStoreEngine
from repro.hstore.types import SqlType


@pytest.fixture
def engine() -> HStoreEngine:
    """A fresh single-partition H-Store engine."""
    return HStoreEngine()


@pytest.fixture
def sengine() -> SStoreEngine:
    """A fresh single-partition S-Store engine."""
    return SStoreEngine()


@pytest.fixture
def people_engine() -> HStoreEngine:
    """An engine pre-loaded with a small ``people`` table."""
    eng = HStoreEngine()
    eng.execute_ddl(
        "CREATE TABLE people (id INTEGER NOT NULL, name VARCHAR(32), "
        "age INTEGER, city VARCHAR(32), PRIMARY KEY (id))"
    )
    rows = [
        (1, "alice", 34, "boston"),
        (2, "bob", 28, "boston"),
        (3, "carol", 41, "cambridge"),
        (4, "dave", 28, "somerville"),
        (5, "erin", None, "boston"),
    ]
    for row in rows:
        eng.execute_sql("INSERT INTO people VALUES (?, ?, ?, ?)", *row)
    return eng


@pytest.fixture
def people_schema() -> Schema:
    return Schema(
        [
            Column("id", SqlType.INTEGER, nullable=False),
            Column("name", SqlType.VARCHAR),
            Column("age", SqlType.INTEGER),
        ]
    )


@pytest.fixture
def catalog(people_schema: Schema) -> Catalog:
    cat = Catalog()
    cat.add_table(TableEntry("people", people_schema, primary_key=("id",)))
    return cat
