"""BikeShare schema (paper §3.2).

A city-scale bike-sharing system in one engine: OLTP (checkouts, returns,
discount acceptances), streaming (1 Hz GPS reports, ride statistics,
stolen-bike detection), and hybrid processing (real-time discounts that are
recomputed from station state changes and granted transactionally).

Coordinates are planar, in miles (the demo's map projection is
presentation-level; planar geometry exercises the same code paths).  The
logical clock runs at 1 tick = 1 second, so a 1 Hz GPS unit emits one report
per tick and the 15-minute discount expiry is 900 ticks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hstore.engine import HStoreEngine

__all__ = [
    "DISCOUNT_EXPIRY_TICKS",
    "DISCOUNT_PCT",
    "HIGH_WATER",
    "LOW_WATER",
    "MAX_OFFERS_PER_STATION",
    "STOLEN_SPEED_MPH",
    "BASE_FARE",
    "PER_MINUTE_RATE",
    "CALORIES_PER_MILE",
    "install_tables",
    "install_streams",
    "seed_city",
]

#: a discount offer, once accepted, must be redeemed within 15 minutes
DISCOUNT_EXPIRY_TICKS = 900
DISCOUNT_PCT = 25.0
#: a station with fewer bikes than this starts offering discounts
LOW_WATER = 2
#: a station with at least this many bikes stops offering
HIGH_WATER = 4
MAX_OFFERS_PER_STATION = 3
#: "a bike traveling at 60 mph may indicate that the bike ... is stolen"
STOLEN_SPEED_MPH = 60.0
BASE_FARE = 1.0
PER_MINUTE_RATE = 0.15
CALORIES_PER_MILE = 40.0

_TABLES = [
    """
    CREATE TABLE stations (
        station_id      INTEGER NOT NULL,
        station_name    VARCHAR(64) NOT NULL,
        x               FLOAT NOT NULL,
        y               FLOAT NOT NULL,
        capacity        INTEGER NOT NULL,
        bikes_available INTEGER NOT NULL,
        docks_available INTEGER NOT NULL,
        PRIMARY KEY (station_id)
    )
    """,
    """
    CREATE TABLE bikes (
        bike_id    INTEGER NOT NULL,
        status     VARCHAR(8) NOT NULL,
        station_id INTEGER,
        rider_id   INTEGER,
        PRIMARY KEY (bike_id)
    )
    """,
    """
    CREATE TABLE riders (
        rider_id    INTEGER NOT NULL,
        rider_name  VARCHAR(64) NOT NULL,
        active_ride INTEGER,
        PRIMARY KEY (rider_id)
    )
    """,
    """
    CREATE TABLE rides (
        ride_id       INTEGER NOT NULL,
        rider_id      INTEGER NOT NULL,
        bike_id       INTEGER NOT NULL,
        start_station INTEGER NOT NULL,
        end_station   INTEGER,
        start_ts      TIMESTAMP NOT NULL,
        end_ts        TIMESTAMP,
        cost          FLOAT,
        distance      FLOAT NOT NULL,
        max_speed     FLOAT NOT NULL,
        calories      FLOAT NOT NULL,
        PRIMARY KEY (ride_id)
    )
    """,
    """
    CREATE TABLE bike_positions (
        bike_id INTEGER NOT NULL,
        ts      TIMESTAMP NOT NULL,
        x       FLOAT NOT NULL,
        y       FLOAT NOT NULL,
        PRIMARY KEY (bike_id)
    )
    """,
    """
    CREATE TABLE discounts (
        discount_id INTEGER NOT NULL,
        station_id  INTEGER NOT NULL,
        rider_id    INTEGER,
        state       VARCHAR(10) NOT NULL,
        pct         FLOAT NOT NULL,
        offered_ts  TIMESTAMP NOT NULL,
        expires_ts  TIMESTAMP,
        PRIMARY KEY (discount_id)
    )
    """,
    """
    CREATE TABLE alerts (
        alert_id INTEGER NOT NULL,
        bike_id  INTEGER NOT NULL,
        kind     VARCHAR(16) NOT NULL,
        ts       TIMESTAMP NOT NULL,
        detail   VARCHAR(128),
        PRIMARY KEY (alert_id)
    )
    """,
    """
    CREATE TABLE billing (
        charge_id INTEGER NOT NULL,
        rider_id  INTEGER NOT NULL,
        ride_id   INTEGER NOT NULL,
        amount    FLOAT NOT NULL,
        PRIMARY KEY (charge_id)
    )
    """,
    """
    CREATE TABLE city_stats (
        stat_id          INTEGER NOT NULL,
        avg_recent_speed FLOAT,
        reports_seen     INTEGER NOT NULL,
        PRIMARY KEY (stat_id)
    )
    """,
    "CREATE INDEX idx_bikes_station ON bikes (station_id, status)",
    "CREATE INDEX idx_discounts_station ON discounts (station_id, state)",
    "CREATE INDEX idx_discounts_rider ON discounts (rider_id)",
    "CREATE INDEX idx_rides_rider ON rides (rider_id)",
    # track_movement finds a bike's open ride per GPS fix; rides only grows
    "CREATE INDEX idx_rides_bike ON rides (bike_id)",
]

_STREAMS = [
    """
    CREATE STREAM gps_in (
        bike_id INTEGER NOT NULL,
        ts      TIMESTAMP NOT NULL,
        x       FLOAT NOT NULL,
        y       FLOAT NOT NULL
    )
    """,
    """
    CREATE STREAM movements (
        bike_id    INTEGER NOT NULL,
        ts         TIMESTAMP NOT NULL,
        speed_mph  FLOAT NOT NULL,
        dist_miles FLOAT NOT NULL
    )
    """,
    """
    CREATE STREAM station_events (
        station_id      INTEGER NOT NULL,
        ts              TIMESTAMP NOT NULL,
        bikes_available INTEGER NOT NULL
    )
    """,
    # city-wide window over the most recent movement reports, used by the
    # anomaly detector for the live average-speed statistic
    "CREATE WINDOW recent_movements ON movements ROWS 30 SLIDE 1 "
    "OWNED BY detect_anomaly",
]

def install_tables(engine: "HStoreEngine") -> None:
    for ddl in _TABLES:
        engine.execute_ddl(ddl)


def install_streams(engine: "HStoreEngine") -> None:
    for ddl in _STREAMS:
        engine.execute_ddl(ddl)


def seed_city(
    engine: "HStoreEngine",
    *,
    num_stations: int = 9,
    capacity: int = 8,
    bikes_per_station: int = 5,
    num_riders: int = 40,
    grid_spacing_miles: float = 1.0,
) -> None:
    """Lay out stations on a square-ish grid, dock bikes, register riders."""
    side = max(1, round(num_stations**0.5))
    bike_id = 0
    for station_id in range(1, num_stations + 1):
        x = ((station_id - 1) % side) * grid_spacing_miles
        y = ((station_id - 1) // side) * grid_spacing_miles
        engine.execute_sql(
            "INSERT INTO stations VALUES (?, ?, ?, ?, ?, ?, ?)",
            station_id,
            f"Station-{station_id}",
            x,
            y,
            capacity,
            bikes_per_station,
            capacity - bikes_per_station,
        )
        for _ in range(bikes_per_station):
            bike_id += 1
            engine.execute_sql(
                "INSERT INTO bikes VALUES (?, 'docked', ?, NULL)",
                bike_id,
                station_id,
            )
    for rider_id in range(1, num_riders + 1):
        engine.execute_sql(
            "INSERT INTO riders VALUES (?, ?, NULL)",
            rider_id,
            f"Rider-{rider_id}",
        )
    engine.execute_sql("INSERT INTO city_stats VALUES (0, NULL, 0)")
