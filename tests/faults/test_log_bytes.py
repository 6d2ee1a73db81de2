"""Every byte of a logged file: a flip anywhere raises, a cut anywhere is a
torn tail repaired to the last whole frame.

The log mixes the records the apps write — a Voter vote, BikeShare ticks,
GPS batches with floats and NULLs, ad-hoc DML — with nested and dict
parameters, so every tag and the packed-row layout sit under the flips.
Beside them, generated values of every supported type round-trip exactly.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RecoveryError
from repro.hstore.cmdlog import LogRecord
from repro.hstore.codec import decode_frame, encode_frame
from repro.hstore.durability import DurabilityDirectory

from tests.faults.conftest import frame_ends

pytestmark = pytest.mark.faults

PARAMS = [
    ("<ingest>", ("votes_in", (("200-555-0000", 13, 1),))),
    ("<tick>", (1,)),
    ("<ingest>", ("gps_in", ((5, 1, 1.005892557, 0.25), (6, 2, -3.5, 1e-9)))),
    ("<ingest>", ("gps_in", ((7, None, 2.5, float("inf")), (8, 3, -0.0, None)))),
    ("checkout", (1, 2, -1)),
    ("<adhoc>", ("INSERT INTO t VALUES (?, ?)", (2**40, "é"))),
    ("p", ({1: (2, [3.5, None]), "k": {None: True}, (1, "x"): False}, [], ())),
]
RECORDS = [
    LogRecord(lsn, 100 + lsn, procedure, params, lsn % 2 - 1, 10 * lsn)
    for lsn, (procedure, params) in enumerate(PARAMS)
]


@pytest.fixture(scope="module")
def logged(tmp_path_factory) -> bytes:
    directory = DurabilityDirectory(tmp_path_factory.mktemp("logged"))
    directory.append_log_records(RECORDS[:4])
    directory.append_log_records(RECORDS[4:])
    assert directory.load_log_records() == RECORDS
    return directory.log_path.read_bytes()


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_a_flipped_byte_anywhere_raises(logged, tmp_path_factory, data):
    xors = data.draw(st.lists(st.integers(1, 255), min_size=len(logged), max_size=len(logged)))
    directory = DurabilityDirectory(tmp_path_factory.mktemp("flip"))
    for position, xor in enumerate(xors):
        damaged = bytearray(logged)
        damaged[position] ^= xor
        directory.log_path.write_bytes(bytes(damaged))
        with pytest.raises(RecoveryError):
            directory.scan_log(repair=False)


def test_a_cut_anywhere_keeps_the_frames_before_it(logged, tmp_path):
    ends = [0, *frame_ends(logged)]
    assert ends[-1] == len(logged) and len(ends) == len(RECORDS) + 1
    directory = DurabilityDirectory(tmp_path)
    for cut in range(len(logged) + 1):
        whole = sum(end <= cut for end in ends) - 1  # frames wholly before the cut
        directory.log_path.write_bytes(logged[:cut])
        records, torn = directory.scan_log()
        assert records == RECORDS[:whole]
        assert torn == (cut != ends[whole])
        assert directory.log_path.read_bytes() == logged[: ends[whole]]
        if whole < len(RECORDS):
            directory.append_log_records([RECORDS[whole]])
            assert directory.scan_log() == (RECORDS[: whole + 1], 0)
        directory.close_log()


def same(a, b) -> bool:
    """Equal type for type, floats bit for bit (NaN payloads, -0.0)."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack(">d", a) == struct.pack(">d", b)
    if type(a) is dict:
        return len(a) == len(b) and all(
            same(ka, kb) and same(a[ka], b[kb]) for ka, kb in zip(a, b)
        )
    if type(a) in (tuple, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
KEYS = st.none() | st.booleans() | st.integers() | st.text()
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.tuples(inner, inner)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=4)
    # row batches: the packed layout when every column has one numeric type
    | st.integers(1, 3).flatmap(
        lambda width: st.lists(
            st.tuples(*[st.integers(-(2**63), 2**63 - 1) | st.floats()] * width),
            min_size=2, max_size=4,
        ).map(tuple)
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(params=st.lists(VALUES, max_size=4).map(tuple), lsn=st.integers(0, 2**40))
def test_any_supported_value_round_trips_exactly(params, lsn):
    record = LogRecord(lsn, lsn + 1, "p", params, -1, 2**70)
    frame = encode_frame(record)
    decoded, end = decode_frame(frame, 0)
    assert end == len(frame)
    assert same(decoded.params, params) and decoded.lsn == lsn
