"""Property test: the differential oracle holds over randomized shapes.

Hypothesis drives batch size, worker count, placement, and the ingest
pattern; for every generated case the single-process engine and the
cluster must commit identical state in identical per-stream batch order.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.recovery import differential_report

from tests.dstream.conftest import build_pipe_cluster, build_pipe_single, commits_of

pytestmark = pytest.mark.dstream


@st.composite
def pipe_cases(draw):
    workers = draw(st.integers(min_value=1, max_value=3))
    return {
        "workers": workers,
        "batch_size": draw(st.integers(min_value=1, max_value=3)),
        "relay_on": draw(st.integers(min_value=0, max_value=workers - 1)),
        "sink_on": draw(st.integers(min_value=0, max_value=workers - 1)),
        "chunks": draw(
            st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=9),
                    min_size=1,
                    max_size=4,
                ),
                min_size=1,
                max_size=6,
            )
        ),
    }


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=pipe_cases())
def test_random_pipe_shapes_are_equivalent(case):
    single = build_pipe_single(batch_size=case["batch_size"])
    cluster = build_pipe_cluster(
        workers=case["workers"],
        placement={"relay": case["relay_on"], "sink": case["sink_on"]},
        batch_size=case["batch_size"],
    )
    try:
        for chunk in case["chunks"]:
            rows = [(k,) for k in chunk]
            single.ingest("src", rows)
            cluster.ingest("src", rows)
        single.run_until_quiescent()
        cluster.run_until_quiescent()
        report = differential_report(single, cluster)
        assert report.equivalent, f"{case}: {report.summary()}"
        assert commits_of(cluster) == commits_of(single), case
    finally:
        cluster.shutdown()
