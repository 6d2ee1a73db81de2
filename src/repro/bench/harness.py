"""Benchmark harness: canned workload runs and measurement extraction.

Every experiment in ``benchmarks/`` drives the two systems through these
helpers so that the configuration (workload seed, contestant count, batch
sizes) is identical on both sides and the measured quantities (wall time,
layer round trips, simulated TPS, anomaly counts) are extracted uniformly.

Besides the human-readable text reports (``benchmarks/_results/*.txt``),
experiments can emit machine-readable JSON via :func:`write_bench_json` —
one ``BENCH_<name>.json`` per experiment with throughput, latency
percentiles and configuration, for plotting and regression tracking
without re-parsing prose.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any

from repro.apps.voter.hstore_app import VoterHStoreApp
from repro.apps.voter.observe import ElectionSummary
from repro.apps.voter.sstore_app import VoterSStoreApp
from repro.apps.voter.workload import VoteRequest
from repro.core.engine import SStoreEngine
from repro.hstore.netsim import LatencyModel

__all__ = [
    "VoterRunResult",
    "AnomalyReport",
    "run_voter_sstore",
    "run_voter_hstore_sequential",
    "run_voter_dstream",
    "run_voter_hstore_interleaved",
    "compare_summaries",
    "format_table",
    "percentiles",
    "write_bench_json",
]


@dataclass
class VoterRunResult:
    """Everything one benchmark run produced."""

    system: str
    summary: ElectionSummary
    wall_seconds: float
    counters: dict[str, int]
    simulated_tps: float
    app: Any = field(repr=False, default=None)

    @property
    def votes_processed(self) -> int:
        return self.summary.total_votes + self.summary.rejected_votes

    def per_1000_votes(self, counter: str) -> float:
        votes = max(1, self.votes_processed)
        return self.counters.get(counter, 0) * 1000.0 / votes


def _finish(
    system: str,
    app: VoterSStoreApp | VoterHStoreApp,
    started: float,
    before: dict[str, int],
    model: LatencyModel,
) -> VoterRunResult:
    wall = time.perf_counter() - started
    delta = app.engine.stats.delta(before)
    cost = model.cost_of(delta)
    tps = cost.throughput(delta.get("txns_committed", 0))
    return VoterRunResult(
        system=system,
        summary=app.summary(),
        wall_seconds=wall,
        counters=delta,
        simulated_tps=tps,
        app=app,
    )


def run_voter_sstore(
    requests: list[VoteRequest],
    *,
    num_contestants: int,
    batch_size: int = 1,
    ingest_chunk: int = 1,
    model: LatencyModel | None = None,
) -> VoterRunResult:
    model = model or LatencyModel()
    engine = SStoreEngine()
    app = VoterSStoreApp(
        engine, num_contestants=num_contestants, batch_size=batch_size
    )
    before = app.engine.stats.snapshot()
    started = time.perf_counter()
    app.submit(requests, ingest_chunk=ingest_chunk)
    return _finish("s-store", app, started, before, model)


def run_voter_dstream(
    requests: list[VoteRequest],
    *,
    num_contestants: int,
    batch_size: int = 1,
    ingest_chunk: int = 1,
    workers: int = 2,
    model: LatencyModel | None = None,
    shutdown: bool = True,
) -> VoterRunResult:
    """The same voter workflow, scheduled on a DStreamEngine cluster.

    With ``shutdown=False`` the worker processes stay alive so the caller
    can inspect cluster state (differential report, schedule histories) —
    the caller then owns ``result.app.engine.shutdown()``.
    """
    from repro.dstream import DStreamEngine

    model = model or LatencyModel()
    engine = DStreamEngine(workers)
    try:
        app = VoterSStoreApp(
            engine, num_contestants=num_contestants, batch_size=batch_size
        )
        before = app.engine.stats.snapshot()
        started = time.perf_counter()
        app.submit(requests, ingest_chunk=ingest_chunk)
        return _finish(f"dstream-{workers}w", app, started, before, model)
    finally:
        if shutdown:
            engine.shutdown()


def run_voter_hstore_sequential(
    requests: list[VoteRequest],
    *,
    num_contestants: int,
    model: LatencyModel | None = None,
) -> VoterRunResult:
    model = model or LatencyModel()
    app = VoterHStoreApp(num_contestants=num_contestants)
    before = app.engine.stats.snapshot()
    started = time.perf_counter()
    app.run_sequential(requests)
    return _finish("h-store", app, started, before, model)


def run_voter_hstore_interleaved(
    requests: list[VoteRequest],
    *,
    num_contestants: int,
    clients: int = 8,
    seed: int = 1,
    model: LatencyModel | None = None,
) -> VoterRunResult:
    model = model or LatencyModel()
    app = VoterHStoreApp(num_contestants=num_contestants)
    before = app.engine.stats.snapshot()
    started = time.perf_counter()
    app.run_interleaved(requests, clients=clients, seed=seed)
    return _finish("h-store-interleaved", app, started, before, model)


@dataclass(frozen=True)
class AnomalyReport:
    """How far an execution diverged from the reference outcome."""

    wrong_removals: int
    removal_count_delta: int
    vote_count_divergence: int
    total_votes_delta: int
    false_winner: bool

    @property
    def any_anomaly(self) -> bool:
        return (
            self.wrong_removals > 0
            or self.removal_count_delta != 0
            or self.vote_count_divergence > 0
            or self.total_votes_delta != 0
            or self.false_winner
        )


def compare_summaries(
    reference: ElectionSummary, observed: ElectionSummary
) -> AnomalyReport:
    """Quantify the anomalies of ``observed`` relative to ``reference``."""
    ref_removals = reference.removal_order()
    obs_removals = observed.removal_order()
    wrong = sum(
        1
        for ref, obs in zip(ref_removals, obs_removals)
        if ref != obs
    )
    ref_counts = dict(reference.counts)
    obs_counts = dict(observed.counts)
    divergence = sum(
        abs(ref_counts.get(key, 0) - obs_counts.get(key, 0))
        for key in set(ref_counts) | set(obs_counts)
    )
    return AnomalyReport(
        wrong_removals=wrong,
        removal_count_delta=len(obs_removals) - len(ref_removals),
        vote_count_divergence=divergence,
        total_votes_delta=observed.total_votes - reference.total_votes,
        false_winner=(
            reference.winner is not None and observed.winner != reference.winner
        ),
    )


def percentiles(
    samples: list[float], points: tuple[float, ...] = (50.0, 90.0, 99.0)
) -> dict[str, float]:
    """Nearest-rank percentiles keyed ``"p50"``/``"p90"``/... (empty-safe)."""
    if not samples:
        return {f"p{point:g}": 0.0 for point in points}
    ordered = sorted(samples)
    out: dict[str, float] = {}
    for point in points:
        rank = max(0, min(len(ordered) - 1, round(point / 100.0 * len(ordered)) - 1))
        out[f"p{point:g}"] = ordered[rank]
    return out


def write_bench_json(
    name: str,
    payload: dict[str, Any],
    *,
    results_dir: str | pathlib.Path | None = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` next to the text reports.

    ``payload`` is augmented with the experiment name; everything must be
    JSON-serializable (floats, ints, strings, lists, dicts).  The default
    directory is ``benchmarks/_results/`` relative to the repo root, the
    same place ``benchmarks/conftest.py`` drops text reports.
    """
    if results_dir is None:
        results_dir = pathlib.Path(__file__).resolve().parents[3] / (
            "benchmarks/_results"
        )
    directory = pathlib.Path(results_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps({"experiment": name, **payload}, indent=2) + "\n")
    return path


def format_table(headers: list[str], rows: list[list[Any]]) -> str:
    """Simple fixed-width table for benchmark reports."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered)) if rendered
        else len(headers[i])
        for i in range(len(headers))
    ]
    def line(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    out = [line(headers), line(["-" * width for width in widths])]
    out.extend(line(row) for row in rendered)
    return "\n".join(out)
