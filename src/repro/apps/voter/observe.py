"""Shared election observation helpers (used by both deployments).

Both the S-Store and the naive H-Store deployment expose the same observable
state (tables are identical), so correctness comparisons (experiments E1/E2)
diff the :class:`ElectionSummary` of each side against a sequential
reference execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.hstore.engine import HStoreEngine

__all__ = [
    "AnomalyReport",
    "ElectionSummary",
    "compare_summaries",
    "election_summary",
    "leaderboards",
]


@dataclass(frozen=True)
class ElectionSummary:
    """Observable election outcome (used for correctness comparisons)."""

    total_votes: int
    rejected_votes: int
    eliminations: int
    remaining: tuple[int, ...]
    #: contestant → current vote count
    counts: tuple[tuple[int, int], ...]
    #: elimination audit: (seq, contestant, at_total)
    removals: tuple[tuple[int, int, int], ...]
    winner: int | None

    def removal_order(self) -> tuple[int, ...]:
        return tuple(contestant for _seq, contestant, _total in self.removals)


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


def election_summary(engine: HStoreEngine) -> ElectionSummary:
    """Read the full observable election state from either deployment."""
    stats_row = engine.execute_sql(
        "SELECT total_votes, rejected_votes, eliminations "
        "FROM election_stats WHERE stat_id = 0"
    ).first()
    assert stats_row is not None
    remaining = tuple(
        int(value)
        for value in engine.execute_sql(
            "SELECT contestant_number FROM contestants ORDER BY contestant_number"
        ).column("contestant_number")
    )
    counts = tuple(
        (int(number), int(votes))
        for number, votes in engine.execute_sql(
            "SELECT contestant_number, num_votes FROM contestant_votes "
            "ORDER BY contestant_number"
        ).rows
    )
    removals = tuple(
        (int(seq), int(number), int(total))
        for seq, number, total, _discarded in engine.execute_sql(
            "SELECT * FROM removals ORDER BY removal_seq"
        ).rows
    )
    winner = remaining[0] if len(remaining) == 1 else None
    return ElectionSummary(
        total_votes=int(stats_row[0]),
        rejected_votes=int(stats_row[1]),
        eliminations=int(stats_row[2]),
        remaining=remaining,
        counts=counts,
        removals=removals,
        winner=winner,
    )


def leaderboards(engine: HStoreEngine) -> dict[str, list[tuple[Any, ...]]]:
    """The three Fig-2 leaderboards: top three, bottom three, trending."""
    top = engine.execute_sql(
        "SELECT cv.contestant_number, c.contestant_name, cv.num_votes "
        "FROM contestant_votes cv JOIN contestants c "
        "ON cv.contestant_number = c.contestant_number "
        "ORDER BY cv.num_votes DESC, cv.contestant_number ASC LIMIT 3"
    ).rows
    bottom = engine.execute_sql(
        "SELECT cv.contestant_number, c.contestant_name, cv.num_votes "
        "FROM contestant_votes cv JOIN contestants c "
        "ON cv.contestant_number = c.contestant_number "
        "ORDER BY cv.num_votes ASC, cv.contestant_number ASC LIMIT 3"
    ).rows
    # LEFT JOIN: a trending candidate may have just been eliminated, in
    # which case the name slot renders as NULL rather than dropping the row
    trending = engine.execute_sql(
        "SELECT tb.rank, tb.contestant_number, c.contestant_name, "
        "tb.recent_votes FROM trending_board tb "
        "LEFT JOIN contestants c "
        "ON c.contestant_number = tb.contestant_number "
        "ORDER BY tb.rank"
    ).rows
    return {"top": top, "bottom": bottom, "trending": trending}
