"""Input batches: the unit that defines a streaming transaction.

From the paper (§2): *"An S-Store transaction is defined by two things: a
stored procedure definition and a batch of input tuples."*  A border stored
procedure's (BSP) batch is cut from the raw input stream at a user-specified
size; an interior stored procedure's (ISP) batch is whatever appeared on the
output stream of the immediately upstream transaction execution.

Batches carry two identifiers:

``batch_id``
    Globally unique, for bookkeeping.

``origin_batch_id``
    The BSP batch this work descends from.  All TEs processing the same
    origin batch form one pipeline instance; the scheduler orders pending
    TEs by ``(origin_batch_id, workflow depth)`` which yields exactly the
    serializable schedules the paper requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import StreamingError

__all__ = ["Batch", "BatchFactory"]


@dataclass(slots=True)
class Batch:
    """A batch of input tuples bound for one stored procedure (treat as
    immutable: the scheduler, the order digest and replay all share it)."""

    batch_id: int
    origin_batch_id: int
    stream: str
    rows: tuple[tuple[Any, ...], ...]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def __post_init__(self) -> None:
        if not self.rows:
            raise StreamingError("a batch must contain at least one tuple")


class BatchFactory:
    """Allocates batch ids; owned by the streaming engine.

    The counters are part of durable state (they are captured in snapshots)
    so that recovery continues the same numbering.
    """

    def __init__(self) -> None:
        self._next_batch_id = 0
        self._next_origin_id = 0

    def origin_batch(self, stream: str, rows: Iterable[Iterable[Any]]) -> Batch:
        """A new BSP input batch (becomes its own origin)."""
        origin_id = self._next_origin_id
        self._next_origin_id += 1
        return self._batch(origin_id, stream, rows)

    def derived_batch(
        self, origin: Batch, stream: str, rows: Iterable[Iterable[Any]]
    ) -> Batch:
        """An ISP batch descending from ``origin`` (same pipeline instance)."""
        return self._batch(origin.origin_batch_id, stream, rows)

    def _batch(
        self, origin_id: int, stream: str, rows: Iterable[Iterable[Any]]
    ) -> Batch:
        # tuple(row) hands a tuple back as is and copies only a list, so rows
        # ingest and emit already made tuples are checked, not re-copied
        batch = Batch(self._next_batch_id, origin_id, stream, tuple(map(tuple, rows)))
        self._next_batch_id += 1
        return batch

    # -- snapshot support ----------------------------------------------------

    def dump_state(self) -> dict[str, int]:
        return {
            "next_batch_id": self._next_batch_id,
            "next_origin_id": self._next_origin_id,
        }

    def load_state(self, state: dict[str, int]) -> None:
        self._next_batch_id = int(state.get("next_batch_id", 0))
        self._next_origin_id = int(state.get("next_origin_id", 0))
