"""The hot-key sketch behind a cluster's partition-skew view.

Every :class:`~repro.parallel.worker.PartitionWorker` running with metrics
on offers each op's routing keys to a :class:`SpaceSaving` sketch kept
next to its engine shard, and times the op into a ``partition.op_us``
histogram.  Nothing rides on ordinary replies: the coordinator pulls a
worker's ``EngineStats``, sketch and histogram in one ``OP_STATS`` round
trip when it exports its registry or builds
:meth:`~repro.parallel.engine.ParallelHStoreEngine.partition_skew` — the
signal the ROADMAP's elastic-repartitioning item triggers on.

The hot-key detector is the classic Space-Saving sketch (Metwally,
Agrawal, El Abbadi 2005): ``k`` counters (16 per worker), O(1) memory,
with two hard guarantees the property tests pin down (``N`` = total
offered weight):

* every estimate **overcounts**: ``true ≤ estimate ≤ true + error`` where
  ``error`` is tracked per counter and bounded by ``N / k``;
* any key with true frequency ``> N / k`` is **guaranteed present** —
  a genuinely hot key cannot be evicted by cold ones.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["SpaceSaving"]


class SpaceSaving:
    """Bounded top-K frequency sketch with per-key error bounds.

    ``offer`` is O(1) amortized on hits and O(capacity) on an eviction
    (a min-scan over at most ``capacity`` counters — ``capacity`` is small,
    16 by default, so the scan is cheaper than a heap's bookkeeping).
    """

    __slots__ = ("capacity", "total", "_counts", "_errors")

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("SpaceSaving capacity must be >= 1")
        self.capacity = capacity
        #: total offered weight N (including weight on evicted keys)
        self.total = 0
        self._counts: dict[Any, int] = {}
        self._errors: dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def offer(self, key: Any, weight: int = 1) -> None:
        """Account ``weight`` occurrences of ``key``."""
        self.total += weight
        counts = self._counts
        if key in counts:
            counts[key] += weight
            return
        if len(counts) < self.capacity:
            counts[key] = weight
            self._errors[key] = 0
            return
        # evict the minimum counter; the newcomer inherits its count as its
        # error bound (it may have occurred up to min_count times unseen)
        victim = min(counts, key=counts.__getitem__)
        floor = counts.pop(victim)
        del self._errors[victim]
        counts[key] = floor + weight
        self._errors[key] = floor

    def top(self, k: int | None = None) -> list[tuple[Any, int, int]]:
        """``(key, estimate, error)`` triples, highest estimate first.

        ``true_count`` is bracketed by ``estimate - error <= true <=
        estimate``; keys with ``estimate - error > threshold`` are
        *guaranteed* above ``threshold``.
        """
        ranked = sorted(
            ((key, count, self._errors[key]) for key, count in self._counts.items()),
            key=lambda item: (-item[1], str(item[0])),
        )
        return ranked if k is None else ranked[:k]

    @property
    def error_bound(self) -> float:
        """Worst-case overcount of any estimate: ``N / capacity``."""
        return self.total / self.capacity

    def merge(self, other: "SpaceSaving") -> "SpaceSaving":
        """Fold another sketch in; estimates and error bounds both add.

        Every merged estimate still brackets the combined true count
        (``est - err <= true <= est``).  A key one side does not track may
        still have occurred there up to that side's minimum counter (zero
        if the side is not full, since it then tracks everything it saw),
        so it takes that floor as both count and error — the same
        inheritance :meth:`offer` applies on eviction.  The top
        ``capacity`` combined counters are kept.
        """
        mine, theirs = self._floor(), other._floor()
        merged = []
        for key in self._counts.keys() | other._counts.keys():
            count = self._counts.get(key, mine) + other._counts.get(key, theirs)
            error = self._errors.get(key, mine) + other._errors.get(key, theirs)
            merged.append((key, count, error))
        merged.sort(key=lambda item: (-item[1], str(item[0])))
        del merged[self.capacity :]
        self._counts = {key: count for key, count, _error in merged}
        self._errors = {key: error for key, _count, error in merged}
        self.total += other.total
        return self

    def _floor(self) -> int:
        """Upper bound on the true count of any key this sketch does not track."""
        if len(self._counts) < self.capacity:
            return 0
        return min(self._counts.values())

    # -- plain form ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "total": self.total,
            "top": [[str(key), count, error] for key, count, error in self.top()],
            "error_bound": self.error_bound,
        }

    @classmethod
    def from_state(
        cls, capacity: int, total: int, entries: Iterable[tuple[Any, int, int]]
    ) -> "SpaceSaving":
        sketch = cls(capacity)
        sketch.total = total
        for key, count, error in entries:
            sketch._counts[key] = count
            sketch._errors[key] = error
        return sketch

