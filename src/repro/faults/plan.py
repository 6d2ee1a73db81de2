"""Fault plans: seeded, reproducible schedules of injected failures.

A :class:`FaultPlan` names *where* (injection point), *what* (action) and
*when* (the N-th occurrence of the point) a fault fires.  Every random
choice the plan or its injector ever makes — torn-write byte offsets,
corruption positions, the point/action picked by :meth:`FaultPlan.single_fault`
— comes from one ``random.Random(seed)``, so a failing scenario replays
exactly from its seed.
"""

from __future__ import annotations

import errno
import random
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "INJECTION_POINTS",
    "VALID_ACTIONS",
    "FaultAction",
    "FaultSpec",
    "FaultPlan",
]


class FaultAction:
    """The failure modes the injector knows how to simulate."""

    #: kill the simulated process at the point (before the durable write at
    #: ``log.append``/``log.flush``; mid-write — tearing the file — at
    #: ``snapshot.write``)
    CRASH = "crash"
    #: write only a seeded prefix of the record's bytes, then crash
    #: (``log.append`` only)
    TORN_WRITE = "torn_write"
    #: the durable write succeeds but the process dies before acknowledging
    #: it (``log.flush`` only)
    DROP_ACK = "drop_ack"
    #: raise a simulated ``OSError`` (disk-full / EIO) in place of the write
    IO_ERROR = "io_error"
    #: silently damage the snapshot file's bytes; no exception
    #: (``snapshot.write`` only)
    CORRUPT = "corrupt"


#: the named seams threaded through the durability/recovery stack
INJECTION_POINTS = (
    "log.append",
    "log.flush",
    "snapshot.write",
    "snapshot.fsync",
    "recovery.replay",
)

#: which actions make sense at which point
VALID_ACTIONS: dict[str, frozenset[str]] = {
    "log.append": frozenset(
        {FaultAction.CRASH, FaultAction.TORN_WRITE, FaultAction.IO_ERROR}
    ),
    "log.flush": frozenset(
        {FaultAction.CRASH, FaultAction.DROP_ACK, FaultAction.IO_ERROR}
    ),
    "snapshot.write": frozenset(
        {FaultAction.CRASH, FaultAction.CORRUPT, FaultAction.IO_ERROR}
    ),
    "snapshot.fsync": frozenset({FaultAction.CRASH, FaultAction.IO_ERROR}),
    "recovery.replay": frozenset({FaultAction.CRASH, FaultAction.IO_ERROR}),
}

#: occurrence counting is "pre"; only the post-durable-write ack drop fires
#: on the "post" stage of its point
_POST_STAGE_ACTIONS = frozenset({FaultAction.DROP_ACK})


def stage_of(action: str) -> str:
    return "post" if action in _POST_STAGE_ACTIONS else "pre"


@dataclass
class FaultSpec:
    """One scheduled fault: fire ``action`` on the ``at``-th hit of ``point``."""

    point: str
    action: str
    #: 1-based occurrence of the injection point at which to fire
    at: int = 1
    #: errno for ``io_error`` faults
    errno_code: int = errno.ENOSPC
    #: set once the fault has fired; specs are one-shot
    fired: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ReproError(
                f"unknown injection point {self.point!r}; "
                f"known points: {', '.join(INJECTION_POINTS)}"
            )
        if self.action not in VALID_ACTIONS[self.point]:
            raise ReproError(
                f"action {self.action!r} is not valid at {self.point!r}; "
                f"valid: {', '.join(sorted(VALID_ACTIONS[self.point]))}"
            )
        if self.at < 1:
            raise ReproError("fault occurrence index 'at' is 1-based")

    @property
    def label(self) -> str:
        return f"{self.point}#{self.at}:{self.action}"


class FaultPlan:
    """A reproducible set of :class:`FaultSpec`\\ s plus the seeded RNG.

    Usage::

        plan = FaultPlan(seed=42)
        plan.add("log.flush", FaultAction.CRASH, at=3)
        plan.add("snapshot.write", FaultAction.CORRUPT)
        injector = FaultInjector(plan)
        engine.install_fault_injector(injector)
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.specs: list[FaultSpec] = []

    def add(
        self,
        point: str,
        action: str,
        *,
        at: int = 1,
        errno_code: int = errno.ENOSPC,
    ) -> FaultSpec:
        spec = FaultSpec(point=point, action=action, at=at, errno_code=errno_code)
        self.specs.append(spec)
        return spec

    @property
    def pending(self) -> list[FaultSpec]:
        return [spec for spec in self.specs if not spec.fired]

    @property
    def all_fired(self) -> bool:
        return all(spec.fired for spec in self.specs)

    def describe(self) -> str:
        return ", ".join(spec.label for spec in self.specs) or "<empty plan>"

    # ------------------------------------------------------------------

    @classmethod
    def single_fault(
        cls,
        seed: int,
        *,
        points: tuple[str, ...] = INJECTION_POINTS,
        max_occurrence: int = 12,
    ) -> "FaultPlan":
        """One seeded random fault — the unit of a seed sweep.

        Snapshot-path points fire far less often than log-path points (once
        per checkpoint vs. once per command), so their occurrence bound is
        kept small to guarantee the fault actually triggers inside a short
        workload.
        """
        plan = cls(seed)
        point = plan.rng.choice(list(points))
        action = plan.rng.choice(sorted(VALID_ACTIONS[point]))
        bound = 2 if point.startswith("snapshot.") else max_occurrence
        at = plan.rng.randint(1, bound)
        errno_code = plan.rng.choice([errno.ENOSPC, errno.EIO])
        plan.add(point, action, at=at, errno_code=errno_code)
        if point == "recovery.replay":
            # a replay fault only fires once a recovery is underway; pair it
            # with a crash that forces one
            plan.add(
                "log.flush",
                FaultAction.CRASH,
                at=plan.rng.randint(2, max_occurrence),
            )
        return plan
