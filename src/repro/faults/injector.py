"""The runtime fault injector the durability/recovery seams call into.

The seams are deliberately thin: each calls ``injector.fire(point, ...)``
with enough context (file handle, payload, path) for the injector to carry
out its action.  When no fault is scheduled for that occurrence, ``fire``
is a counter increment and a list scan — cheap enough to leave the seams
permanently in place.

Crash semantics: an :class:`~repro.errors.InjectedCrash` (or
:class:`~repro.errors.InjectedIOError`) propagating out of an engine call
means the simulated process died.  The in-memory engine object is then
garbage — recovery builds a *fresh* engine and restores from disk, exactly
like a real restart.
"""

from __future__ import annotations

import os
import pathlib
from typing import IO, Any

from repro.errors import InjectedCrash, InjectedIOError, ReproError
from repro.faults.plan import FaultAction, FaultPlan, FaultSpec, stage_of

__all__ = ["FaultInjector"]

#: bytes splatted over a snapshot file by the ``corrupt`` action
_CORRUPTION = b"\x00CORRUPT\x00"


class FaultInjector:
    """Executes a :class:`FaultPlan` against the live durability seams."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._counts: dict[str, int] = {}
        #: labels of faults that actually fired, in order (for reports)
        self.fired_log: list[str] = []

    # ------------------------------------------------------------------

    def occurrences(self, point: str) -> int:
        """How many times ``point`` has been hit so far."""
        return self._counts.get(point, 0)

    def fire(self, point: str, *, stage: str = "pre", **ctx: Any) -> None:
        """Called by a seam; raises if the plan schedules a fault here.

        ``stage`` is "pre" for the occurrence-counting call made before (or
        in place of) the durable write, "post" for the additional call some
        seams make after the write has landed (ack-drop faults live there).
        """
        if stage == "pre":
            self._counts[point] = self._counts.get(point, 0) + 1
        occurrence = self._counts.get(point, 0)
        for spec in self.plan.specs:
            if spec.fired or spec.point != point or spec.at != occurrence:
                continue
            if stage_of(spec.action) != stage:
                continue
            spec.fired = True
            self.fired_log.append(spec.label)
            self._execute(spec, ctx)

    # ------------------------------------------------------------------

    def _execute(self, spec: FaultSpec, ctx: dict[str, Any]) -> None:
        if spec.action == FaultAction.CRASH:
            if spec.point == "snapshot.write":
                # a crash mid-snapshot-write tears the file on disk
                self._truncate_file(ctx["path"])
            raise InjectedCrash(f"injected crash at {spec.label}")

        if spec.action == FaultAction.DROP_ACK:
            raise InjectedCrash(
                f"injected ack drop at {spec.label}: the write is durable "
                f"but the process died before acknowledging it"
            )

        if spec.action == FaultAction.IO_ERROR:
            if spec.point == "snapshot.write":
                # the failed write never landed
                path = pathlib.Path(ctx["path"])
                if path.exists():
                    path.unlink()
            raise InjectedIOError(
                spec.errno_code,
                f"{os.strerror(spec.errno_code)} (injected at {spec.label})",
            )

        if spec.action == FaultAction.TORN_WRITE:
            handle: IO[bytes] = ctx["handle"]
            payload: bytes = ctx["payload"]
            offset = self.plan.rng.randint(1, max(1, len(payload) - 2))
            handle.write(payload[:offset])
            handle.flush()
            raise InjectedCrash(
                f"injected torn write at {spec.label}: "
                f"{offset}/{len(payload)} bytes reached disk"
            )

        if spec.action == FaultAction.CORRUPT:
            self._corrupt_file(ctx["path"])
            return

        raise ReproError(f"unhandled fault action {spec.action!r}")  # pragma: no cover

    def _truncate_file(self, path: str | pathlib.Path) -> None:
        path = pathlib.Path(path)
        data = path.read_bytes()
        if len(data) > 1:
            path.write_bytes(data[: self.plan.rng.randint(1, len(data) - 1)])

    def _corrupt_file(self, path: str | pathlib.Path) -> None:
        path = pathlib.Path(path)
        data = bytearray(path.read_bytes())
        if not data:
            return
        position = self.plan.rng.randrange(len(data))
        data[position : position + len(_CORRUPTION)] = _CORRUPTION
        path.write_bytes(bytes(data))
