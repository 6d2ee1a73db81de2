"""The load generator: one single-threaded asyncio process.

Two loops over an abstract ``send(index, item)`` coroutine, so the selftest
can drive them against a fake SUT:

* ``closed_loop`` keeps a fixed number of requests in flight; each caller
  sends its next request only after the previous one is acked.
* ``open_loop`` sends on a schedule whether or not acks come back, and times
  every request from the instant it was *due*, so a stall is charged to all
  the requests it delays, not only to the one that hit it.

Neither imports the program under test.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Sequence

Send = Callable[[int, Any], Awaitable[bool]]


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def chunked(samples: Sequence[float], size: int) -> list[Sequence[float]]:
    """Full chunks of ``size``; a short tail joins the last full chunk."""
    count = max(1, len(samples) // size)
    bounds = [i * size for i in range(count)] + [len(samples)]
    return [samples[bounds[i] : bounds[i + 1]] for i in range(count)]


def quiet_quartile(values: Sequence[float], better: str) -> float:
    """The value a quarter of the way in from the quiet end of ``values``.

    The values are one statistic taken chunk by chunk.  What the sandbox's
    co-tenants do to a run only ever adds time, in bursts of seconds, so the
    quiet chunks are the ones that show the program.  A median over chunks
    holds while under half of them are disturbed; this holds up to three
    quarters, and unlike the best chunk it is not one lucky sample.  It does
    not see what the program itself does once in a while (a snapshot stall):
    that is what ``load.p99_ms`` and ``load.max_ms`` are for.
    """
    return percentile(sorted(values), 25 if better == "lower" else 75)


def quiet_percentile(samples: Sequence[float], size: int, q: float) -> float:
    """Quiet quartile over chunks of each chunk's ``q``-th percentile."""
    return quiet_quartile(
        [percentile(sorted(chunk), q) for chunk in chunked(samples, size)], "lower"
    )


def chunk_rates(done_s: Sequence[float], start_s: float, size: int) -> list[float]:
    """Ops per second of each chunk of completions (in completion order)."""
    rates = []
    previous = start_s
    for chunk in chunked(done_s, size):
        rates.append(len(chunk) / (chunk[-1] - previous))
        previous = chunk[-1]
    return rates


@dataclass
class Phase:
    """What one loop measured.  Times are seconds on ``perf_counter``."""

    attempted: int = 0
    failed: int = 0          # exceptions, timeouts, wrong results
    busy: int = 0            # admission-control rejections (not in ``failed``)
    start_s: float = 0.0
    end_s: float = 0.0
    done_s: list[float] = field(default_factory=list)      # ack instants
    latency_ms: list[float] = field(default_factory=list)  # acked requests
    lateness_ms: list[float] = field(default_factory=list)  # open loop only
    backlog_end: int = 0                                    # open loop only

    @property
    def wall_s(self) -> float:
        return self.end_s - self.start_s


async def closed_loop(
    send: Send, items: Sequence[Any], concurrency: int, is_busy=lambda exc: False
) -> Phase:
    phase = Phase(attempted=len(items))
    cursor = iter(enumerate(items))

    async def caller() -> None:
        for index, item in cursor:
            sent = time.perf_counter()
            busy = False
            try:
                ok = await send(index, item)
            except Exception as exc:  # counted, not hidden: see fail_ratio
                ok = False
                busy = is_busy(exc)
            now = time.perf_counter()
            if ok:
                phase.done_s.append(now)
                phase.latency_ms.append((now - sent) * 1e3)
            elif busy:
                phase.busy += 1
            else:
                phase.failed += 1

    phase.start_s = time.perf_counter()
    await asyncio.gather(*(caller() for _ in range(concurrency)))
    phase.end_s = time.perf_counter()
    return phase


async def open_loop(
    send: Send,
    items: Sequence[Any],
    rate: float,
    is_busy=lambda exc: False,
    timeout_s: float = 10.0,
) -> Phase:
    phase = Phase(attempted=len(items))
    inflight: set[asyncio.Task] = set()

    async def one(index: int, item: Any, due: float) -> None:
        busy = False
        try:
            ok = await asyncio.wait_for(send(index, item), timeout_s)
        except Exception as exc:
            ok = False
            busy = is_busy(exc)
        now = time.perf_counter()
        if ok:
            phase.done_s.append(now)
            phase.latency_ms.append((now - due) * 1e3)
        elif busy:
            phase.busy += 1
        else:
            phase.failed += 1

    phase.start_s = start = time.perf_counter()
    for index, item in enumerate(items):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.lateness_ms.append(max(0.0, (time.perf_counter() - due) * 1e3))
        task = asyncio.ensure_future(one(index, item, due))
        inflight.add(task)
        task.add_done_callback(inflight.discard)
    phase.backlog_end = len(inflight)
    if inflight:
        await asyncio.gather(*inflight)
    phase.end_s = time.perf_counter()
    return phase
