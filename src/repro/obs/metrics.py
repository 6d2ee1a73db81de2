"""Metrics: latency histograms, and the counts other objects keep, read at export.

Where the tracer answers "where did *this* transaction's time go", the
metrics registry answers "what is the engine doing *right now*" — the
always-on aggregates a dashboard tails and a benchmark snapshots.

Three instrument types, deliberately minimal:

* :class:`Counter` — monotonically increasing (txns by procedure);
* :class:`Gauge` — set-to-current-value (queue depth, open connections);
* :class:`Histogram` — fixed log-spaced microsecond buckets with
  nearest-rank percentile estimation (p50/p95/p99 transaction latency).
  Fixed buckets keep ``observe`` O(log buckets) with zero allocation.

Each count lives once.  The registry stores only what has no other home —
latency histograms and the per-procedure breakdowns taken with them.  A
count or level some object already keeps (``EngineStats``, a server's
``counters`` dict, a cluster's per-worker stats, a stream's watermark lag)
is never copied in: its owner registers a reader with
:meth:`MetricsRegistry.read`, and every export calls the readers for
fresh ``(name, labels, instrument)`` rows (:func:`reading`,
:func:`counter_rows`).

Two export formats:

* :meth:`MetricsRegistry.to_prometheus` — the text exposition format, so
  the output pastes into any Prometheus/Grafana tooling;
* :meth:`MetricsRegistry.to_json` — a nested snapshot the TUI dashboard
  and tests consume directly.
"""

from __future__ import annotations

import bisect
import json
import pathlib
from typing import Any, Callable, Iterable, Mapping, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_US",
    "counter_rows",
    "reading",
]

#: log-spaced bucket upper bounds in microseconds: 1us .. ~100s
DEFAULT_LATENCY_BUCKETS_US: tuple[float, ...] = tuple(
    round(base * scale, 3)
    for scale in (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000)
    for base in (1.0, 2.5, 5.0)
) + (100_000_000.0,)


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    body = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "", value: float = 0) -> None:
        self.name = name
        self.help = help
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """A value that goes up and down."""

    __slots__ = ("name", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "", value: float = 0) -> None:
        self.name = name
        self.help = help
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with nearest-rank percentile estimation.

    ``observe`` is a binary search plus two adds — no allocation, no
    sorting, bounded memory — so the transaction hot path can afford it.
    Percentiles interpolate within the winning bucket, clamped to the
    observed max so a sparse histogram does not report a bound far beyond
    anything seen.
    """

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "sum", "max")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_US,
    ) -> None:
        self.name = name
        self.help = help
        self.bounds: tuple[float, ...] = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        # one extra overflow bucket for values above the last bound
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile estimate from the bucket counts."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(round(pct / 100.0 * self.count)))
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= rank:
                upper = (
                    self.bounds[index] if index < len(self.bounds) else self.max
                )
                return min(upper, self.max)
        return self.max  # pragma: no cover - unreachable

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


Instrument = Union[Counter, Gauge, Histogram]
#: one exported instrument: ``(name, sorted label pairs, instrument)``
Row = tuple[str, tuple[tuple[str, str], ...], Instrument]


def reading(instrument: Instrument, **labels: str) -> Row:
    """The export row for an instrument a reader built or holds."""
    return instrument.name, _label_key(labels), instrument


def counter_rows(
    prefix: str, counts: Mapping[str, int], help: str = "", **labels: str
) -> list[Row]:
    """One ``<prefix>.<name>`` counter row per entry of a flat count dict."""
    key = _label_key(labels)
    return [
        (f"{prefix}.{name}", key, Counter(f"{prefix}.{name}", help, value))
        for name, value in counts.items()
    ]


class MetricsRegistry:
    """A named family of counters, gauges and histograms with labels.

    Instruments are identified by ``(name, sorted(labels))``; asking for
    the same identity returns the same instrument, so call sites never
    need to cache handles (though hot paths should, to skip the dict
    lookup).  Values kept elsewhere are exported through :meth:`read`.
    """

    def __init__(self, *, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._instruments: dict[
            tuple[str, tuple[tuple[str, str], ...]], Instrument
        ] = {}
        self._helps: dict[str, str] = {}
        self._readers: list[Callable[[], Iterable[Row]]] = []

    # -- instrument access -------------------------------------------------

    def _get(
        self,
        cls: type,
        name: str,
        help: str,
        labels: Mapping[str, str],
        **kwargs: Any,
    ) -> Any:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, help, **kwargs)
            self._instruments[key] = instrument
            if help:
                self._helps.setdefault(name, help)
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).kind}, requested {cls.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_US,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def read(self, reader: Callable[[], Iterable[Row]]) -> None:
        """Export values another object keeps: every export calls
        ``reader()`` and includes the rows it returns.  A row whose identity
        an earlier reader (or a stored instrument) also produced replaces it."""
        self._readers.append(reader)

    # -- export ------------------------------------------------------------

    def instruments(self) -> list[Row]:
        # readers first: one may fold pending samples into stored instruments
        read = [row for reader in self._readers for row in reader()]
        rows = dict(self._instruments)
        for name, key, instrument in read:
            rows[name, key] = instrument
        return sorted(
            ((name, key, inst) for (name, key), inst in rows.items()),
            key=lambda item: (item[0], item[1]),
        )

    def to_json(self) -> dict[str, Any]:
        """Nested snapshot: metric name → [{labels, ...values}]."""
        out: dict[str, Any] = {}
        for name, key, instrument in self.instruments():
            entry: dict[str, Any] = {"labels": dict(key)}
            if isinstance(instrument, Histogram):
                entry.update(instrument.summary())
            else:
                entry["value"] = instrument.value
                entry["kind"] = instrument.kind
            out.setdefault(name, []).append(entry)
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        seen_header: set[str] = set()
        for name, key, instrument in self.instruments():
            full = f"{self.namespace}_{name}"
            if name not in seen_header:
                seen_header.add(name)
                help_text = self._helps.get(name) or instrument.help
                if help_text:
                    lines.append(f"# HELP {full} {help_text}")
                lines.append(f"# TYPE {full} {instrument.kind}")
            if isinstance(instrument, Histogram):
                cumulative = 0
                for bound, bucket_count in zip(
                    instrument.bounds, instrument.bucket_counts
                ):
                    cumulative += bucket_count
                    labels = _render_labels(key + (("le", f"{bound:g}"),))
                    lines.append(f"{full}_bucket{labels} {cumulative}")
                labels = _render_labels(key + (("le", "+Inf"),))
                lines.append(f"{full}_bucket{labels} {instrument.count}")
                lines.append(f"{full}_sum{_render_labels(key)} {instrument.sum:g}")
                lines.append(f"{full}_count{_render_labels(key)} {instrument.count}")
            else:
                lines.append(
                    f"{full}{_render_labels(key)} {instrument.value:g}"
                )
        return "\n".join(lines) + "\n"

    def write_json(self, path: str | pathlib.Path) -> pathlib.Path:
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return target
