"""``repro.obs`` — end-to-end tracing, metrics and the demo dashboard.

The S-Store paper is a demo paper: its claims are shown on live dashboards
and argued via layer-crossing counts.  This package is the measurement
substrate that makes those arguments inspectable per event:

* :mod:`repro.obs.trace` — nestable spans with trace ids that survive the
  coordinator↔worker pipe hop, collected in a bounded ring buffer, exported
  as JSONL or Chrome ``trace_event`` JSON (opens in Perfetto);
* :mod:`repro.obs.metrics` — latency histograms with Prometheus text
  exposition and JSON snapshots, reading the ``EngineStats`` round-trip
  counters (and every other kept count) from their owners at export;
* :mod:`repro.obs.config` — the :class:`ObsConfig` engines take at
  construction (default: off, one branch per hot-path site);
* :mod:`repro.obs.telemetry` — the Space-Saving heavy-hitter sketch each
  cluster worker keeps for the coordinator's partition-skew view;
* :mod:`repro.obs.recorder` — the flight recorder: a bounded ring of
  recent requests with span trees and a slow-transaction log, dumped to
  JSONL on error/crash/operator request;
* :mod:`repro.obs.http` — a stdlib HTTP sidecar serving ``/metrics``
  (Prometheus text), ``/healthz`` and friends;
* :mod:`repro.obs.dashboard` — ``python -m repro.obs.dashboard``, a
  stdlib-only live TUI reproducing the paper's demo screens (including a
  ``net`` mode that tails a remote server's ``/metrics`` endpoint).

Quick start::

    from repro.core.engine import SStoreEngine
    from repro.obs import ObsConfig

    engine = SStoreEngine(obs=ObsConfig())
    ...                                     # run a workload
    engine.tracer.collector.export_chrome("trace.json")   # → Perfetto
    print(engine.metrics.to_prometheus())
"""

from repro.obs.config import ObsConfig
from repro.obs.http import HttpError, ObsHttpServer
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.telemetry import SpaceSaving
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceCollector,
    TraceContext,
    Tracer,
    export_chrome_trace,
    export_jsonl,
    now_us,
)

__all__ = [
    "ObsConfig",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HttpError",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ObsHttpServer",
    "Span",
    "SpaceSaving",
    "TraceCollector",
    "TraceContext",
    "Tracer",
    "export_chrome_trace",
    "export_jsonl",
    "now_us",
]
