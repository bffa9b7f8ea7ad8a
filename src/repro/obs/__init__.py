"""Observability: structured tracing, metrics, profiling, sweep telemetry.

The simulator's measurement substrate (see ``docs/observability.md``):

* :mod:`repro.obs.tracer` — ring-buffered :class:`Tracer` with typed
  spans/instants/counters, and the zero-cost :data:`NULL_TRACER` every
  machine runs with by default;
* :mod:`repro.obs.metrics` — counters, gauges, and log2-bucketed
  histograms surfaced under ``SimStats.to_dict()["metrics"]``;
* :mod:`repro.obs.registry` — the central event/metric name registry
  (enforced at runtime and by the ``undeclared-obs-name`` lint rule);
* :mod:`repro.obs.export` — JSONL and Chrome ``trace_event``
  (Perfetto-loadable) trace exporters and loaders;
* :mod:`repro.obs.profiler` — wall-time sim-phase profiler;
* :mod:`repro.obs.aggregate` — cross-worker sweep telemetry: per-point
  capture in workers, exact parent-side merge, one Perfetto trace with
  worker ``pid`` lanes;
* :mod:`repro.obs.causal` — per-transaction causal chains and phase
  latency decomposition reconstructed from any trace;
* :mod:`repro.obs.cli` — ``repro obs trace`` / ``summarize`` / ``diff``
  / ``critical-path``.
"""

from repro.obs.aggregate import (
    AGGREGATE_SCHEMA,
    PointTelemetry,
    SweepAggregator,
    merge_metrics_dict,
)
from repro.obs.causal import (
    ChainSet,
    TxnChain,
    reconstruct,
    verify_chain_sums,
)
from repro.obs.export import (
    export_trace,
    is_gzipped,
    read_chrome_trace,
    read_jsonl,
    read_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Log2Histogram,
    MetricsRegistry,
    histogram_delta,
    load_metrics_dict,
)
from repro.obs.profiler import PhaseProfiler, profile_run
from repro.obs.registry import (
    EVENTS,
    METRICS,
    METRICS_SCHEMA,
    TRACE_SCHEMA,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, TraceEvent, Tracer

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "Counter",
    "Gauge",
    "Log2Histogram",
    "MetricsRegistry",
    "histogram_delta",
    "load_metrics_dict",
    "PhaseProfiler",
    "profile_run",
    "EVENTS",
    "METRICS",
    "METRICS_SCHEMA",
    "TRACE_SCHEMA",
    "export_trace",
    "read_trace",
    "read_jsonl",
    "read_chrome_trace",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "is_gzipped",
    "AGGREGATE_SCHEMA",
    "PointTelemetry",
    "SweepAggregator",
    "merge_metrics_dict",
    "ChainSet",
    "TxnChain",
    "reconstruct",
    "verify_chain_sums",
]
