"""Observability: structured tracing, metrics, and sweep profiling.

Three layers, all zero-overhead when off:

* :mod:`repro.obs.tracer` — typed per-cycle event streams from the
  engine and every disambiguation backend (``NULL_TRACER`` is the
  disabled default);
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and histograms built from runs, the result cache, and the
  sweep profiler;
* :mod:`repro.obs.profile` — per-task / per-worker wall-clock telemetry
  for the parallel sweep runtime;

plus :mod:`repro.obs.chrome` (Perfetto/Chrome-trace export) and
:mod:`repro.obs.runner` (cache-bypassing traced simulation, the engine
behind ``nachos-repro trace``).
"""

from repro.obs.chrome import chrome_trace, order_wait_latencies, write_chrome_trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_from_cache,
    metrics_from_profile,
    metrics_from_run,
)
from repro.obs.profile import (
    SweepProfile,
    disable_profiling,
    enable_profiling,
    get_profile,
    profiling_enabled,
    reset_profile,
)
from repro.obs.runner import TracedRun, resolve_workload, traced_run
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    backend_counts,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SweepProfile",
    "TraceEvent",
    "TracedRun",
    "Tracer",
    "backend_counts",
    "chrome_trace",
    "disable_profiling",
    "enable_profiling",
    "get_profile",
    "metrics_from_cache",
    "metrics_from_profile",
    "metrics_from_run",
    "order_wait_latencies",
    "profiling_enabled",
    "reset_profile",
    "resolve_workload",
    "traced_run",
    "write_chrome_trace",
]
