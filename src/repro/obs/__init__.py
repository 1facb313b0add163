"""Observability: structured tracing and metrics.

Two layers:

* :mod:`repro.obs.tracer` — typed per-cycle event streams from the
  engine and every disambiguation backend (``NULL_TRACER`` is the
  disabled default, zero-overhead when off);
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and histograms built from runs and the result cache;

plus :mod:`repro.obs.chrome` (Perfetto/Chrome-trace export) and
:mod:`repro.obs.runner` (cache-bypassing traced simulation, the engine
behind ``nachos-repro trace``).  Per-task host wall time is not kept
here: ``perfbench/run.py --trace 1`` times every sweep task as a span.
"""

from repro.obs.chrome import chrome_trace, order_wait_latencies, write_chrome_trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_from_cache,
    metrics_from_run,
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
    "TraceEvent",
    "TracedRun",
    "Tracer",
    "backend_counts",
    "chrome_trace",
    "metrics_from_cache",
    "metrics_from_run",
    "order_wait_latencies",
    "resolve_workload",
    "traced_run",
    "write_chrome_trace",
]
