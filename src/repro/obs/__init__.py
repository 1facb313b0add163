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

plus :mod:`repro.obs.chrome` (Perfetto/Chrome-trace export),
:mod:`repro.obs.runner` (cache-bypassing traced simulation, the engine
behind ``nachos-repro trace``), and the perf observatory —
:mod:`repro.obs.perf` (append-only NDJSON run ledger),
:mod:`repro.obs.regress` (budget-driven regression gates), and
:mod:`repro.obs.report` (the perf-history dashboard) behind
``nachos-repro perf record|check|report|ls``.
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
from repro.obs.perf import (
    LEDGER_SCHEMA,
    PerfLedger,
    PerfRecord,
    capture_context,
    default_ledger_path,
    record_from_bench,
    record_from_coverage,
    record_from_fuzz,
    record_from_profile,
    record_from_registries,
    record_from_serve,
    record_from_stage5,
)
from repro.obs.regress import (
    Budget,
    Verdict,
    check_ledger,
    load_budgets,
    render_verdicts,
)
from repro.obs.report import render_html, render_markdown
from repro.obs.runner import TracedRun, resolve_workload, traced_run
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    backend_counts,
)

__all__ = [
    "Budget",
    "Counter",
    "Gauge",
    "Histogram",
    "LEDGER_SCHEMA",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PerfLedger",
    "PerfRecord",
    "SweepProfile",
    "TraceEvent",
    "TracedRun",
    "Tracer",
    "Verdict",
    "backend_counts",
    "capture_context",
    "check_ledger",
    "chrome_trace",
    "default_ledger_path",
    "disable_profiling",
    "enable_profiling",
    "get_profile",
    "load_budgets",
    "metrics_from_cache",
    "metrics_from_profile",
    "metrics_from_run",
    "order_wait_latencies",
    "profiling_enabled",
    "record_from_bench",
    "record_from_coverage",
    "record_from_fuzz",
    "record_from_profile",
    "record_from_registries",
    "record_from_serve",
    "record_from_stage5",
    "render_html",
    "render_markdown",
    "render_verdicts",
    "reset_profile",
    "resolve_workload",
    "traced_run",
    "write_chrome_trace",
]
