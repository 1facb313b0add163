"""Counters, gauges, and histograms for simulation and sweep telemetry.

A :class:`MetricsRegistry` is a flat, JSON-serializable namespace of
metrics.  Builders populate it from the three telemetry sources:

* :func:`metrics_from_run` — one simulation: cycles per invocation,
  backend counters and derived rates, L1 hits/misses, and (when a
  tracer rode along) the order-wait latency distribution and the LSQ
  occupancy histogram;
* :func:`metrics_from_cache` — the content-addressed result cache's
  hit/miss counters (:mod:`repro.runtime.cache`);
* :func:`metrics_from_profile` — the sweep profiler's per-task wall
  times and per-worker utilization (:mod:`repro.obs.profile`).

``nachos-repro <figure> --metrics out.json`` dumps the registry after a
sweep; ``registry.write_json(path)`` is the programmatic equivalent.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

from repro.obs.tracer import LSQ_DEQUEUE, LSQ_ENQUEUE, ORDER_WAIT, Tracer


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_json(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time numeric value (rates, fractions, utilizations)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_json(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Raw-sample histogram with summary statistics on export."""

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    def observe_many(self, values) -> None:
        self.values.extend(values)

    @property
    def count(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100].

        An empty histogram reports 0.0 for every quantile (so summary
        pipelines never special-case it); a ``q`` outside [0, 100] is a
        caller bug and raises rather than silently clamping.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
        return float(ordered[rank])

    def summary(self) -> dict:
        if not self.values:
            return {"count": 0}
        return {
            "count": len(self.values),
            "min": float(min(self.values)),
            "max": float(max(self.values)),
            "mean": sum(self.values) / len(self.values),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def to_json(self) -> dict:
        return {"type": "histogram", **self.summary()}


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named collection of metrics with one-call JSON export."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, cls) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other*'s metrics into this registry, in place.

        Same-named counters **sum**, gauges take *other*'s (newer)
        value, and histograms pool their raw samples — the semantics
        the serve daemon's metrics snapshot relies on when combining
        its live registry with the batcher and cache views.  A name
        registered with different metric kinds in the two registries is
        a caller bug and raises ``TypeError``.
        """
        for name, metric in other._metrics.items():
            if isinstance(metric, Counter):
                self.counter(name).inc(metric.value)
            elif isinstance(metric, Gauge):
                self.gauge(name).set(metric.value)
            elif isinstance(metric, Histogram):
                self.histogram(name).observe_many(metric.values)
        return self

    def as_dict(self) -> dict:
        return {name: self._metrics[name].to_json() for name in self.names()}

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def metrics_from_run(
    result,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    prefix: str = "sim",
) -> MetricsRegistry:
    """Fold one :class:`~repro.sim.result.SimResult` into a registry."""
    reg = registry if registry is not None else MetricsRegistry()
    reg.counter(f"{prefix}.cycles").inc(result.cycles)
    reg.counter(f"{prefix}.invocations").inc(result.invocations)
    reg.counter(f"{prefix}.l1_hits").inc(result.l1_hits)
    reg.counter(f"{prefix}.l1_misses").inc(result.l1_misses)
    reg.histogram(f"{prefix}.cycles_per_invocation").observe_many(
        result.per_invocation_cycles
    )
    for name, value in result.backend_stats.as_dict().items():
        if isinstance(value, float):
            reg.gauge(f"{prefix}.backend.{name}").set(value)
        else:
            reg.counter(f"{prefix}.backend.{name}").inc(value)

    if tracer is not None:
        waits = reg.histogram(f"{prefix}.order_wait_latency")
        occupancy = reg.histogram(f"{prefix}.lsq_occupancy")
        for e in tracer.events:
            if e.kind == ORDER_WAIT:
                waits.observe(e.dur)
            elif e.kind in (LSQ_ENQUEUE, LSQ_DEQUEUE) and e.args:
                occupancy.observe(e.args.get("occupancy", 0))
    return reg


def metrics_from_cache(
    registry: Optional[MetricsRegistry] = None, prefix: str = "cache"
) -> MetricsRegistry:
    """Fold the process-wide result cache's counters into a registry."""
    from repro.runtime.cache import get_cache

    reg = registry if registry is not None else MetricsRegistry()
    cache = get_cache()
    reg.counter(f"{prefix}.hits").inc(cache.hits)
    reg.counter(f"{prefix}.misses").inc(cache.misses)
    total = cache.hits + cache.misses
    reg.gauge(f"{prefix}.hit_rate").set(cache.hits / total if total else 0.0)
    return reg


def metrics_from_profile(
    profile, registry: Optional[MetricsRegistry] = None, prefix: str = "sweep"
) -> MetricsRegistry:
    """Fold a :class:`~repro.obs.profile.SweepProfile` into a registry."""
    reg = registry if registry is not None else MetricsRegistry()
    task_hist = reg.histogram(f"{prefix}.task_seconds")
    for rec in profile.tasks:
        task_hist.observe(rec.seconds)
    reg.counter(f"{prefix}.tasks").inc(len(profile.tasks))
    reg.counter(f"{prefix}.cache_hits").inc(sum(r.hits for r in profile.tasks))
    reg.counter(f"{prefix}.cache_misses").inc(sum(r.misses for r in profile.tasks))
    worker_hist = reg.histogram(f"{prefix}.worker_busy_seconds")
    for _, busy in sorted(profile.per_worker().items()):
        worker_hist.observe(busy)
    reg.gauge(f"{prefix}.workers").set(len(profile.per_worker()))
    reg.gauge(f"{prefix}.wall_seconds").set(profile.wall_seconds)
    reg.gauge(f"{prefix}.supervisor_cpu_seconds").set(
        profile.supervisor_cpu_seconds
    )
    reg.gauge(f"{prefix}.utilization").set(profile.utilization())
    # Supervision telemetry: failed attempts by kind, bounded-retry and
    # terminal-failure totals.
    counts = profile.fault_counts()
    reg.counter(f"{prefix}.worker_crashes").inc(counts.get("crash", 0))
    reg.counter(f"{prefix}.timeouts").inc(counts.get("timeout", 0))
    reg.counter(f"{prefix}.corrupt_results").inc(counts.get("corrupt", 0))
    reg.counter(f"{prefix}.task_errors").inc(counts.get("error", 0))
    reg.counter(f"{prefix}.retries").inc(profile.retries)
    reg.counter(f"{prefix}.failures").inc(len(profile.failures))
    return reg
