"""Turn a workload's passes and spans into end-to-end and per-layer metrics."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from perfbench.stats import (
    MIN_BEYOND,
    median,
    percentile,
    samples_beyond,
    self_times,
    union_length,
)
from perfbench.workloads import SYSTEMS

#: (name, unit) of every end-to-end metric, reported on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
)

#: Span name -> per-layer time metric (the spans' summed self time).
SPAN_TIMES = {
    "compiler.stage1": "compiler.stage1_s",
    "compiler.stage2": "compiler.stage2_s",
    "compiler.stage4": "compiler.stage4_s",
    "compiler.stage5": "compiler.stage5_s",
    "compiler.stage3": "compiler.stage3_s",
    "compiler.mde": "compiler.mde_s",
    "compiler.coverage": "compiler.coverage_s",
    "cgra.place": "cgra.place_s",
    "sim.golden": "sim.golden_s",
    "runtime.cache_get": "runtime.cache_get_s",
    "runtime.cache_put": "runtime.cache_put_s",
    "runtime.run_tasks": "runtime.executor_self_s",
}

#: Span attribute -> per-layer count metric, per span name.
SPAN_COUNTS = {
    "compiler.pipeline": {
        "pairs": "compiler.pairs",
        "may_mdes": "compiler.may_mdes",
        "must_mdes": "compiler.must_mdes",
        "stage5_resolved": "compiler.stage5_resolved",
    },
    "sim.run": {
        "cycles": "sim.cycles",
        "comparator_checks": "sim.comparator_checks",
        "cam_checks": "sim.cam_checks",
        "order_waits": "sim.order_waits",
        "bloom_hits": "sim.bloom_hits",
        "bloom_probes": "sim.bloom_probes",
        "l1_hits": "memory.l1_hits",
        "l1_misses": "memory.l1_misses",
        "l2_hits": "memory.l2_hits",
        "l2_misses": "memory.l2_misses",
        "energy_events": "energy.events",
    },
    "runtime.run_tasks": {"retries": "runtime.retries"},
}

#: Pass note -> per-layer metric (values measured without spans).
NOTES = {
    "cache_hits": "runtime.cache_hits",
    "cache_misses": "runtime.cache_misses",
    "retries": "runtime.retries",
    "disk_hit_share": "share.disk_hits",
    "may_pair_share": "share.may_pairs",
    "fresh_share": "share.fresh",
    "read_share": "share.read_through",
    "dedup_share": "share.dedup",
    "batch_size_mean": "serve.batch_size_mean",
    "tasks_submitted": "serve.tasks_submitted",
}

#: (name, unit) of every per-layer metric, reported on every workload;
#: a layer a workload bypasses reads 0.
PER_LAYER = (
    ("workloads.build_s", "s"),
    *((name, "s") for name in SPAN_TIMES.values()),
    *((f"sim.run_s.{s}", "s") for s in SYSTEMS),
    ("sim.host_ns_per_op", "ns/op"),
    *((name, "count") for group in SPAN_COUNTS.values() for name in group.values()),
    ("runtime.cache_hits", "count"),
    ("runtime.cache_misses", "count"),
    ("serve.batch_size_mean", "tasks"),
    ("serve.tasks_submitted", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.read_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("share.disk_hits", "frac"),
    ("share.may_pairs", "frac"),
    ("share.fresh", "frac"),
    ("share.read_through", "frac"),
    ("share.dedup", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.residual_s", "s"),
)

#: Per-layer metrics that are counts of work, checked for exact repeats.
COUNT_METRICS = frozenset(name for name, unit in PER_LAYER if unit == "count")


@dataclass
class Session:
    """One set-up plus measured window of a workload."""

    #: Set-up seconds at the reference host speed (see perfbench/speed.py).
    setup_s: float
    passes: list
    #: Set-up seconds as measured.
    setup_raw: float = 0.0
    spans: List[dict] = field(default_factory=list)
    tail_q: float = 99.0
    #: How many times set-up built the workload's inputs.
    setup_builds: int = 1

    @property
    def latencies(self) -> List[float]:
        """Item latencies, scaled to the reference host speed where the
        pass was probed (see perfbench/speed.py)."""
        return [x * p.scale for p in self.passes for x in p.latencies]

    @property
    def items(self) -> int:
        return sum(_items(p) for p in self.passes)

    @property
    def wall(self) -> float:
        """Measured seconds, scaled like ``latencies``."""
        return sum(p.scaled_wall for p in self.passes)


def _items(p) -> int:
    return int(p.notes.get("items", len(p.latencies)))


def tail(values: List[float], q: float) -> Tuple[float, str]:
    """The *q*-th percentile, or the maximum when fewer than
    ``MIN_BEYOND`` samples lie beyond it; with a description."""
    n = len(values)
    if samples_beyond(n, q) >= MIN_BEYOND:
        return percentile(values, q), f"p{q:g} of {n} ({samples_beyond(n, q)} beyond)"
    return max(values), f"max of {n} (too few samples for p{q:g})"


def end_to_end(session: Session, rss_mb: float) -> Dict[str, float]:
    """End-to-end metrics, with times scaled like ``Session.latencies``."""
    lat = session.latencies
    return {
        "setup_s": session.setup_s,
        "rss_peak_mb": rss_mb,
        "throughput_per_s": median([_items(p) / p.scaled_wall
                                    for p in session.passes]),
        "p50_ms": median(lat) * 1e3,
        "tail_ms": tail(lat, session.tail_q)[0] * 1e3,
    }


def _pass_layers(p, spans: List[dict], selfs: Dict[str, float]) -> Dict[str, float]:
    """Per-layer values of one pass from the spans that started inside it."""
    out: Dict[str, float] = defaultdict(float)
    inside = [s for s in spans
              if p.start <= s["start"] < p.end and s["name"] != "bench.pass"]
    ops = 0
    sim_self = 0.0
    for span in inside:
        name = span["name"]
        own = selfs[span["id"]]
        if name in SPAN_TIMES:
            out[SPAN_TIMES[name]] += own
        if name == "sim.run":
            system = span["attrs"].get("system")
            out[f"sim.run_s.{system}"] += own
            sim_self += own
            ops += span["attrs"].get("ops", 0)
        for attr, metric in SPAN_COUNTS.get(name, {}).items():
            out[metric] += span["attrs"].get(attr, 0)
    if ops:
        out["sim.host_ns_per_op"] = sim_self * 1e9 / ops
    covered = union_length(
        (max(s["start"], p.start), min(s["end"], p.end)) for s in inside
    )
    out["trace.residual_s"] = (p.end - p.start) - covered
    for note, metric in NOTES.items():
        if note in p.notes:
            out[metric] = float(p.notes[note])
    return out


def per_layer(traced: Session, untraced: Session) -> Dict[str, Tuple[float, str]]:
    """Median per-pass value of every per-layer metric, with whether each
    count repeated exactly across the benchmark's own passes."""
    selfs = self_times(traced.spans)
    rows = [_pass_layers(p, traced.spans, selfs) for p in traced.passes]
    builds = [s["end"] - s["start"] for s in traced.spans if s["name"] == "workloads.build"
              and s["end"] <= traced.passes[0].start]
    out: Dict[str, Tuple[float, str]] = {}
    for name, _unit in PER_LAYER:
        values = [row.get(name, 0.0) for row in rows]
        flag = ""
        if name in COUNT_METRICS:
            seen = values + [
                float(p.notes[note]) for p in untraced.passes
                for note, metric in NOTES.items() if metric == name and note in p.notes
            ]
            if len(seen) < 2:
                flag = "single sample"
            else:
                flag = "exact" if len(set(seen)) == 1 else "varying"
        out[name] = (median(values), flag)
    out["workloads.build_s"] = (sum(builds) / traced.setup_builds, "")
    return out


def serve_latencies(session: Session) -> Dict[str, float]:
    """Client-side latencies of the serve window by request kind (ms)."""
    p = session.passes[0]
    hits = p.notes.get("hit_latencies", [])
    out = {"serve.hit_p50_ms": 0.0, "serve.hit_p99_ms": 0.0}
    if hits:
        out["serve.hit_p50_ms"] = median(hits) * 1e3
        out["serve.hit_p99_ms"] = tail(hits, 99.0)[0] * 1e3
    for kind, metric in (("read_latencies", "serve.read_p50_ms"),
                         ("miss_latencies", "serve.miss_p50_ms")):
        values = p.notes.get(kind, [])
        out[metric] = median(values) * 1e3 if values else 0.0
    return out


def overhead(traced: Session, untraced: Session) -> float:
    """Traced wall per item over untraced wall per item, minus one."""
    return (traced.wall / traced.items) / (untraced.wall / untraced.items) - 1.0
