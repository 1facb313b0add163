"""Order statistics and span arithmetic for the benchmark.

Timings are reported as a median plus the highest percentile that has at
least :data:`MIN_BEYOND` samples beyond it, so a tail figure never rests
on a handful of outliers.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: A reported tail percentile needs at least this many samples above it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the *q*-th percentile among *n* samples
    (the tolerance keeps 99.9% of 10000 at rank 9990, not 9991)."""
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank *q*-th percentile of *n*."""
    return n - _rank(n, q)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), q) - 1])


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Span id -> duration minus the part of it its children cover.

    Children may overlap each other (tasks on parallel pool workers) and
    may stick out of the parent; only the covered part of the parent's
    own interval is subtracted.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    out: Dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(span["id"], ())
            if e > start and s < end
        ]
        out[span["id"]] = (end - start) - union_length(clipped)
    return out
