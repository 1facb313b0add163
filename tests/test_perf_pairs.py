"""The paired perfbench gate (``tools/perf_pairs.py``) on synthetic runs.

No perfbench run happens here: the verdict rules are checked on made-up
run records, and the parser on a captured real ``perfbench/run.py``
stdout.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pp():
    path = REPO / "tools" / "perf_pairs.py"
    spec = importlib.util.spec_from_file_location("perf_pairs", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["perf_pairs"] = mod
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        sys.modules.pop("perf_pairs", None)


#: ``perfbench/run.py --workload compile-allpaths --seed 1 --seconds 0
#: --trace 0`` as printed on a 2-vCPU host.
CAPTURED = """\
perfbench compile-allpaths seed=1 seconds=0 jobs=2 engine=fast
  untraced: 1 passes, 135 items, median raw pass 1.323s, raw set-up 0.248s; host speed factor 1.070; tail: max of 135 (too few samples for p95)
  compile.regions_per_s: 95.3141; item latency quartiles 0.579 / 1.960 / 8.412 ms
  may_pair_share: 0.1050 of 73161 alias pairs
  outputs digest: 38d7ee604882da80 over 135 items
  setup_s                              0.274911 s
  rss_peak_mb                         72.796875 MB
  throughput_per_s                    95.314055 1/s
  p50_ms                               1.959588 ms
  tail_ms                            178.440539 ms
  error_rate: 0/135
  run wall: 2.6s
{"correct": true, "attempted": 135, "failed": 0, "metrics": {"setup_s": {"value": 0.27491102474290313, "unit": "s"}, "rss_peak_mb": {"value": 72.796875, "unit": "MB"}, "throughput_per_s": {"value": 95.31405498351721, "unit": "1/s"}, "p50_ms": {"value": 1.9595884800927204, "unit": "ms"}, "tail_ms": {"value": 178.44053933502454, "unit": "ms"}}}
"""

LOWER = {"name": "p50_ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "throughput_per_s", "better": "higher", "bound": 0.25}
RSS = {"name": "rss_peak_mb", "better": "lower", "bound": 0.1}


def run(pp, passes=1, failed=0, attempted=100, correct=None, **metrics):
    return pp.Run(
        correct=failed == 0 if correct is None else correct,
        attempted=attempted,
        failed=failed,
        passes=passes,
        metrics={k: float(v) for k, v in metrics.items()},
    )


def pairs_of(pp, metric, parent, change, parent_passes=None, change_passes=None):
    n = len(parent)
    pp_ = parent_passes or [1] * n
    cp_ = change_passes or [1] * n
    return [
        (run(pp, passes=pp_[i], **{metric: parent[i]}),
         run(pp, passes=cp_[i], **{metric: change[i]}))
        for i in range(n)
    ]


def test_parse_captured_perfbench_stdout(pp):
    got = pp.parse_run(CAPTURED)
    assert got.correct is True
    assert (got.attempted, got.failed, got.passes) == (135, 0, 1)
    assert got.metrics["throughput_per_s"] == pytest.approx(95.314055, rel=1e-6)
    assert set(got.metrics) == {"setup_s", "rss_peak_mb", "throughput_per_s",
                                "p50_ms", "tail_ms"}


def test_parse_rejects_output_without_result_line(pp):
    with pytest.raises(ValueError):
        pp.parse_run(CAPTURED.rsplit("{", 1)[0])
    with pytest.raises(ValueError):
        pp.parse_run(CAPTURED.replace("untraced: 1 passes", "untraced: passes"))


def test_median_worse_than_bound_fails(pp):
    pairs = pairs_of(pp, "p50_ms", [10, 10.2, 9.9, 10.1, 10], [13, 13.1, 12.9, 13, 13.2])
    row = pp.compare_metric("w", LOWER, pairs)
    assert row.verdict == pp.FAIL
    assert row.delta == pytest.approx(0.3)


def test_median_within_bound_passes(pp):
    pairs = pairs_of(pp, "p50_ms", [10, 10.2, 9.9, 10.1, 10], [12, 12.1, 11.9, 12, 12.2])
    assert pp.compare_metric("w", LOWER, pairs).verdict == pp.OK


def test_better_direction_is_honoured(pp):
    parent = [100, 101, 99, 100, 100]
    # Lower throughput is worse; higher is fine however large.
    worse = pairs_of(pp, "throughput_per_s", parent, [70, 71, 69, 70, 70])
    better = pairs_of(pp, "throughput_per_s", parent, [200, 201, 199, 200, 200])
    assert pp.compare_metric("w", HIGHER, worse).verdict == pp.FAIL
    assert pp.compare_metric("w", HIGHER, better).verdict == pp.OK
    # The same numbers under a lower-is-better metric flip.
    lower = dict(HIGHER, better="lower")
    assert pp.compare_metric("w", lower, worse).verdict == pp.OK
    assert pp.compare_metric("w", lower, better).verdict == pp.FAIL


def test_wide_parent_spread_is_unresolved(pp):
    parent = [5, 8, 10, 12, 15]  # quartile spread 0.7 of the median
    change = [7, 14, 14, 16, 9]  # median 40% worse, but overlapping
    row = pp.compare_metric("w", LOWER, pairs_of(pp, "p50_ms", parent, change))
    assert row.verdict == pp.UNRESOLVED
    assert "parent spread" in row.note


def test_wide_spread_fails_when_every_change_run_is_worse(pp):
    parent = [5, 8, 10, 12, 15]
    change = [16, 17, 18, 19, 20]
    row = pp.compare_metric("w", LOWER, pairs_of(pp, "p50_ms", parent, change))
    assert row.verdict == pp.FAIL


def test_rss_compares_only_equal_pass_counts(pp):
    # Two-pass runs read ~10% higher with no memory change; only the
    # equal-pass pairs (0 and 2) enter the comparison.
    pairs = pairs_of(
        pp, "rss_peak_mb",
        [199, 199, 199, 199, 199], [200, 218, 199, 218, 218],
        parent_passes=[1, 1, 1, 1, 1], change_passes=[1, 2, 1, 2, 2],
    )
    row = pp.compare_metric("w", RSS, pairs)
    assert row.verdict == pp.OK
    assert row.change == pytest.approx(199.5)
    assert "2/5 pairs" in row.note


def test_rss_unresolved_without_equal_pass_pairs(pp):
    pairs = pairs_of(pp, "rss_peak_mb", [199] * 3, [218] * 3,
                     parent_passes=[1] * 3, change_passes=[2] * 3)
    row = pp.compare_metric("w", RSS, pairs)
    assert row.verdict == pp.UNRESOLVED
    assert math.isnan(row.parent) and math.isnan(row.change)


def test_pass_counts_do_not_filter_other_metrics(pp):
    pairs = pairs_of(pp, "p50_ms", [10] * 3, [14] * 3,
                     parent_passes=[1] * 3, change_passes=[2] * 3)
    assert pp.compare_metric("w", LOWER, pairs).verdict == pp.FAIL


def test_higher_failed_share_fails(pp):
    # correct=True isolates the share rule from the correctness rule.
    def pair(parent_failed, change_failed):
        return (run(pp, failed=parent_failed, correct=True),
                run(pp, failed=change_failed, correct=True))

    same = [pair(1, 1) for _ in range(3)]
    more = [pair(0, 1 if i == 0 else 0) for i in range(3)]
    fewer = [pair(2, 1) for _ in range(3)]
    assert pp.compare_failures("w", same).verdict == pp.OK
    assert pp.compare_failures("w", fewer).verdict == pp.OK
    row = pp.compare_failures("w", more)
    assert row.verdict == pp.FAIL
    assert row.change == pytest.approx(1 / 300)


def test_incorrect_change_run_fails(pp):
    pairs = [(run(pp), run(pp, correct=i != 1)) for i in range(3)]
    row = pp.compare_failures("w", pairs)
    assert row.verdict == pp.FAIL
    assert "1 change run(s) not correct" in row.note


def test_verdicts_cover_every_metric_and_render(pp):
    specs = [LOWER, HIGHER]
    pairs = [
        (run(pp, p50_ms=10, throughput_per_s=100),
         run(pp, p50_ms=10.5, throughput_per_s=98))
        for _ in range(5)
    ]
    rows = pp.verdicts("sweep-cold", specs, pairs)
    assert [r.metric for r in rows] == ["p50_ms", "throughput_per_s", "failed_share"]
    assert all(r.verdict == pp.OK for r in rows)
    table = pp.render(rows)
    for column in ("parent median", "change median", "delta", "bound", "verdict"):
        assert column in table
    assert "+5.0%" in table and "-2.0%" in table
