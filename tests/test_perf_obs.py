"""Perf observatory: ledger append/read invariants, record builders,
budget-driven regression checking (including blessing and noise
floors), dashboard rendering, the ``nachos-repro perf`` CLI, and the
coverage/bench feeders."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import cli
from repro.obs import (
    LEDGER_SCHEMA,
    MetricsRegistry,
    PerfLedger,
    PerfRecord,
    SweepProfile,
    capture_context,
    check_ledger,
    default_ledger_path,
    load_budgets,
    record_from_bench,
    record_from_coverage,
    record_from_fuzz,
    record_from_profile,
    record_from_registries,
    record_from_serve,
    render_html,
    render_markdown,
)
from repro.obs.regress import (
    OK,
    REGRESSION,
    SKIPPED,
    Budget,
    BudgetError,
    check_budget,
)
from repro.obs.report import sparkline

REPO = Path(__file__).resolve().parents[1]


def _load_module(rel):
    path = REPO / rel
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def bench_record(cold, context=None, **metrics):
    metrics["cold_seconds"] = cold
    return PerfRecord(
        source="bench",
        metrics={k: float(v) for k, v in metrics.items()},
        context=context or {"mode": "full", "git_sha": "cafe", "host": "h"},
    )


# ---------------------------------------------------------------------------
# Ledger invariants
# ---------------------------------------------------------------------------
def test_fingerprint_excludes_timestamp_and_is_byte_stable():
    a = bench_record(75.0)
    b = bench_record(75.0)
    b.ts = "2026-01-01T00:00:00Z"
    assert a.fingerprint() == b.fingerprint()
    # Identical inputs serialize to identical bytes (fixed ts).
    a.ts = b.ts
    assert a.to_line() == b.to_line()
    # Any content change moves the fingerprint.
    assert bench_record(75.1).fingerprint() != a.fingerprint()
    assert (
        bench_record(75.0, context={"mode": "quick"}).fingerprint()
        != a.fingerprint()
    )


def test_ledger_append_only_roundtrip(tmp_path):
    path = tmp_path / "perf" / "history.ndjson"  # parent dirs auto-created
    ledger = PerfLedger(path)
    assert not ledger.exists() and ledger.records() == []
    fp1 = ledger.append(bench_record(75.0), ts="2026-01-01T00:00:00Z")
    first_line = path.read_text()
    ledger.append(bench_record(74.0), ts="2026-01-02T00:00:00Z")
    # Appending never rewrites existing lines.
    assert path.read_text().startswith(first_line)
    records = ledger.records()
    assert [r.metrics["cold_seconds"] for r in records] == [75.0, 74.0]
    assert records[0].fingerprint() == fp1
    assert records[0].ts == "2026-01-01T00:00:00Z"
    assert records[0].context["mode"] == "full"
    assert len(ledger) == 2


def test_ledger_skips_newer_schema_and_garbage(tmp_path):
    path = tmp_path / "l.ndjson"
    ledger = PerfLedger(path)
    ledger.append(bench_record(75.0))
    future = bench_record(10.0)
    future.schema = LEDGER_SCHEMA + 1
    ledger.append(future)
    with open(path, "a") as fh:
        fh.write("not json at all\n")
        fh.write('{"source": "bench"}\n')  # missing metrics
    records = ledger.records()
    assert [r.metrics["cold_seconds"] for r in records] == [75.0]
    assert ledger.skipped == 3


def test_capture_context_overrides(monkeypatch):
    monkeypatch.setenv("NACHOS_GIT_SHA", "deadbeef")
    monkeypatch.setenv("NACHOS_HOST_ID", "runner-1")
    ctx = capture_context(engine="fast", jobs=4, mode="quick", seed=7)
    assert ctx == {
        "git_sha": "deadbeef",
        "host": "runner-1",
        "engine": "fast",
        "jobs": "4",
        "mode": "quick",
        "seed": "7",
    }
    monkeypatch.setenv("NACHOS_PERF_LEDGER", "elsewhere.ndjson")
    assert default_ledger_path() == Path("elsewhere.ndjson")


# ---------------------------------------------------------------------------
# Record builders
# ---------------------------------------------------------------------------
def test_record_from_bench():
    report = {
        "mode": "full",
        "jobs": 1,
        "cold_seconds": 75.06,
        "warm_seconds": 5.23,
        "warm_speedup_vs_cold": 14.35,
        "cache": {"hits": 978, "misses": 1005},
        "engine_compare": {
            "fast_speedup_vs_reference": 1.223,
            "identical": True,  # booleans must not leak in as metrics
            "modes": "nope",    # nor strings
        },
        "per_figure_wall_seconds": {"fig11": 9.5, "tab3": 1.2},
    }
    rec = record_from_bench(report, context={"mode": "full"})
    assert rec.source == "bench"
    assert rec.metrics["cold_seconds"] == 75.06
    assert rec.metrics["cache_hit_rate"] == pytest.approx(978 / 1983)
    assert rec.metrics["fast_speedup_vs_reference"] == 1.223
    assert rec.metrics["figure.fig11.wall_seconds"] == 9.5
    assert "identical" not in rec.metrics and "modes" not in rec.metrics


def test_bench_report_under_default_engine_is_filed_as_fast(
    tmp_path, monkeypatch
):
    """A ``bench_sweep.py`` report made with no engine named records the
    engine that ran (``fast``), so its ledger series stays apart from
    the reference engine's."""
    monkeypatch.delenv("NACHOS_ENGINE", raising=False)
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "bench_sweep.py"),
         "--quick", "--jobs", "1", "--output", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["engine"] == "fast"
    assert record_from_bench(report).context["engine"] == "fast"
    # Reports that predate the field ran the old reference default.
    del report["engine"]
    assert record_from_bench(report).context["engine"] == "reference"


def test_serve_record_defaults_to_resolved_engine(monkeypatch):
    monkeypatch.delenv("NACHOS_ENGINE", raising=False)
    assert record_from_serve({"qps": 1.0}).context["engine"] == "fast"
    monkeypatch.setenv("NACHOS_ENGINE", "reference")
    assert record_from_serve({"qps": 1.0}).context["engine"] == "reference"


def test_record_from_profile():
    profile = SweepProfile(enabled=True)
    profile.record_task("bzip2", "nachos", 2.0, worker=11, hits=1)
    profile.record_task("lbm", "nachos", 0.5, worker=12, misses=1)
    profile.record_sweep(tasks=2, jobs=2, wall_seconds=1.5)
    rec = record_from_profile(
        profile, {"fig11": 1.6}, context={"engine": "fast"}
    )
    assert rec.source == "profile"
    assert rec.metrics["tasks"] == 2.0
    assert rec.metrics["sweep_wall_seconds"] == 1.5
    assert rec.metrics["cache_hit_rate"] == 0.5
    assert rec.metrics["region.bzip2.seconds"] == 2.0
    assert rec.metrics["figure.fig11.wall_seconds"] == 1.6


def test_record_from_coverage_fuzz_registries():
    summary = {
        "total": {"pct": 97.2, "lines": 1000, "hit": 972},
        "packages": {"src/repro/sim": {"pct": 98.0, "lines": 1, "hit": 1}},
    }
    cov = record_from_coverage(summary, context={})
    assert cov.source == "coverage"
    assert cov.metrics["total_pct"] == 97.2
    assert cov.metrics["package.src.repro.sim.pct"] == 98.0

    fuzz = record_from_fuzz(12, 200, 0, 4.0, seed=0, context={})
    assert fuzz.source == "verify"
    assert fuzz.metrics["runs_per_second"] == 50.0

    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("cache.hits").inc(3)
    b.counter("cache.hits").inc(4)
    b.histogram("task_s").observe_many([1.0, 3.0])
    rec = record_from_registries([a, b], context={})
    assert rec.source == "metrics"
    assert rec.metrics["cache.hits"] == 7.0
    assert rec.metrics["task_s.p50"] == 1.0
    assert rec.metrics["task_s.count"] == 2.0


# ---------------------------------------------------------------------------
# Regression checking
# ---------------------------------------------------------------------------
def series(values, metric="cold_seconds", **ctx):
    return [
        PerfRecord(
            source="bench",
            metrics={metric: float(v)},
            context={"mode": "full", **{k: str(v2) for k, v2 in ctx.items()}},
        )
        for v in values
    ]


BUDGET = Budget(
    metric="cold_seconds", source="bench", direction="lower",
    max_regression=0.15, min_samples=3, where={"mode": "full"},
)


def test_check_budget_flags_regression():
    verdict = check_budget(series([74.0, 75.0, 76.0, 120.0]), BUDGET)
    assert verdict.status == REGRESSION
    assert verdict.baseline == 75.0
    assert verdict.regression == pytest.approx(0.6)
    assert "regression" in verdict.describe()
    # Same latest within budget passes.
    assert check_budget(series([74.0, 75.0, 76.0, 80.0]), BUDGET).status == OK


def test_check_budget_min_samples_and_where():
    verdict = check_budget(series([75.0, 120.0]), BUDGET)
    assert verdict.status == SKIPPED and verdict.ok
    # Records failing the where filter don't count toward the series.
    quick = series([0.5, 0.5, 0.6], mode="quick")
    for rec in quick:
        rec.context["mode"] = "quick"
    verdict = check_budget(quick + series([75.0, 120.0]), BUDGET)
    assert verdict.status == SKIPPED


def test_noise_floor_suppresses_relative_blowups():
    budget = Budget(
        metric="warm_seconds", source="bench", direction="lower",
        max_regression=0.10, min_samples=3, noise_floor=0.75,
    )
    # +50% relative but only +0.5s absolute: under the floor, passes.
    values = series([1.0, 1.0, 1.5], metric="warm_seconds")
    assert check_budget(values, budget).status == OK
    # Past both bounds: fails.
    values = series([1.0, 1.0, 2.0], metric="warm_seconds")
    assert check_budget(values, budget).status == REGRESSION


def test_higher_is_better_direction():
    budget = Budget(
        metric="cache_hit_rate", source="bench", direction="higher",
        max_regression=0.10, min_samples=3,
    )
    drop = series([0.9, 0.9, 0.5], metric="cache_hit_rate")
    assert check_budget(drop, budget).status == REGRESSION
    rise = series([0.9, 0.9, 0.95], metric="cache_hit_rate")
    assert check_budget(rise, budget).status == OK


def test_blessing_restarts_history():
    # The sweep legitimately got bigger: 10s -> ~30s.
    records = series([10.0, 11.0, 12.0, 30.0, 30.5, 31.0])
    budget = Budget(
        metric="cold_seconds", source="bench", direction="lower",
        max_regression=0.15, min_samples=3,
    )
    assert check_budget(records, budget).status == REGRESSION
    blessed = [records[3].fingerprint()]
    verdict = check_budget(records, budget, blessed)
    # History restarts at the blessed 30.0 record; 31.0 vs median(30, 30.5)
    # is a ~2.5% move, well inside the budget.
    assert verdict.status == OK
    assert verdict.baseline == pytest.approx(30.25)


def test_load_budgets_committed_file_and_errors(tmp_path):
    budgets, blessed = load_budgets(REPO / "perf_budgets.toml")
    keys = {b.key for b in budgets}
    assert {
        "bench:cold_seconds", "bench:warm_seconds",
        "bench:fast_speedup_vs_reference",
        "bench:cache_hit_rate",
        "coverage:total_pct",
    } <= keys
    assert blessed == []
    cold = next(b for b in budgets if b.key == "bench:cold_seconds")
    assert cold.direction == "lower" and cold.where == {"mode": "full"}
    assert cold.noise_floor == 5.0

    bad = tmp_path / "bad.toml"
    bad.write_text(
        '[[budget]]\nmetric = "x"\nsource = "bench"\ndirection = "sideways"\n'
    )
    with pytest.raises(BudgetError):
        load_budgets(bad)
    bad.write_text('[[budget]]\nmetric = "x"\ndirection = "lower"\n')
    with pytest.raises(BudgetError):
        load_budgets(bad)


# ---------------------------------------------------------------------------
# Dashboard rendering
# ---------------------------------------------------------------------------
def test_sparkline():
    assert sparkline([]) == ""
    assert sparkline([5.0, 5.0, 5.0]) == "▄▄▄"
    line = sparkline([0.0, 1.0, 2.0, 3.0])
    assert len(line) == 4 and line[0] == "▁" and line[-1] == "█"
    assert len(sparkline(list(range(100)))) == 32  # width cap


def test_render_markdown_and_html_from_two_records():
    records = series([75.0, 120.0]) + [
        PerfRecord(
            source="profile",
            metrics={"tasks": 30.0, "figure.fig11.wall_seconds": 9.5},
            context={},
        )
    ]
    verdicts = check_ledger(
        records, [Budget(
            metric="cold_seconds", source="bench", direction="lower",
            max_regression=0.15, min_samples=2, where={"mode": "full"},
        )],
    )
    md = render_markdown(records, verdicts)
    assert "# NACHOS perf observatory" in md
    assert "## Worst regressions" in md and "bench:cold_seconds" in md
    assert "## bench" in md and "`cold_seconds`" in md
    assert "## profile" in md
    # Breakdown series render in their own section, not the trend table.
    assert "`figure.fig11.wall_seconds`" not in md
    assert "## Per-figure wall breakdown" in md and "`fig11`" in md
    # Deterministic: same ledger, same bytes.
    assert md == render_markdown(records, verdicts)

    html = render_html(records, verdicts)
    assert html.startswith("<!doctype html>")
    assert 'class="bad"' in html and "cold_seconds" in html
    assert html == render_html(records, verdicts)


# ---------------------------------------------------------------------------
# The `nachos-repro perf` CLI
# ---------------------------------------------------------------------------
def seeded_ledger(tmp_path, values):
    path = tmp_path / "history.ndjson"
    ledger = PerfLedger(path)
    for i, v in enumerate(series(values)):
        ledger.append(v, ts=f"2026-01-{i + 1:02d}T00:00:00Z")
    return path


def test_cli_perf_check_fails_on_fabricated_slow_record(tmp_path, capsys):
    """Acceptance: a fabricated slow record must fail `perf check`."""
    path = seeded_ledger(tmp_path, [74.5, 75.0, 75.5, 120.0])
    rc = cli.main(
        ["perf", "check", "--ledger", str(path),
         "--budgets", str(REPO / "perf_budgets.toml")]
    )
    out = capsys.readouterr()
    assert rc == 1
    assert "bench:cold_seconds" in out.out and "regression" in out.out
    assert "FAIL" in out.err and "bless" in out.err


def test_cli_perf_check_passes_without_regression(tmp_path, capsys):
    path = seeded_ledger(tmp_path, [74.5, 75.0, 75.5, 76.0])
    rc = cli.main(
        ["perf", "check", "--ledger", str(path),
         "--budgets", str(REPO / "perf_budgets.toml")]
    )
    assert rc == 0
    assert "0 regression(s)" in capsys.readouterr().out
    # Missing budget file is a usage error, not a silent pass.
    rc = cli.main(
        ["perf", "check", "--ledger", str(path),
         "--budgets", str(tmp_path / "nope.toml")]
    )
    assert rc == 2


def test_cli_perf_check_on_tracked_ledger():
    """The committed ledger + budgets never start out failing."""
    assert cli.main(
        ["perf", "check", "--ledger", str(REPO / "perf" / "history.ndjson"),
         "--budgets", str(REPO / "perf_budgets.toml")]
    ) == 0


def test_cli_perf_report_renders_two_records(tmp_path, capsys):
    """Acceptance: `perf report` renders from >= 2 ledger records."""
    path = seeded_ledger(tmp_path, [75.0, 76.0])
    out_md = tmp_path / "report.md"
    out_html = tmp_path / "report.html"
    rc = cli.main(
        ["perf", "report", "--ledger", str(path),
         "--budgets", str(REPO / "perf_budgets.toml"),
         "--out", str(out_md), "--html", str(out_html)]
    )
    assert rc == 0
    assert "cold_seconds" in out_md.read_text()
    assert out_html.read_text().startswith("<!doctype html>")
    capsys.readouterr()
    # No --out/--html: markdown goes to stdout.
    rc = cli.main(["perf", "report", "--ledger", str(path)])
    assert rc == 0
    assert "# NACHOS perf observatory" in capsys.readouterr().out
    # An empty ledger has nothing to report.
    rc = cli.main(["perf", "report", "--ledger", str(tmp_path / "empty")])
    assert rc == 2


def test_cli_perf_record_and_ls(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NACHOS_GIT_SHA", "cafe")
    bench = tmp_path / "BENCH_sweep.json"
    bench.write_text(json.dumps({
        "mode": "quick", "jobs": 4, "cold_seconds": 0.5,
        "warm_seconds": 0.1, "cache": {"hits": 10, "misses": 30},
    }))
    coverage = tmp_path / "coverage.json"
    coverage.write_text(json.dumps({
        "total": {"pct": 97.0, "lines": 100, "hit": 97}, "packages": {},
    }))
    path = tmp_path / "history.ndjson"
    rc = cli.main(
        ["perf", "record", "--ledger", str(path),
         "--bench", str(bench), "--coverage", str(coverage)]
    )
    assert rc == 0
    records = PerfLedger(path).records()
    assert [r.source for r in records] == ["bench", "coverage"]
    assert records[0].context["mode"] == "quick"
    capsys.readouterr()

    rc = cli.main(["perf", "ls", "--ledger", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 record(s)" in out
    assert "bench" in out and "coverage" in out and "sha=cafe" in out

    # `record` without a source document is a usage error.
    assert cli.main(["perf", "record", "--ledger", str(path)]) == 2
    # And so is an unknown action.
    assert cli.main(["perf", "frobnicate", "--ledger", str(path)]) == 2


# ---------------------------------------------------------------------------
# Feeders: approx_coverage --json and bench figure-wall parsing
# ---------------------------------------------------------------------------
def test_approx_coverage_split_args_and_summarize(tmp_path, monkeypatch):
    mod = _load_module("tools/approx_coverage.py")
    assert mod.split_args(["-k", "foo"]) == (None, ["-k", "foo"])
    assert mod.split_args(["--json", "c.json", "-q"]) == ("c.json", ["-q"])
    assert mod.split_args(["--json=c.json"]) == ("c.json", [])
    with pytest.raises(SystemExit):
        mod.split_args(["--json"])

    pkg = tmp_path / "pkg"
    pkg.mkdir()
    source = pkg / "mod.py"
    source.write_text("a = 1\nb = 2\nc = 3\n")
    monkeypatch.setattr(mod, "MEASURED", ("pkg",))
    executable = mod.executable_lines(str(source))
    hit = {str(source): set(list(executable)[:2])}
    summary = mod.summarize(hit, str(tmp_path))
    assert summary["schema"] == mod.JSON_SCHEMA
    assert summary["total"]["lines"] == len(executable)
    assert summary["total"]["hit"] == 2
    assert summary["packages"]["pkg"]["pct"] == summary["total"]["pct"]
    rendered = mod.render(summary)
    assert "TOTAL" in rendered and "<- package" in rendered
    # The summary document round-trips through the ledger builder.
    rec = record_from_coverage(summary, context={})
    assert rec.metrics["total_hit"] == 2.0


def test_bench_parse_figure_walls():
    mod = _load_module("benchmarks/bench_sweep.py")
    output = "\n".join([
        "preamble noise",
        "[tab3: 0.41s]",
        "[fig11: 9.52s]",
        "[cache: 1203 entries]",
        "[cache: 0.10s]",   # the cache summary line is not a figure
        "[fig15: 3.00s]",
        "not [a: 1.0s] match",
    ])
    assert mod._parse_figure_walls(output) == {
        "tab3": 0.41, "fig11": 9.52, "fig15": 3.0,
    }
