"""Render the perf ledger as a static dashboard (markdown and HTML).

``nachos-repro perf report`` builds one trend table per record source
(bench / profile / coverage / verify / serve ...), a worst-regressions
callout fed by the budget checker, and a per-figure wall breakdown
from the newest record that carries ``figure.*`` metrics.  Output is
deterministic for a fixed ledger — no generation timestamps, sorted
series — so reports diff cleanly in CI logs and artifact stores.

Trend cells use unicode sparklines (``▁▂▃▄▅▆▇█``): each series is
scaled to its own min..max, so the shape of the history is visible at
a glance without axes.  The numbers that matter (median, latest, delta
vs median) sit next to the sparkline.
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.perf import PerfRecord
from repro.obs.regress import REGRESSION, Verdict

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: Per-series cap on sparkline width: older samples are summarized into
#: the leading block rather than silently dropped from the stats.
SPARK_WIDTH = 32


def sparkline(values: Sequence[float], width: int = SPARK_WIDTH) -> str:
    """Scale *values* into unicode block characters (min..max per series)."""
    if not values:
        return ""
    tail = list(values)[-width:]
    lo, hi = min(tail), max(tail)
    if hi == lo:
        return _SPARK_BLOCKS[3] * len(tail)
    span = hi - lo
    return "".join(
        _SPARK_BLOCKS[
            min(len(_SPARK_BLOCKS) - 1,
                int((v - lo) / span * len(_SPARK_BLOCKS)))
        ]
        for v in tail
    )


@dataclass
class SeriesRow:
    """One metric's history, ready to render."""

    source: str
    metric: str
    values: List[float]

    @property
    def latest(self) -> float:
        return self.values[-1]

    @property
    def median(self) -> float:
        ordered = sorted(self.values)
        n = len(ordered)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def delta_vs_median_pct(self) -> Optional[float]:
        if self.median == 0:
            return None
        return 100.0 * (self.latest - self.median) / abs(self.median)


@dataclass
class Dashboard:
    """The dashboard's data, separated from its two renderings."""

    sections: List[Tuple[str, List[SeriesRow]]] = field(default_factory=list)
    regressions: List[Verdict] = field(default_factory=list)
    figures: List[Tuple[str, List[float]]] = field(default_factory=list)
    record_count: int = 0


def _collect_series(records: Sequence[PerfRecord]) -> Dict[str, Dict[str, List[float]]]:
    """source -> metric -> values in ledger order."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        per_source = out.setdefault(record.source, {})
        for metric, value in record.metrics.items():
            per_source.setdefault(metric, []).append(float(value))
    return out

#: ``figure.*``/``region.*`` series are rendered in their own breakdown
#: section, not in the per-source trend tables (hundreds of rows).
_BREAKDOWN_PREFIXES = ("figure.", "region.", "package.")


def build_dashboard(
    records: Sequence[PerfRecord],
    verdicts: Sequence[Verdict] = (),
) -> Dashboard:
    dash = Dashboard(record_count=len(records))
    for source, metrics in sorted(_collect_series(records).items()):
        rows = [
            SeriesRow(source=source, metric=metric, values=values)
            for metric, values in sorted(metrics.items())
            if not metric.startswith(_BREAKDOWN_PREFIXES)
        ]
        if rows:
            dash.sections.append((source, rows))
    dash.regressions = sorted(
        (v for v in verdicts if v.status == REGRESSION),
        key=lambda v: -(v.regression or 0.0),
    )
    # Per-figure wall breakdown: every figure.* series, heaviest latest
    # value first (name-tiebreak keeps the order deterministic).
    figures: Dict[str, List[float]] = {}
    for record in records:
        for metric, value in record.metrics.items():
            if metric.startswith("figure.") and metric.endswith(".wall_seconds"):
                name = metric[len("figure."):-len(".wall_seconds")]
                figures.setdefault(name, []).append(float(value))
    dash.figures = sorted(
        figures.items(), key=lambda kv: (-kv[1][-1], kv[0])
    )
    return dash


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}"


def _fmt_delta(pct: Optional[float]) -> str:
    if pct is None:
        return "-"
    return f"{'+' if pct >= 0 else ''}{pct:.1f}%"


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------
def render_markdown(
    records: Sequence[PerfRecord],
    verdicts: Sequence[Verdict] = (),
    title: str = "NACHOS perf observatory",
) -> str:
    dash = build_dashboard(records, verdicts)
    lines = [f"# {title}", ""]
    lines.append(
        f"{dash.record_count} ledger record(s), "
        f"{sum(len(rows) for _, rows in dash.sections)} metric series."
    )
    lines.append("")

    if dash.regressions:
        lines.append("## Worst regressions")
        lines.append("")
        lines.append("| budget | latest | median | regression | allowed |")
        lines.append("|---|---:|---:|---:|---:|")
        for v in dash.regressions:
            lines.append(
                f"| `{v.budget.key}` | {_fmt(v.latest)} | {_fmt(v.baseline)} "
                f"| {100.0 * (v.regression or 0):+.1f}% "
                f"| {100.0 * v.budget.max_regression:.0f}% |"
            )
        lines.append("")

    for source, rows in dash.sections:
        lines.append(f"## {source}")
        lines.append("")
        lines.append("| metric | n | trend | median | latest | Δ vs median |")
        lines.append("|---|---:|---|---:|---:|---:|")
        for row in rows:
            lines.append(
                f"| `{row.metric}` | {len(row.values)} "
                f"| `{sparkline(row.values)}` | {_fmt(row.median)} "
                f"| {_fmt(row.latest)} "
                f"| {_fmt_delta(row.delta_vs_median_pct)} |"
            )
        lines.append("")

    if dash.figures:
        lines.append("## Per-figure wall breakdown")
        lines.append("")
        lines.append("| figure | n | trend | latest wall (s) |")
        lines.append("|---|---:|---|---:|")
        for name, values in dash.figures:
            lines.append(
                f"| `{name}` | {len(values)} | `{sparkline(values)}` "
                f"| {_fmt(values[-1])} |"
            )
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------
_HTML_STYLE = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 70rem; padding: 0 1rem; color: #1a1a1a; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; margin: 0.5rem 0 1.5rem; }
th, td { border-bottom: 1px solid #ddd; padding: 0.3rem 0.6rem;
         text-align: right; }
th { background: #f5f5f5; }
td.name, th.name { text-align: left; font-family: ui-monospace, monospace; }
td.spark { font-family: ui-monospace, monospace; letter-spacing: 1px;
           color: #2a6fb0; text-align: left; }
tr.bad td { background: #fdecea; }
.meta { color: #666; }
""".strip()


def _html_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                row_classes: Optional[Sequence[str]] = None) -> List[str]:
    out = ["<table>", "<tr>"]
    for i, head in enumerate(headers):
        cls = ' class="name"' if i == 0 else ""
        out.append(f"<th{cls}>{_html.escape(head)}</th>")
    out.append("</tr>")
    for r, row in enumerate(rows):
        cls = row_classes[r] if row_classes else ""
        out.append(f'<tr class="{cls}">' if cls else "<tr>")
        for i, cell in enumerate(row):
            if i == 0:
                out.append(f'<td class="name">{_html.escape(cell)}</td>')
            elif cell and all(ch in _SPARK_BLOCKS for ch in cell):
                out.append(f'<td class="spark">{_html.escape(cell)}</td>')
            else:
                out.append(f"<td>{_html.escape(cell)}</td>")
        out.append("</tr>")
    out.append("</table>")
    return out


def render_html(
    records: Sequence[PerfRecord],
    verdicts: Sequence[Verdict] = (),
    title: str = "NACHOS perf observatory",
) -> str:
    dash = build_dashboard(records, verdicts)
    parts = [
        "<!doctype html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_html.escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>{_html.escape(title)}</h1>",
        f'<p class="meta">{dash.record_count} ledger record(s), '
        f"{sum(len(rows) for _, rows in dash.sections)} metric series.</p>",
    ]

    if dash.regressions:
        parts.append("<h2>Worst regressions</h2>")
        parts.extend(_html_table(
            ["budget", "latest", "median", "regression", "allowed"],
            [
                [
                    v.budget.key, _fmt(v.latest), _fmt(v.baseline),
                    f"{100.0 * (v.regression or 0):+.1f}%",
                    f"{100.0 * v.budget.max_regression:.0f}%",
                ]
                for v in dash.regressions
            ],
            row_classes=["bad"] * len(dash.regressions),
        ))

    for source, rows in dash.sections:
        parts.append(f"<h2>{_html.escape(source)}</h2>")
        parts.extend(_html_table(
            ["metric", "n", "trend", "median", "latest", "Δ vs median"],
            [
                [
                    row.metric, str(len(row.values)), sparkline(row.values),
                    _fmt(row.median), _fmt(row.latest),
                    _fmt_delta(row.delta_vs_median_pct),
                ]
                for row in rows
            ],
        ))

    if dash.figures:
        parts.append("<h2>Per-figure wall breakdown</h2>")
        parts.extend(_html_table(
            ["figure", "n", "trend", "latest wall (s)"],
            [
                [name, str(len(values)), sparkline(values), _fmt(values[-1])]
                for name, values in dash.figures
            ],
        ))

    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
