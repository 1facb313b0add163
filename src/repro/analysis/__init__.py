"""Reporting utilities shared by the experiment modules."""

from repro.analysis.stats import geomean, mean, percentile, weighted_mean
from repro.analysis.svgplot import BarChart
from repro.analysis.tables import ascii_table, bar, markdown_table, pct

__all__ = [
    "BarChart",
    "ascii_table",
    "bar",
    "geomean",
    "markdown_table",
    "mean",
    "pct",
    "percentile",
    "weighted_mean",
]
