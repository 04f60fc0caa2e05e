"""Measurement: redundancy stats, size ratios, overhead decomposition,
and text rendering for the experiment exhibits."""

from .overhead import OverheadReport, measure_overhead
from .ratios import SizeReport, measure_sizes
from .redundancy import RedundancyStats, measure_redundancy
from .report import ascii_chart, format_cell, paper_vs_measured, render_table

__all__ = [
    "OverheadReport",
    "RedundancyStats",
    "SizeReport",
    "ascii_chart",
    "format_cell",
    "measure_overhead",
    "measure_redundancy",
    "measure_sizes",
    "paper_vs_measured",
    "render_table",
]
