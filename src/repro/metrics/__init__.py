"""Paper-comparison shape predicates and table/chart rendering."""

from .asciichart import ascii_chart, chart_figure
from .compare import monotone_decreasing, roughly_flat
from .report import markdown_table, minutes, percent, text_table

__all__ = [
    "ascii_chart",
    "chart_figure",
    "markdown_table",
    "minutes",
    "monotone_decreasing",
    "percent",
    "roughly_flat",
    "text_table",
]
