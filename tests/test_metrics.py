"""Tests for the metrics shape predicates and report rendering."""

from repro.metrics import (
    markdown_table,
    minutes,
    monotone_decreasing,
    percent,
    roughly_flat,
    text_table,
)


class TestPredicates:
    def test_monotone_decreasing(self):
        assert monotone_decreasing([5.0, 4.0, 4.0, 1.0])
        assert not monotone_decreasing([5.0, 6.0, 4.0])
        assert monotone_decreasing([5.0, 5.5, 4.0], slack=0.6)

    def test_roughly_flat(self):
        assert roughly_flat([10.0, 12.0, 9.0])
        assert not roughly_flat([1.0, 10.0])
        assert roughly_flat([0.0, 0.0])  # vacuous


class TestRendering:
    def test_text_table_aligned(self):
        table = text_table(["name", "value"], [["a", 1.5], ["bb", 2.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].index("value") == lines[2].index("1.50")

    def test_markdown_table(self):
        table = markdown_table(["x", "y"], [[1.0, 2.0]])
        assert table.splitlines()[1] == "|---|---|"
        assert "| 1.00 | 2.00 |" in table

    def test_formatters(self):
        assert minutes(90.0) == "1.5m"
        assert percent(0.125) == "12.5%"

