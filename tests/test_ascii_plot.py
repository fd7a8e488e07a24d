"""Tests for the ASCII plotting helpers."""

import pytest

from repro.metrics.ascii_plot import ascii_bars, ascii_cdf, ascii_plot


class TestAsciiPlot:
    def test_plot_contains_marks_and_legend(self):
        chart = ascii_plot(
            {"native": [(0, 0), (1, 1)], "p4p": [(0, 1), (1, 0)]},
            width=30,
            height=8,
        )
        assert "*" in chart and "o" in chart
        assert "native" in chart and "p4p" in chart

    def test_cdf_axis_labels(self):
        chart = ascii_cdf({"x": [(1.0, 0.5), (2.0, 1.0)]})
        assert "completion time" in chart

    def test_constant_series_does_not_crash(self):
        chart = ascii_plot({"flat": [(0, 5), (1, 5), (2, 5)]}, width=20, height=5)
        assert "flat" in chart

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({})
        with pytest.raises(ValueError):
            ascii_plot({"x": []})

    def test_too_small_canvas_rejected(self):
        with pytest.raises(ValueError):
            ascii_plot({"x": [(0, 0)]}, width=2, height=2)

    def test_bars(self):
        chart = ascii_bars({"native": 100.0, "p4p": 25.0})
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[0].count("#") > lines[1].count("#")

    def test_bars_zero_value(self):
        chart = ascii_bars({"a": 0.0, "b": 1.0})
        assert "0.0" in chart

    def test_bars_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_bars({})
