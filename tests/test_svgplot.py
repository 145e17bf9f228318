"""Tests for the dependency-free SVG line plotter."""

import math

import pytest

from bumpscatter.svgplot import render_svg


def _curve(label="c", n=20, scale=1.0, phase=0.0):
    xs = [0.1 * i for i in range(n)]
    ys = [scale * math.sin(x + phase) for x in xs]
    return (label, xs, ys)


class TestRenderSvg:
    def test_document_structure(self):
        svg = render_svg([_curve("alpha"), _curve("beta", scale=2.0, phase=1.0)],
                         xlabel="x axis", ylabel="y axis")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 2
        for text in ("x axis", "y axis", "alpha", "beta"):
            assert text in svg

    def test_deterministic(self):
        curves = [_curve(), _curve("d", scale=0.3)]
        a = render_svg(curves, xlabel="x", ylabel="y")
        b = render_svg(curves, xlabel="x", ylabel="y")
        assert a == b

    def test_axis_ticks_bracket_data(self):
        svg = render_svg([("c", [0.0, 5.0], [0.0, 3.0])], xlabel="x", ylabel="y")
        # Round tick labels at both ends of each axis.
        assert ">0<" in svg
        assert ">5<" in svg
        assert ">3<" in svg

    def test_negative_values_supported(self):
        svg = render_svg([("c", [0.0, 1.0, 2.0], [-1.0, 0.5, -0.25])],
                         xlabel="x", ylabel="y")
        assert "<polyline" in svg
        assert ">-1<" in svg

    def test_empty_curve_list_raises(self):
        with pytest.raises(ValueError, match="no curves"):
            render_svg([], xlabel="x", ylabel="y")

    def test_single_point_curve_raises(self):
        with pytest.raises(ValueError, match="at least 2"):
            render_svg([("c", [1.0], [2.0])], xlabel="x", ylabel="y")

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="lengths differ"):
            render_svg([("c", [1.0, 2.0], [1.0])], xlabel="x", ylabel="y")

    def test_non_finite_data_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            render_svg([("c", [0.0, 1.0], [0.0, math.nan])],
                       xlabel="x", ylabel="y")
        with pytest.raises(ValueError, match="non-finite"):
            render_svg([("c", [0.0, math.inf], [0.0, 1.0])],
                       xlabel="x", ylabel="y")
