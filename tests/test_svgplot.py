"""Tests for the dependency-free SVG line plotter."""

import math

import numpy as np
import pytest
from references import svg_coordinates_per_point, svg_points_per_point

from bumpscatter import svgplot
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


def _random_curves(rng, count):
    """count curves of 2 to 60 points: random signs and magnitudes from
    subnormal to 1e300 per curve, signed zeros mixed in, and one curve in
    four constant."""
    curves = []
    for i in range(count):
        n = int(rng.integers(2, 61))
        scale = rng.choice([5e-324, 1e-310, 1e-3, 1.0, 1e5, 1e300])
        xs = np.sort(rng.uniform(-1.0, 1.0, n)) * rng.choice([1.0, 1e300, 1e-310])
        ys = rng.normal(size=n) * scale
        zeros = rng.random(n) < 0.2
        ys[zeros] = np.copysign(0.0, rng.choice([-1.0, 1.0], zeros.sum()))
        if rng.random() < 0.25:
            ys[:] = rng.choice([0.0, -0.0, 2.5, -1e300, 1e-310])
        curves.append((f"c{i}", xs.tolist(), ys.tolist()))
    return curves


@pytest.mark.parametrize("seed", range(12))
def test_render_svg_equals_the_per_point_renderer_byte_for_byte(monkeypatch, seed):
    # The polyline coordinates are taken on float arrays and formatted in
    # one %-format per point: the coordinates are the per-point ones bit
    # for bit, and the document is the one the per-point loop writes, byte
    # for byte, on curves from subnormal to 1e300 in size, with signed
    # zeros and constant curves, given as lists or arrays.
    rng = np.random.default_rng(seed)
    curves = _random_curves(rng, int(rng.integers(1, 5)))
    if seed % 2:
        curves = [(label, np.array(xs), np.array(ys)) for label, xs, ys in curves]
    got = render_svg(curves, xlabel="x", ylabel="y")
    calls = []

    def per_point(*args):
        calls.append(args)
        return svg_points_per_point(*args)

    monkeypatch.setattr(svgplot, "_points", per_point)
    assert got == render_svg(curves, xlabel="x", ylabel="y")
    assert len(calls) == len(curves)
    for xs, ys, x_axis, y_axis in calls:
        coordinates = (svgplot._scale(xs, *x_axis), svgplot._scale(ys, *y_axis))
        assert [[v.hex() for v in c.tolist()] for c in coordinates] == [
            [v.hex() for v in c] for c in svg_coordinates_per_point(xs, ys, x_axis, y_axis)]
