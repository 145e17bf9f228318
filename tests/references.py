"""Test-side references that the engine no longer carries.

``immnn_x2`` is the rejected "x2" transcription of the four-index step
term of the hand-expanded closed forms.  The engine's moment kernel agrees
with the other one, "kappa2"; this reference keeps the oracle's
discrimination between the two reproducible.

``kink_coefficient_mp`` is a 50-digit quadrature of the kink-family
defining integrals, independent of the engine's moment recursion.

``jmn_mollified`` is the oracle's ket-kink entry with its delta line
smeared into a narrow Gaussian, a check that the sharp line term is right.
"""

import cmath
import math

import mpmath as mp
import numpy as np

from bumpscatter.geoamp import coefficient_table
from bumpscatter.oracle import (
    QuadratureSpec,
    _adaptive,
    _integrand_inputs,
    _operator_parts,
    _panel_edges,
)
from bumpscatter.specfun import exp_erf
from bumpscatter.surface import CurvatureCoefficients, operator_coeffs_first_order


def immnn_x2(g, m, mp, n, np_):
    """Four-index coefficient with the "x2" step term.

    For a bra kink left of the ket kink (am < an), x2 puts am^2 where
    kappa2 has K^2 in the bracket of the erf(am + i beta) step term:

        x2 = kappa2 - (pi eta / 4) (am^2 - K^2) ((1 + 4 l1) s^2 - 1)
             * exp_erf(-beta^2 + i beta (am + an), am + i beta)
             * e^{i beta (am' + an')};

    otherwise the two transcriptions coincide.  kappa2 is the engine's
    kink-pair entry of geoamp.coefficient_table times its phase.
    """
    b = g.beta
    phase = cmath.exp(1j * b * (g.alphas[mp] + g.alphas[np_]))
    kappa2 = phase * coefficient_table(g)[m + 1][n + 1]
    am, an = g.alphas[m], g.alphas[n]
    if not am < an:
        return kappa2
    step = (
        (am * am - g.bigK**2) * ((1.0 + 4.0 * g.lambda1) * g.s**2 - 1.0)
        * exp_erf(-b * b + 1j * b * (am + an), am + 1j * b)
        * phase
    )
    return kappa2 - 0.25 * math.pi * g.eta * step


def matches_oracle(closed, record, rtol=1e-6, atol=1e-10):
    """The verify_all pass rule applied to another closed value."""
    diff = abs(closed - record.oracle)
    if record.judged == "resolution":
        return diff <= record.resolution
    return diff / max(abs(record.oracle), atol) <= rtol


def kink_coefficient_mp(g, bra=None, ket=None):
    """Kink coefficient of a bra kink at bra against a ket kink at ket (None:
    plane wave), phase positions 0, by mp.quad at 50 digits.

    The y integral is done by Gaussian moments (<y^2> = 1/2, <y^4> = 3/4
    against e^{-y^2}/sqrt(pi)) of the first-order operator of
    bumpscatter.surface with sigma = 1: a/r^2 = eta e^{-r^2},
    b/r^2 = eta e^{-r^2} (2 - r^2) and
    c = eta e^{-r^2} (-2 l1 (r^2 - 1) + (l2/2) (r^2 - 2)^2), applied to the
    ket piece e^{i (kx x + gamma y)}, kx = +-beta its x slope.  The x
    integral is split at the kinks; a ket kink at a adds its delta-line
    term 2 i beta a^2 e^{-a^2} bra(a).
    """
    with mp.workdps(50):
        b = mp.mpf(g.beta)
        gam2 = mp.mpf(g.bigK) ** 2 - b * b
        l1, l2 = mp.mpf(g.lambda1), mp.mpf(g.lambda2)
        y2, y4 = mp.mpf(1) / 2, mp.mpf(3) / 4

        def bra_x(x):
            if bra is None:
                return mp.expj(b * x)
            return mp.expj(-b * abs(x - bra))

        def integrand(x):
            kx = b if ket is None or x >= ket else -b
            ket_x = mp.expj(b * x) if ket is None else mp.expj(b * abs(x - ket))
            r2 = x * x
            a_part = -(kx * kx * r2 + gam2 * y2)
            b_part = 1j * kx * x * (2 - r2 - y2)
            c_part = (-2 * l1 * (r2 + y2 - 1)
                      + l2 / 2 * ((r2 - 2) ** 2 + 2 * (r2 - 2) * y2 + y4))
            return mp.exp(-r2) * bra_x(x) * (a_part + b_part + c_part) * ket_x

        cuts = sorted({mp.mpf(a) for a in (bra, ket) if a is not None})
        total = mp.quad(integrand, [-mp.inf, *cuts, mp.inf])
        if ket is not None:
            a = mp.mpf(ket)
            total += 2j * b * a * a * mp.exp(-a * a) * bra_x(a)
        return complex(mp.mpf(g.eta) * mp.sqrt(mp.pi) * total)


def jmn_mollified(g, n, width, spec=QuadratureSpec()):
    """Ket kink n against the plane wave (the table entry T[0][n+1], phase
    position at 0) with its line term's delta(x - a) replaced by a Gaussian
    of the given width, so that the whole entry is one 2D integral.

    The smooth part and the mollified line term are a vector of two
    integrals on the oracle's shared panel tree; the result is their sum.
    It approaches the sharp entry as O(width^2).
    """
    a = g.alphas[n]
    inputs = _integrand_inputs([g])
    beta, profile = g.beta, inputs[-1]
    cc = CurvatureCoefficients(g.lambda1, g.lambda2)
    parts = _operator_parts(*inputs)

    def f(t, x, wx, y, wy):
        X, Y = x[:, :, None], y[:, None, :]
        f0, f1 = parts(t[:, None, None], X, Y)
        plane_ket = np.exp(1j * beta * (X + np.abs(X - a)))
        smooth = plane_ket * (f0 + np.sign(X - a) * f1)
        oc = operator_coeffs_first_order(np.hypot(X, Y), profile, cc)
        moll = np.exp(-(((X - a) / width) ** 2)) / (width * math.sqrt(math.pi))
        line = 2j * beta * np.exp(1j * beta * X) * oc.a_over_r2 * X * X * moll
        F = np.stack([smooth, line], axis=1)
        return [((G @ wy[:, None, :, None])[..., 0] @ wx[:, :, None])[..., 0]
                for G in (F, np.abs(F))]

    # the mollifier support needs panel edges at a +- a few widths
    edges = _panel_edges(g, spec, [a, a - 6.0 * width, a + 6.0 * width])
    [[smooth, line]] = _adaptive(f, 1, *edges, spec, [f"Jmn[{n}] smooth", "mollified line"])
    return smooth.value + line.value
