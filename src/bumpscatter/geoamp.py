"""First-order geometric scattering amplitude with closed-form coefficients.

The bump changes the metric seen by the particle; to first order in
eta = (delta/sigma)^2 the scattering amplitude picks up the correction

    f1 = -(1/2) sqrt(i / (2 pi K)) * <chi_out| L |chi_in>,

the matrix element of the curvature-induced operator L between the exact
unperturbed states: the dual state at the outgoing momentum K cos(theta)
(bra) and the incident state at k_x = K cos(theta0) (ket); sqrt(i) is
e^{i pi/4}.  In the frame rotated to the momentum transfer each state is
a plane wave plus N kinks, e^{i beta x} - i sum_n w_n e^{i beta |x - a_n|}
(the bra's kinks conjugated), with w = Ainv e, e_n = e^{i beta a_n} and
Ainv the inverse defect matrix at that state's momentum.  Number the
pieces 0 for the plane wave and n + 1 for the kink at a_n: the bra's
amplitudes are u = (1, -i w_out), the ket's v = (1, -i w_in), and with
T[a][b] the coefficient of bra piece a against ket piece b (every phase
position at 0) the bracket is one bilinear form over an (N+1) x (N+1)
table,

    sum_{a,b} u_a T[a][b] v_b,   T = [[I0, J~_n], [I~_m, C[m, n]]],

which costs 1 + 2N + N^2 coefficient evaluations per angle
(coefficient_table).  The terms are added by one math.fsum over the real
parts and one over the imaginary parts, which is exactly rounded and so
independent of their order.  A is symmetric, so w = Ainv e is also
Ainv^T e (DefectMatrix.weights).

Every entry but T[0][0] is one shape, computed by one kernel
(_kink_coefficient(g, bra, ket), a kink position or None on each side):

    sqrt(pi) * eta * [ sum_regions phase * int e^{-x^2 + i q x} p_kx(x) dx
                       + delta-line term ],

with p_kx the quartic that the operator leaves after the Gaussian y
integral, kx = +-beta (beta = s K, s = sin((theta - theta0)/2)) the ket's
slope on the region and q in {0, +-2 beta}.  The x integrals are half-line
Gaussian moments: an erfc for the zeroth and a two-term recursion for the
rest.  The erfc goes through the fused, overflow-safe specfun.exp_erfc;
every other exponent in the kernel has a non-positive real part, so no
intermediate exponential can overflow.  I0 keeps its own closed form.

Validation status (enforced by the test suite and the quadrature oracle in
bumpscatter.oracle): every coefficient matches adaptive quadrature of its
defining integral to better than 1e-6 relative across the acceptance grid,
and the kink coefficients match a 50-digit quadrature to 1e-12 relative
on points with K up to 5 and defects up to |alpha| = 6.

Special directions: at theta = theta0 and theta = pi - theta0 the
zeroth-order amplitude is a delta spike (see defects.f0_distributional)
and the first-order cross section is not defined pointwise; cross_section
refuses those angles.  At |cos theta| -> 0 with N >= 2 the outgoing defect
matrix degenerates (all entries approach i); f1 is then evaluated by
averaging theta +- 1e-6 rad, which cancels the leading divergence.  The
average cancels terms about 1e6 times larger than the result, so the
order of the arithmetic alone moves it; docs/math_to_code.md section 3
gives the measured size of that effect on the stock figure presets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .defects import (
    DefectMatrix,
    DefectSet,
    Kinematics,
    SingularMatrixError,
    build_defect_matrix,
)
from .specfun import SAFE_REAL_WINDOW, exp_erfc

__all__ = [
    "GeoCoefficientInputs",
    "I0_closed",
    "coefficient_table",
    "f1_geometric",
    "cross_section",
    "SingularAngleError",
]

SQPI = math.sqrt(math.pi)

# Offset of the averaged pair of angles used to cross theta = +-90 deg.
ANGLE_REG_EPS = 1e-6
# 1-norm condition number of the outgoing defect matrix that triggers
# averaging.
REG_COND_LIMIT = 1e12
# Angles closer than this (radians; 1e-6 deg) to the delta-supported
# directions are refused by cross_section and by the CLI's K scan, and
# nudged off them by its angle scan.
SINGULAR_ANGLE_TOL = math.radians(1e-6)


class SingularAngleError(ValueError):
    """Cross section requested on the delta-supported forward/mirror rays."""


@dataclass(frozen=True)
class GeoCoefficientInputs:
    """Everything the closed-form coefficients depend on.

    s, bigK enter through beta = s*K; alphas are the sigma-scaled defect
    positions (ascending); eta scales every coefficient linearly; lambda1
    and lambda2 weigh the two curvature contributions.
    """

    s: float
    bigK: float
    alphas: tuple
    eta: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if self.eta < 0.0 or not np.isfinite(self.eta):
            raise ValueError(f"eta must be a finite non-negative number, got {self.eta!r}")
        if not (abs(self.s) <= 1.0 and np.isfinite(self.bigK) and self.bigK > 0.0):
            raise ValueError(
                f"s must lie in [-1, 1] and K be positive, got s={self.s!r}, "
                f"K={self.bigK!r}"
            )
        if not (np.isfinite(self.lambda1) and np.isfinite(self.lambda2)):
            raise ValueError(
                f"lambda1 and lambda2 must be finite, got {self.lambda1!r}, {self.lambda2!r}"
            )
        for a in self.alphas:
            if abs(a) > SAFE_REAL_WINDOW:
                raise OverflowError(
                    f"defect offset |alpha| = {abs(a):.3g} exceeds the validated "
                    f"stable window ({SAFE_REAL_WINDOW})"
                )

    @property
    def beta(self) -> float:
        return self.s * self.bigK

    @property
    def p2(self) -> float:
        """Plane-plane bracket: K^2 (4 l1 s^2 - 1) + l2 (beta^4 + 2)."""
        b = self.beta
        return (
            self.bigK**2 * (4.0 * self.lambda1 * self.s**2 - 1.0)
            + self.lambda2 * (b**4 + 2.0)
        )


def I0_closed(g: GeoCoefficientInputs) -> float:
    """Plane-wave x plane-wave coefficient.

    I0 = (pi eta / 2) e^{-beta^2} [ K^2 (4 l1 s^2 - 1) + l2 (beta^4 + 2) ].
    """
    b = g.beta
    return 0.5 * math.pi * g.eta * math.exp(-b * b) * g.p2


# ---------------------------------------------------------------------------
# Gaussian half-line moment kernel
# ---------------------------------------------------------------------------


def _half_line(c, q: float, a: float, side: float) -> complex:
    """sum_k c[k] M_k for the moments M_k = int x^k e^{-x^2 + i q x} dx over
    x > a (side = 1) or x < a (side = -1), k = 0..4.

    M_0 = (sqrt(pi)/2) e^{-q^2/4} erfc(side (a - i q/2)) and, integrating
    (x^k e^{-x^2 + i q x})' by parts,
    M_{k+1} = (side a^k e^{-a^2 + i q a} + k M_{k-1} + i q M_k) / 2.
    The empty half-lines beyond +-inf give 0.
    """
    if math.isinf(a):
        return 0.0
    iq = 1j * q
    m0 = 0.5 * SQPI * exp_erfc(-0.25 * q * q, side * (a - 0.5 * iq))
    edge = side * cmath.exp(a * (iq - a))
    m1 = 0.5 * (edge + iq * m0)
    edge *= a
    m2 = 0.5 * (edge + m0 + iq * m1)
    edge *= a
    m3 = 0.5 * (edge + 2.0 * m1 + iq * m2)
    edge *= a
    m4 = 0.5 * (edge + 3.0 * m2 + iq * m3)
    return c[0] * m0 + c[1] * m1 + c[2] * m2 + c[3] * m3 + c[4] * m4


def _kink_coefficient(g: GeoCoefficientInputs, bra: float | None = None,
                      ket: float | None = None) -> complex:
    """Coefficient of a bra kink at `bra` against a ket kink at `ket`, with
    every phase position at 0; None puts the plane wave on that side.

    The y integral of the defining integral is Gaussian, which leaves

        eta sqrt(pi) [ sum_regions int e^{-x^2} bra(x) ket(x) p_kx(x) dx
                       + 2 i beta a^2 e^{-a^2} bra(a) ],

    the last term only for a ket kink at a (the delta line of its second
    derivative).  The regions are the x intervals cut at the kinks; on each,
    kx = +-beta is the ket's slope and bra(x) ket(x) = phase e^{i q x}, with
    bra factors e^{i beta x} (plane) or e^{-i beta |x - a|} (kink) and ket
    factors e^{i beta x} or e^{i beta |x - a|}.  The quartic is L applied to
    the ket piece after the y integral, gamma^2 = K^2 - beta^2:

        p_kx(x) = (-4 gamma^2 + 8 l1 + 11 l2)/8 + (3 i kx/2) x
                  - (kx^2 + 2 l1 + 3 l2/2) x^2 - i kx x^3 + (l2/2) x^4.

    q is 0 or 2 kx, and the full-line integral of e^{-x^2 + i q x} p_kx has
    a closed form: sqrt(pi) (l2 - K^2/2) at q = 0, and I0 / (eta sqrt(pi))
    = sqrt(pi) e^{-beta^2} p2 / 2 at q = 2 kx.  An interval in x <= 0 is
    the difference of two left half-lines, one in x >= 0 of two right
    half-lines, and one across 0 is the full line minus the two outer
    half-lines.  No half-line then holds the bulk of the Gaussian, so the
    result keeps its relative accuracy where the full-line integral
    cancels (K^2 = 2 l2 at q = 0).  At beta = 0 every kink factor and the
    line term are trivial and the coefficient is I0 exactly.
    """
    b = g.beta
    if b == 0.0:
        return I0_closed(g)
    l1, l2 = g.lambda1, g.lambda2
    c0 = 0.125 * (-4.0 * (g.bigK**2 - b * b) + 8.0 * l1 + 11.0 * l2)
    c2 = -(b * b + 2.0 * l1 + 1.5 * l2)
    c4 = 0.5 * l2
    edges = [-math.inf, *sorted({a for a in (bra, ket) if a is not None}), math.inf]
    total = 0j
    for lo, hi in zip(edges, edges[1:]):
        # x momentum and constant phase of bra(x) ket(x) on (lo, hi)
        q, phase, kx = 2.0 * b, 0.0, b
        if bra is not None:
            sb = 1.0 if lo >= bra else -1.0
            q -= (1.0 + sb) * b
            phase += sb * bra
        if ket is not None:
            sg = 1.0 if lo >= ket else -1.0
            kx = sg * b
            q += kx - b
            phase -= sg * ket
        c = (c0, 1.5j * kx, c2, -1j * kx, c4)
        if hi <= 0.0:
            part = _half_line(c, q, hi, -1.0) - _half_line(c, q, lo, -1.0)
        elif lo >= 0.0:
            part = _half_line(c, q, lo, 1.0) - _half_line(c, q, hi, 1.0)
        else:  # across 0: the full line minus the two outer half-lines
            full = (SQPI * (l2 - 0.5 * g.bigK**2) if q == 0.0
                    else 0.5 * SQPI * math.exp(-b * b) * g.p2)
            part = full - _half_line(c, q, lo, -1.0) - _half_line(c, q, hi, 1.0)
        total += cmath.exp(1j * b * phase) * part
    if ket is not None:
        x_bra = b * ket if bra is None else -b * abs(ket - bra)
        total += 2j * b * ket * ket * cmath.exp(-ket * ket + 1j * x_bra)
    return g.eta * SQPI * total


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def coefficient_table(g: GeoCoefficientInputs) -> list:
    """The (N+1) x (N+1) table of g's pieces, 0 the plane wave and n + 1 the
    kink at alpha_n, every phase position at 0: T[0][0] is I0, T[n+1][0]
    the bra kink I~_n, T[0][n+1] the ket kink J~_n and T[m+1][n+1] the kink
    pair C[m, n]."""
    pieces = (None, *g.alphas)
    return [[I0_closed(g) if bra is None and ket is None
             else _kink_coefficient(g, bra, ket) for ket in pieces] for bra in pieces]


def geo_inputs(
    kin: Kinematics,
    defects: DefectSet,
    eta: float,
    lambda1: float,
    lambda2: float,
) -> GeoCoefficientInputs:
    """Bundle kinematics + geometry into closed-form coefficient inputs."""
    return GeoCoefficientInputs(
        s=kin.s,
        bigK=kin.bigK,
        alphas=defects.positions,
        eta=eta,
        lambda1=lambda1,
        lambda2=lambda2,
    )


def _f1_direct(
    kin: Kinematics,
    defects: DefectSet,
    eta: float,
    lambda1: float,
    lambda2: float,
    dm_out: DefectMatrix | None = None,
) -> complex:
    """f1 at one angle; dm_out is the outgoing defect matrix if already built.

    The bracket is sum_ab u_a T[a][b] v_b over the plane (0) and kink (n + 1)
    pieces, as in the module docstring, summed exactly by math.fsum.
    """
    g = geo_inputs(kin, defects, eta, lambda1, lambda2)
    w_out = w_in = []
    if defects.n > 0:
        if dm_out is None:
            dm_out = build_defect_matrix(kin.kx_out, defects)
        e = np.array([cmath.exp(1j * g.beta * a) for a in g.alphas])
        w_out = dm_out.weights(e).tolist()
        w_in = build_defect_matrix(kin.kx, defects).weights(e).tolist()
    u = [1.0] + [-1j * w for w in w_out]
    v = [1.0] + [-1j * w for w in w_in]
    terms = [ua * t * vb for ua, row in zip(u, coefficient_table(g)) for t, vb in zip(row, v)]
    bracket = complex(math.fsum([z.real for z in terms]), math.fsum([z.imag for z in terms]))
    pref = -0.5 * cmath.exp(1j * math.pi / 4.0) / math.sqrt(2.0 * math.pi * kin.bigK)
    return pref * bracket


def f1_geometric(
    kin: Kinematics,
    defects: DefectSet,
    eta: float,
    lambda1: float,
    lambda2: float,
) -> complex:
    """First-order geometric scattering amplitude f1(theta).

    Exactly linear in eta.  Near theta = +-90 deg with N >= 2 defects the
    outgoing defect matrix degenerates (it is singular or its condition
    number exceeds REG_COND_LIMIT); f1 is then evaluated as the average
    over theta +- 1e-6 rad, which cancels the leading divergence (the
    averaged value changes by < 1e-4 relative when the offset shrinks
    tenfold; the test suite checks this).
    """
    dm_out = None
    if defects.n >= 2:
        try:
            dm_out = build_defect_matrix(kin.kx_out, defects)
            bad = dm_out.cond > REG_COND_LIMIT
        except SingularMatrixError:
            bad = True
        if bad:
            up = replace(kin, theta=kin.theta + ANGLE_REG_EPS)
            dn = replace(kin, theta=kin.theta - ANGLE_REG_EPS)
            fu = _f1_direct(up, defects, eta, lambda1, lambda2)
            fd = _f1_direct(dn, defects, eta, lambda1, lambda2)
            return 0.5 * (fu + fd)
    return _f1_direct(kin, defects, eta, lambda1, lambda2, dm_out)


def cross_section(
    kin: Kinematics,
    defects: DefectSet,
    eta: float,
    lambda1: float,
    lambda2: float,
) -> float:
    """Differential cross section |f1|^2 (sigma-scaled units).

    Not defined on the delta-supported directions theta0 and pi - theta0
    where the zeroth-order amplitude concentrates; use
    defects.f0_distributional for those weights.
    """
    th = kin.theta
    for special in (kin.theta0, math.pi - kin.theta0):
        if abs(math.remainder(th - special, 2.0 * math.pi)) < SINGULAR_ANGLE_TOL:
            raise SingularAngleError(
                f"theta = {th!r} lies on a delta-supported direction of the "
                "flat-defect amplitude; pointwise |f1|^2 is not meaningful "
                "there (use defects.f0_distributional for the spike weights)"
            )
    f1 = f1_geometric(kin, defects, eta, lambda1, lambda2)
    return abs(f1) ** 2
