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
Ainv the inverse defect matrix at that state's momentum (A is symmetric,
so w is also Ainv^T e: DefectMatrix.weights).  Number the pieces 0 for
the plane wave and n + 1 for the kink at a_n: the bra's amplitudes are
u = (1, -i w_out), the ket's v = (1, -i w_in), and the bracket is the
bilinear form sum_ab u_a T[a][b] v_b over the (N+1) x (N+1) table of
piece coefficients, every phase position at 0 (coefficient_table).

The bracket is evaluated in O(N) per point, without the table: between
neighbouring defects each state is two exponentials, so it is region
integrals of e^{-x^2 + i q x} p_kx weighted by prefix and suffix sums of
u and v, plus one line term per defect (_bracket_terms).  p_kx is the
quartic that L leaves after the Gaussian y integral, kx = +-beta
(beta = s K, s = sin((theta - theta0)/2)) the ket's slope on the region
and q in {0, +-2 beta}.  The region integrals are differences of
half-line Gaussian moments (_half_line_moments), computed once per
scan state.  coefficient_table is the same kernel at unit amplitudes,
so the oracle checks the numbers that every scan contracts.  I0 keeps
its own closed form; it is the bracket at beta = 0 and at N = 0.

Evaluation is array-first: f1_arrays takes a whole K or theta scan as one
array Kinematics and returns f1 as two float arrays (real, imag), and
f1_scan, f1_geometric and cross_section are adapters on it; all four
take eta and the curvature weights as floats.  A scan is two steps.  Its
state (_scan_state) holds what depends on neither eta nor the curvature
weights: the points (beta = s K and K) and defect positions, the defect
builds, amplitudes, phases, prefix and suffix sums, half-line moments
and the powers in p2.  The contraction, _bracket_terms(state, eta,
lambda1, lambda2), reads the points and defects from the state alone,
weighs the moments by the curvature weights, forms the region and line
terms, and sums them; the f1 path builds no GeoCoefficientInputs, which
stays the input of coefficient_table, I0_closed and the oracle.  The
state of the last scan is kept and contracted again while the next scan
has the same K, theta, theta0 and defects, bit for bit: the four
curvature settings of a preset build it once.  A scan costs one
contraction, and one state build (the defect builds and one erfcx call,
see f1_arrays) unless its state is kept, whatever its length.  Every
product is Python's complex *, taken on the real and imaginary parts as
float arrays (numpy's complex * rounds differently), and each bracket is
one math.fsum over the real parts of its terms and one over the
imaginary parts.  So a scan and one call per point give the same numbers
bit for bit.

Validation status (enforced by the test suite and the quadrature oracle in
bumpscatter.oracle): every table entry matches adaptive quadrature of its
defining integral to better than 1e-6 relative across the acceptance grid,
and the kink coefficients match a 50-digit quadrature to 1e-12 relative
on points with K up to 5 and defects up to |alpha| = 6 away from 0.  A
defect at 0 is the exception: the region sum cancels beside it, and the
worst table entry on the verification grid (defects -3, 0, 3) is only
8.8e-12 relative against 50 digits (ROADMAP item 10).

Special directions: at theta = theta0 and theta = pi - theta0 the
zeroth-order amplitude is a delta spike (see defects.f0_distributional)
and the first-order cross section is not defined pointwise;
delta_ray_offset measures an angle's distance to them, and cross_section
refuses the angles within SINGULAR_ANGLE_TOL.  At |cos theta| -> 0 with
N >= 2 the outgoing defect matrix degenerates (all entries approach i);
f1 is then evaluated by averaging theta +- 1e-6 rad, both flanks on the
point's own branch of s (at theta = -90 deg too, the lower edge of
Kinematics' angles), which cancels the leading divergence and terms up
to about 1e8 times the result, so the order of the arithmetic alone
moves it (docs/math_to_code.md section 3).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .defects import (DefectMatrix, DefectSet, InputError, Kinematics, _each, _remainder_2pi,
                      build_defect_matrix)
from .specfun import SAFE_REAL_WINDOW, eexp, erfcx_c, unbox

__all__ = [
    "GeoCoefficientInputs",
    "I0_closed",
    "coefficient_table",
    "f1_arrays",
    "f1_scan",
    "f1_geometric",
    "cross_section",
    "modulus_squared",
    "delta_ray_offset",
    "SingularAngleError",
]

SQPI = math.sqrt(math.pi)

# -(1/2) e^{i pi/4}, the constant factor of f1's prefactor.
_PREF = -0.5 * cmath.exp(1j * math.pi / 4.0)

# Offset of the averaged pair of angles used to cross theta = +-90 deg.
ANGLE_REG_EPS = 1e-6
# 1-norm condition number of the outgoing defect matrix that triggers
# averaging.
REG_COND_LIMIT = 1e12
# Angles with |delta_ray_offset| below this (radians; 1e-6 deg) are
# refused by cross_section and by the CLI's K scan, and nudged off the ray
# by its angle scan.
SINGULAR_ANGLE_TOL = math.radians(1e-6)


class SingularAngleError(ValueError):
    """Cross section requested on the delta-supported forward/mirror rays."""


@dataclass(frozen=True)
class GeoCoefficientInputs:
    """Everything the closed-form coefficients depend on.

    s, bigK enter through beta = s*K; alphas are the sigma-scaled defect
    positions (ascending); eta scales every coefficient linearly; lambda1
    and lambda2 weigh the two curvature contributions.  s and bigK are
    floats, or 1-D arrays of one length for a scan: every coefficient is
    then an array with one value per point; any other shapes raise
    InputError.  lambda1 and lambda2 are floats, or with array s arrays
    of its length: one weight per point.
    """

    s: float | np.ndarray
    bigK: float | np.ndarray
    alphas: tuple
    eta: float
    lambda1: float | np.ndarray
    lambda2: float | np.ndarray

    def __post_init__(self):
        arrays = isinstance(self.s, np.ndarray) and isinstance(self.bigK, np.ndarray)
        if np.shape(self.s) != np.shape(self.bigK) or np.ndim(self.s) > int(arrays):
            raise InputError(f"s and bigK must both be numbers or both 1-D arrays of one length, "
                             f"got shapes {np.shape(self.s)} and {np.shape(self.bigK)}")
        if not ((np.abs(self.s) <= 1.0) & np.isfinite(self.bigK) & (self.bigK > 0.0)).all():
            raise InputError(
                f"s must lie in [-1, 1] and K be positive, got s={self.s!r}, "
                f"K={self.bigK!r}"
            )
        if {np.shape(self.lambda1), np.shape(self.lambda2)} - {(), np.shape(self.s)}:
            raise InputError(f"lambda1 and lambda2 must be floats or hold one weight per point "
                             f"of s, got {self.lambda1!r}, {self.lambda2!r} for s={self.s!r}")
        _check_settings(self.eta, self.lambda1, self.lambda2, self.alphas)

    @cached_property
    def beta(self):
        return self.s * self.bigK


def _check_settings(eta, lambda1, lambda2, alphas) -> None:
    """The checks of GeoCoefficientInputs that do not read its points: eta,
    the curvature weights' values, the order of the defects and their
    window (OverflowError past |alpha| = SAFE_REAL_WINDOW).  eta is one
    value: an array eta, of any length, raises InputError."""
    if np.ndim(eta) or not (eta >= 0.0 and math.isfinite(eta)):
        raise InputError(f"eta must be a finite non-negative number, got {eta!r}")
    if not (np.isfinite(lambda1) & np.isfinite(lambda2)).all():
        raise InputError(f"lambda1 and lambda2 must be finite, got {lambda1!r}, {lambda2!r}")
    if any(a > b for a, b in zip(alphas, alphas[1:])):
        raise InputError(f"alphas must be ascending, got {alphas!r}")
    for a in alphas:
        if abs(a) > SAFE_REAL_WINDOW:
            raise OverflowError(
                f"defect offset |alpha| = {abs(a):.3g} exceeds the validated "
                f"stable window ({SAFE_REAL_WINDOW})"
            )


def _powers(s, k):
    """K^2, s^2 and beta^4 (beta = s K), the powers in p2, each one value or
    one array over the points.  They are libm's pow, as Python's float **
    and math.pow take it, which numpy's power does not match bit for bit;
    the rest of p2 is one IEEE operation at a time in the written order
    (_p2).  So I0, and with it every N = 0 amplitude, keeps its value bit
    for bit, alone or in a scan."""
    if np.ndim(s) == 0:
        return k**2, s**2, (s * k) ** 4
    n = s.size
    powers = map(math.pow, [*k.tolist(), *s.tolist(), *(s * k).tolist()],
                 [2.0] * (2 * n) + [4.0] * n)
    return np.array(list(powers)).reshape(3, -1)


def _p2(powers, lambda1, lambda2):
    """The plane-plane bracket K^2 (4 l1 s^2 - 1) + l2 (beta^4 + 2) from the
    powers of the points (_powers)."""
    k2, s2, b4 = powers
    return k2 * (4.0 * lambda1 * s2 - 1.0) + lambda2 * (b4 + 2.0)


def _full_lines(beta, bigK, lambda2, p2) -> tuple:
    """The full-line integrals of e^{-x^2 + i q x} p_kx (_half_line_table)
    at q = 0, sqrt(pi) (l2 - K^2/2), and at q = 2 kx, sqrt(pi)
    e^{-beta^2} p2 / 2 = I0 / (eta sqrt(pi)), for regions across 0; p2 is
    _p2 of the points."""
    return (SQPI * (lambda2 - 0.5 * bigK**2), 0.5 * SQPI * _gauss(beta) * p2)


def _plane_coefficient(beta, eta, p2):
    """I0 at the points beta from their _p2, one value or an array."""
    return 0.5 * math.pi * eta * _gauss(beta) * p2


def _kink_phases(beta, alphas) -> np.ndarray:
    """e^{i beta a_n}, (defect, point); a float beta has one point."""
    return np.exp(1j * np.array(beta, ndmin=1) * np.array(alphas)[:, None])


def _gauss(b):
    """e^{-b^2} for a float or real array.  numpy's real exp differs from
    math.exp in the last bit on some inputs, its complex exp does not."""
    return np.exp(np.asarray(-b * b, dtype=complex)).real


def I0_closed(g: GeoCoefficientInputs):
    """Plane-wave x plane-wave coefficient.

    I0 = (pi eta / 2) e^{-beta^2} [ K^2 (4 l1 s^2 - 1) + l2 (beta^4 + 2) ].
    """
    p2 = _p2(_powers(g.s, g.bigK), g.lambda1, g.lambda2)
    return unbox(_plane_coefficient(g.beta, g.eta, p2))


# ---------------------------------------------------------------------------
# Gaussian half-line moment kernel
# ---------------------------------------------------------------------------


# The (q / beta, kx / beta) pairs a region integral takes, in the order of
# the last axis of _half_line_table: q = 2 kx, or q = 0 for either sign of kx.
_PAIRS = {(2.0, 1.0): 0, (0.0, 1.0): 1, (0.0, -1.0): 2, (-2.0, -1.0): 3}


def _half_line_table(beta, bigK, moments: np.ndarray, l1, l2) -> np.ndarray:
    """sum_k c[k] M_k for the moments M_k = int x^k e^{-x^2 + i q x} dx over
    x < a (side 0) or x > a (side 1), k = 0..4, and the coefficients c of
    the quartic that L leaves on a ket piece of x slope kx after the y
    integral (gamma^2 = K^2 - beta^2),

        p_kx(x) = (-4 gamma^2 + 8 l1 + 11 l2)/8 + (3 i kx/2) x
                  - (kx^2 + 2 l1 + 3 l2/2) x^2 - i kx x^3 + (l2/2) x^4,

    as one (defect, side, pair) array [with a last axis over the points
    when beta is an array]: defect i is the moments' defect i, and pair
    _PAIRS[qb, sg] has q = qb beta and kx = sg beta.  moments are
    _half_line_moments at beta; bigK and the curvature weights l1 and l2
    are floats or hold one value per point.  Only two values of
    q are distinct: at qb = 0 the moments do not depend on beta, and at
    qb = -2 they are the conjugates of those at qb = 2 (exactly: erfcx's
    conjugate symmetry holds bit for bit).  The moments do not depend on
    the curvature weights; this weighted sum is the step that does.
    """
    b = np.asarray(beta, dtype=float)
    p = b.size
    c0 = 0.125 * (-4.0 * (bigK**2 - b * b) + 8.0 * l1 + 11.0 * l2)
    c2 = -(b * b + 2.0 * l1 + 1.5 * l2)
    c4 = 0.5 * l2
    kx = np.array([1.0, -1.0])[:, None] * b  # sg = 1, -1
    c1, c3 = 1.5j * kx, -1j * kx

    def weighted(m, j):  # sum_k c[k] M_k at kx = sg[j] beta
        return c0 * m[0] + c1[j] * m[1] + c2 * m[2] + c3[j] * m[3] + c4 * m[4]

    # (defect, side, pair, point) in the order of _PAIRS; a float beta
    # drops the point axis
    at_2b = moments[..., :p]
    table = np.empty(moments.shape[1:3] + (len(_PAIRS), p), dtype=complex)
    table[:, :, 0] = weighted(at_2b, 0)
    table[:, :, 1:3] = weighted(moments[..., None, p:], slice(None))
    table[:, :, 3] = weighted(at_2b.conj(), 1)
    return table.reshape(table.shape[:3] + b.shape)


def _half_line_moments(beta, alphas) -> np.ndarray:
    """The half-line moments M_0 .. M_4 of _half_line_table at the points
    beta, as one (moment, defect, side, q) array: q = 2 beta at each point,
    then q = 0 in the last column.

    M_0 = (sqrt(pi)/2) e^{-q^2/4} erfc(side (a - i q/2)) and, integrating
    (x^k e^{-x^2 + i q x})' by parts,
    M_{k+1} = (side a^k e^{-a^2 + i q a} + k M_{k-1} + i q M_k) / 2.
    So the moments are one recursion over a (defect, side, point) array of
    q = 2 beta at the points plus one column of q = 0.

    The two sides of a defect take erfc at w = a - i q/2 and at -w, and
    share one erfcx: R = e^{x - w^2} erfcx(r) for r the one of +-w in the
    right half plane, and 2 e^x - R for the other (x = -q^2/4), the
    operations specfun.exp_erfc makes.  At a = 0 both lie on the imaginary
    axis and take erfcx(|q|/2 i) or its conjugate.  erfcx is evaluated once
    per distinct |a| and point, on the first quadrant: n(P + 1) arguments
    for n distinct |a| and P points.  No exponent here has a positive real
    part, so no element can overflow.
    """
    b = np.asarray(beta, dtype=float)
    p = b.size
    q = np.zeros(p + 1)
    q[:p] = 2.0 * b.reshape(-1)
    iq = 1j * q
    x = -0.25 * q * q
    abs_a = sorted({abs(a) for a in alphas})
    r = np.empty((len(abs_a), p + 1), dtype=complex)
    r.real, r.imag = np.array(abs_a)[:, None], 0.5 * np.abs(q)
    cx = erfcx_c(r)[[abs_a.index(abs(a)) for a in alphas]]
    alphas = np.array(alphas, dtype=float)
    w = alphas[:, None] - 0.5 * iq
    # e^{x - w^2} at each defect and, in the last row, e^x
    e = eexp(np.vstack([x - w * w, x]))
    # R = e^{x - w^2} erfcx(r) for r = -w (side 0) and w (side 1) taken into
    # the right half plane, |a| + i q/2 and |a| - i q/2: cx or its conjugate
    r_side = e[:-1, None] * np.where(np.stack([q < 0.0, q > 0.0]), cx.conj()[:, None],
                                     cx[:, None])
    a = alphas.reshape(-1, 1, 1)
    side = np.array([-1.0, 1.0]).reshape(1, 2, 1)
    m = np.empty((5, alphas.size, 2, p + 1), dtype=complex)
    # a side whose argument is in the left half plane takes 2 e^x - R
    m[0] = 0.5 * SQPI * np.where(side * a < 0.0, 2.0 * e[-1] - r_side[:, ::-1], r_side)
    iq = iq[None, None]
    edge = side * np.exp(a * (iq - a))
    m[1] = 0.5 * (edge + iq * m[0])
    edge *= a
    m[2] = 0.5 * (edge + m[0] + iq * m[1])
    edge *= a
    m[3] = 0.5 * (edge + 2.0 * m[1] + iq * m[2])
    edge *= a
    m[4] = 0.5 * (edge + 3.0 * m[2] + iq * m[3])
    return m


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y for complex numbers held as (real, imag) along the first axis
    of float arrays, each operation rounded once in the order Python's
    complex * takes them: its product bit for bit."""
    out = np.empty((2,) + np.broadcast(x[0], y[0]).shape)
    np.multiply(x[0], y[0], out=out[0])
    out[0] -= x[1] * y[1]
    np.multiply(x[0], y[1], out=out[1])
    out[1] += x[1] * y[0]
    return out


def _running(start, parts: np.ndarray, reverse: bool) -> np.ndarray:
    """start, then start plus parts[..., 0, :], parts[..., 1, :], ... along
    axis -2 (from the last part back when reverse): one row per region.
    One np.add per region: np.cumsum gives the same bits but accumulates
    point by point, which costs more on the few rows and many points of a
    scan."""
    n = parts.shape[-2]
    sums = np.empty(parts.shape[:-2] + (n + 1,) + parts.shape[-1:])
    rows = range(n, -1, -1) if reverse else range(n + 1)
    sums[..., rows[0], :] = start
    for prev, row in zip(rows, rows[1:]):
        np.add(sums[..., prev, :], parts[..., min(prev, row), :], out=sums[..., row, :])
    return sums


def _nonzero_terms(n: int) -> np.ndarray:
    """The region terms of the bracket that are not zero, as a mask over
    (bra row, ket row, region): Q_0 = D_N = 0 (_bracket_terms)."""
    nonzero = np.ones((2, 2, n + 1), dtype=bool)
    nonzero[1, :, 0] = nonzero[:, 1, n] = False
    return nonzero


class _ScanState(NamedTuple):
    """What the bracket at a set of points takes from their kinematics and
    defects, and not from eta or the curvature weights: _state builds it
    and _bracket_terms contracts it, reading the points and defects from it
    alone.  Complex numbers in float arrays are (real, imag) along the
    first axis."""

    beta: np.ndarray      # the points evaluated (beta = s K, K): a scan's,
    bigK: np.ndarray      # with each averaged point's two flanks in its place
    alphas: tuple         # the defect positions, ascending
    averaged: np.ndarray  # the scan's points taken as the mean of their flanks
    powers: np.ndarray    # K^2, s^2 and beta^4 (_powers)
    moments: np.ndarray   # the half-line moments (_half_line_moments)
    products: np.ndarray  # P C, Q C, P D and Q D of each nonzero region term
    kinks: np.ndarray     # v_n (P_n e_n + Q_n e_n*) of each line term
    plane: np.ndarray     # P_0 C_N, the product of the bracket at beta = 0
                          # (None if no point has beta = 0)


def _state(s, bigK, alphas: tuple, phases: np.ndarray, u: np.ndarray, v: np.ndarray,
           averaged=None) -> _ScanState:
    """The _ScanState of the points (s, K) for defects at alphas, with the
    phases e_n = e^{i beta a_n} (_kink_phases; None without defects) and
    the bra and ket amplitudes u and v, complex (..., piece, point) arrays
    whose leading axes broadcast (see _bracket_terms).  It keeps beta =
    s K, K and alphas as the points and defects the contraction reads,
    and s only through the powers in p2 (_powers)."""
    n = len(alphas)
    beta = s * bigK
    u, v = (np.stack([w.real, w.imag]) for w in (u, v))
    moments = products = kinks = plane = None
    if not n:  # P_0 = u_0 and C_0 = v_0
        plane = _cmul(u, v)
    else:
        e = phases
        # (e_n*, e_n) on an axis before (piece, point)
        pair = np.array([[e.real, e.real], [-e.imag, e.imag]])
        ue, ve = (_cmul(w[..., None, 1:, :], pair) for w in (u, v))
        bra = np.stack([_running(u[..., 0, :], ue[..., 0, :, :], True),
                        _running(0.0, ue[..., 1, :, :], False)], axis=-3)  # P, Q
        ket = np.stack([_running(v[..., 0, :], ve[..., 0, :, :], False),
                        _running(0.0, ve[..., 1, :, :], True)], axis=-3)  # C, D
        # (part, ..., term, point): pair i + 2 j of a region takes bra row i
        # and ket row j (PC, QC, PD, QD)
        products = _cmul(bra[..., :, None, :, :],
                         ket[..., None, :, :, :])[..., _nonzero_terms(n), :]
        at_kinks = _cmul(bra[..., 1:, :], pair[:, ::-1]).sum(axis=-3)  # P_n e_n + Q_n e_n*
        kinks = _cmul(v[..., 1:, :], at_kinks)
        if not np.all(beta):  # a point at beta = 0
            plane = _cmul(bra[..., 0, :1, :], ket[..., 0, n:, :])
        moments = _half_line_moments(beta, alphas)
    return _ScanState(beta, bigK, alphas, averaged, _powers(s, bigK), moments, products, kinks,
                      plane)


def _bracket_terms(state: _ScanState, eta: float, lambda1, lambda2) -> np.ndarray:
    """The terms of the bracket sum_ab u_a T[a][b] v_b at every point of
    state, for its defects: a float array (part, ..., term, point), part 0
    the real parts and 1 the imaginary parts.  state is _state for bra and
    ket amplitudes u and v whose leading axes are those of the result; a
    state of a float beta has one point.  This is the step that takes eta
    and the curvature weights lambda1 and lambda2 (floats, or one weight
    per point): one state can be contracted at any of them.

    On region r = 0..N, between kinks r and r + 1, the states are
    U = P_r e^{i beta x} + Q_r e^{-i beta x} and
    V = C_r e^{i beta x} (slope +beta) + D_r e^{-i beta x} (slope -beta),
    with P_r = u_0 + sum_{n>r} u_n e_n*, Q_r = sum_{n<=r} u_n e_n,
    C_r = v_0 + sum_{n<=r} v_n e_n* and D_r = sum_{n>r} v_n e_n
    (e_n = e^{i beta a_n}).  So the bracket is eta sqrt(pi) times

        sum_r [P C R(r; 2, +) + Q C R(r; 0, +) + P D R(r; 0, -) + Q D R(r; -2, -)]
        + sum_n v_n (2 i beta a_n^2 e^{-a_n^2}) (P_n e_n + Q_n e_n*),

    the last sum the delta line of each ket kink against the bra's value
    on it.  Q_0 = D_N = 0, so four of the region terms are zero and are
    left out: 5N terms.  R(r; qb, sg) is the integral of
    e^{-x^2 + i qb beta x} p_kx (kx = sg beta) over region r: in x <= 0 the
    difference of two left half-lines, in x >= 0 of two right half-lines,
    and across 0 the full line less the two outer half-lines.  No
    half-line then holds the bulk of the Gaussian, so a region keeps its
    relative accuracy where the full line cancels (K^2 = 2 l2 at q = 0);
    a defect at 0 splits the bulk between its two regions, whose terms
    can then cancel (docs/math_to_code.md section 3).

    Every product is _cmul and every sum a running sum, so the terms do not
    depend on the platform's complex arithmetic.  At beta = 0, and at every
    point when N = 0, the kink factors and line terms are trivial: the
    terms are P_0 C_N I0 (the sum of u times the sum of v times I0) and
    zeros, so that the bracket is that product exactly.
    """
    n = len(state.alphas)
    b = np.array(state.beta, dtype=float, ndmin=1)
    at_zero = (b == 0.0) | (n == 0)
    p2 = _p2(state.powers, lambda1, lambda2)
    i0 = np.zeros((2,) + b.shape)
    if at_zero.any():
        i0[0] = _plane_coefficient(state.beta, eta, p2)
    if not n:
        return _cmul(state.plane, i0)
    # R(r; qb, sg) as (region, pair, point), pairs in the order of _PAIRS,
    # from the half-lines x < a and x > a at the region's edges
    half = _half_line_table(state.beta, state.bigK, state.moments, lambda1,
                            lambda2).reshape(n, 2, len(_PAIRS), -1)
    f0, f2 = _full_lines(state.beta, state.bigK, lambda2, p2)
    full = np.array([f2, f0, f0, f2]).reshape(len(_PAIRS), -1)
    regions = np.empty((n + 1,) + half.shape[2:], dtype=complex)
    for r in range(n + 1):
        lo, hi = half[r - 1] if r else (0.0, 0.0), half[r] if r < n else (0.0, 0.0)
        if r < n and state.alphas[r] <= 0.0:
            regions[r] = hi[0] - lo[0]
        elif r and state.alphas[r - 1] >= 0.0:
            regions[r] = lo[1] - hi[1]
        else:
            regions[r] = full - lo[0] - hi[1]
    # (part, bra row, ket row, region, point), the nonzero terms as state.products
    regions = eta * SQPI * np.stack([regions.real, regions.imag])
    regions = regions.reshape(2, n + 1, 2, 2, -1).transpose(0, 3, 2, 1, 4)
    terms = _cmul(state.products, regions[:, _nonzero_terms(n)])
    a = np.array(state.alphas)
    line = np.zeros((2, n, b.size))
    line[1] = eta * SQPI * 2.0 * b * (a * a)[:, None] * _gauss(a)[:, None]
    out = np.concatenate([terms, _cmul(state.kinks, line)], axis=-2)
    if at_zero.any():
        out[..., at_zero] = 0.0
        out[..., :1, at_zero] = _cmul(state.plane, i0)[..., at_zero]
    return out


def coefficient_table(g: GeoCoefficientInputs) -> list:
    """The (N+1) x (N+1) table of g's pieces, 0 the plane wave and n + 1 the
    kink at alpha_n, every phase position at 0: T[0][0] is I0, T[n+1][0]
    the bra kink I~_n, T[0][n+1] the ket kink J~_n and T[m+1][n+1] the kink
    pair C[m, n].  Each entry is a number, or an array with one value per
    point when g holds a scan.  Entry (a, b) is the math.fsum of
    _bracket_terms at the unit amplitudes of pieces a and b, on a state
    built for this call: the region integrals and prefix algebra that
    every scan contracts.  At beta = 0 every entry is I0 exactly."""
    eye = np.eye(len(g.alphas) + 1, dtype=complex)[..., None]
    state = _state(g.s, g.bigK, g.alphas, _kink_phases(g.beta, g.alphas), eye[:, None], eye)
    terms = np.moveaxis(_bracket_terms(state, g.eta, g.lambda1, g.lambda2), -2, -1)
    re, im = np.array(list(map(math.fsum, terms.reshape(-1, terms.shape[-1]).tolist()))
                      ).reshape(terms.shape[:-1])
    table = re.astype(complex)
    table.imag = im
    return table[..., 0].tolist() if np.ndim(g.beta) == 0 else [list(row) for row in table]


def _scan_state(kin: Kinematics, defects: DefectSet) -> _ScanState:
    """The _ScanState of kin's points (one point, or a scan) and defects,
    with read-only arrays.

    One defect build, of the outgoing matrices and of the incoming ones at
    the distinct kx = K cos(theta0).  With N >= 2, a point whose outgoing
    matrix is singular or past REG_COND_LIMIT is replaced by its flanks
    theta +- ANGLE_REG_EPS (one more outgoing build, of the flanks alone,
    spliced into the points in its place; a flank has its point's kx), and
    is marked averaged.  A flank's s and kx_out are Kinematics' formulas
    at the unnormalised angle, so both flanks stay on the point's branch
    of s = sin((theta - theta0)/2).
    """
    bigK = np.array(kin.bigK, dtype=float, ndmin=1)
    s = np.array(kin.s, ndmin=1)
    averaged = np.zeros(bigK.size, dtype=bool)
    if defects.n > 0:
        kx, at_in = np.unique(np.array(kin.kx, ndmin=1), return_inverse=True)
        dm = build_defect_matrix(np.concatenate([np.array(kin.kx_out, ndmin=1), kx]), defects)
        dm_out, dm_in = dm[:bigK.size], dm[bigK.size:]
        if defects.n >= 2:
            averaged = ~(dm_out.cond <= REG_COND_LIMIT)
        if averaged.any():
            theta = np.array(kin.theta, ndmin=1)[averaged]
            # on the point's own branch, as Kinematics takes s and kx_out but
            # not renormalised: the lower flank of -90 deg stays below it
            theta = np.stack([theta + ANGLE_REG_EPS, theta - ANGLE_REG_EPS], axis=1).reshape(-1)
            flank_k = np.repeat(bigK[averaged], 2)
            # position j of the evaluation holds entry at[j] of [points, flanks]
            at = np.arange(bigK.size).repeat(1 + averaged)
            at[averaged.repeat(1 + averaged)] = bigK.size + np.arange(flank_k.size)

            def splice(points, flank_values):
                return np.concatenate([points, flank_values])[at]

            s = splice(s, _each(math.sin, 0.5 * (theta - kin.theta0)))
            bigK = splice(bigK, flank_k)
            at_in = splice(at_in, at_in[averaged].repeat(2))
            dm_flanks = build_defect_matrix(flank_k * _each(math.cos, theta), defects)
            dm_out = DefectMatrix(splice(dm_out.matrix, dm_flanks.matrix),
                                  splice(dm_out.inverse, dm_flanks.inverse),
                                  splice(dm_out.cond, dm_flanks.cond))
    # amplitudes (piece, point) of the bra (u) and the ket (v)
    u = v = np.ones((1, bigK.size), dtype=complex)
    phases = None
    if defects.n > 0:
        phases = _kink_phases(s * bigK, defects.positions)
        e = phases.T
        u = np.concatenate([u, -1j * dm_out.require_regular().weights(e).T])
        v = np.concatenate([v, -1j * dm_in[at_in].require_regular().weights(e).T])
    state = _state(s, bigK, defects.positions, phases, u, v, averaged)
    for part in state:
        if isinstance(part, np.ndarray):
            part.setflags(write=False)
    return state


def _scan_key(kin: Kinematics, defects: DefectSet) -> tuple:
    """The bits _scan_state's result depends on: kin's (normalised) K and
    theta, theta0, and the defect positions and couplings.  Bits, not
    values: a defect at -0.0 is not one at 0.0."""
    return (np.array(kin.bigK, dtype=float).tobytes(), np.array(kin.theta, dtype=float).tobytes(),
            np.array([kin.theta0, *defects.positions], dtype=float).tobytes(),
            np.array(defects.couplings, dtype=complex).tobytes())


# The key (_scan_key) and the state of the last points _f1_points evaluated.
_last_scan = (None, None)


def _f1_points(
    kin: Kinematics,
    defects: DefectSet,
    eta: float,
    lambda1: float,
    lambda2: float,
) -> tuple:
    """f1 at each point of kin (one point, or a scan) as two float arrays
    (real, imag): f1_arrays after validation.

    Every call first checks that eta and the curvature weights are floats,
    then their values and the defect window (_check_settings): a bad
    setting raises before any work on the points, whether their state is
    kept or not.  The state of the points (_scan_state) is kept for the
    next call: only the last one, reused while kin's K and theta, theta0
    and the defects are the same bits, so that scanning one set of points
    at other eta or curvature weights (a preset's four settings) builds it
    once.  Each call then contracts it (_bracket_terms, which reads the
    points and defects from the state; no GeoCoefficientInputs is made):
    one math.fsum over the real parts of each point's terms and one over
    the imaginary parts, times the prefactor.  An averaged point's value
    is 0.5 * (f_up + f_down) of its flanks, as Python computes it on
    complex numbers (through 3.13 a float times a complex is the product
    with 0.5 + 0j).
    """
    global _last_scan
    # a bad setting raises before any work on the points, kept or not
    if np.ndim(eta) or np.ndim(lambda1) or np.ndim(lambda2):
        raise InputError(f"eta, lambda1, lambda2 must be floats: {(eta, lambda1, lambda2)!r}")
    _check_settings(eta, lambda1, lambda2, defects.positions)
    key = _scan_key(kin, defects)
    last_key, state = _last_scan
    if key != last_key:
        _last_scan = None, None  # not kept alive while the new state is built
        state = _scan_state(kin, defects)
        _last_scan = key, state
    # pref(K) = -(1/2) e^{i pi/4} / sqrt(2 pi K)
    bracket = np.array([list(map(math.fsum, t.T.tolist()))
                        for t in _bracket_terms(state, eta, lambda1, lambda2)])
    f = _cmul(np.array([[_PREF.real], [_PREF.imag]]) / np.sqrt(2.0 * math.pi * state.bigK),
              bracket)
    averaged = state.averaged
    if averaged.any():
        # each point's first entry in the evaluation, and an averaged one's second
        first = np.cumsum(1 + averaged) - 1 - averaged
        up = first[averaged]
        f, flanks = f[:, first], f[:, up] + f[:, up + 1]
        f[:, averaged] = _cmul(np.array([0.5, 0.0]), flanks)
    return f[0], f[1]


def f1_arrays(bigK, theta0: float, theta, defects: DefectSet, eta: float,
              lambda1: float, lambda2: float) -> tuple:
    """First-order geometric amplitude f1 at every point of a scan, as two
    float arrays (real, imag).

    bigK and theta are equal-length 1-D arrays (a scalar stands for a
    constant one); point i is Kinematics(bigK[i], theta0, theta[i]).  eta,
    lambda1 and lambda2 are floats, one setting for the whole scan.  A
    shape, point, eta or curvature weight outside its domain (an array
    among them) raises defects.InputError, a defect past
    |alpha| = 26 OverflowError, before any point is evaluated or any
    defect matrix built.  The whole scan is one array Kinematics and
    one region-kernel call.  Its state is built with one defect build of
    the outgoing matrices and of the incoming ones at the scan's distinct
    kx = K cos(theta0), one more outgoing build, of the flanks alone, if a
    point is averaged across theta = +-90 deg (see f1_geometric), and one
    erfcx call.  A call with the last call's bigK, theta, theta0 and
    defects, bit for bit, reuses that state and only contracts it at its
    own eta and curvature weights (_f1_points).  The state of the last
    call stays alive until a call with other points or defects replaces
    it: its arrays hold about 0.25 KB per point and defect (0.5 KB a point
    at N = 2, 2 KB at N = 8).  f1_scan, f1_geometric and cross_section
    take their numbers from it.
    """
    bigK, theta = np.asarray(bigK, dtype=float), np.asarray(theta, dtype=float)
    if max(bigK.ndim, theta.ndim) != 1 or len({bigK.size, theta.size} - {1}) > 1:
        raise InputError(f"bigK and theta must broadcast to one 1-D shape, got "
                         f"shapes {bigK.shape} and {theta.shape}")
    bigK, theta = np.broadcast_arrays(bigK, theta)
    return _f1_points(Kinematics(bigK, theta0, theta), defects, eta, lambda1, lambda2)


def f1_scan(bigK, theta0: float, theta, defects: DefectSet, eta: float,
            lambda1: float, lambda2: float) -> list:
    """f1_arrays as a list of Python complex numbers."""
    return list(map(complex, *(part.tolist() for part in f1_arrays(
        bigK, theta0, theta, defects, eta, lambda1, lambda2))))


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
    over theta +- ANGLE_REG_EPS (1e-6 rad), both flanks on the point's
    own branch (at -90 deg the lower one lies below -90 deg, not near
    270 deg), which cancels the leading divergence.  The offset trades
    truncation for rounding: at defects (-3, 3), K = 1 and +90 deg, each
    tenfold step of the offset from 1e-3 down to 1e-8 moves the average
    by 1.7e-5, 7.2e-7, 7.8e-5, 7.8e-3 and 0.46 relative.  So at 1e-6 it
    is stable to about 1e-4 relative, and no test pins a finer figure
    (ROADMAP item 10 asks for its forward error against 50 digits).  The
    one-point case of f1_arrays, bit for bit.  An array kin raises
    InputError; f1_arrays, f1_scan and cross_section take scans.
    """
    if np.ndim(kin.theta):
        raise InputError("f1_geometric takes one point; evaluate a scan with f1_scan")
    re, im = _f1_points(kin, defects, eta, lambda1, lambda2)
    return complex(re[0], im[0])


def modulus_squared(re, im) -> list:
    """|f|^2 of f = re + i im at every point, as Python's abs(f) ** 2 takes
    it: libm's hypot (numpy's hypot; numpy's square x * x may differ from
    pow in the last bit) and libm's pow (math.pow).  A list of floats."""
    return list(map(math.pow, np.hypot(re, im).tolist(), itertools.repeat(2.0)))


def delta_ray_offset(theta0: float, theta):
    """Signed angle theta - ray in [-pi, pi] (radians) to the nearer of the
    delta-supported rays theta0 and pi - theta0 (theta0 on a tie): a float,
    or an array element by element.

    Each offset to a ray is math.remainder(theta - ray, 2 pi) bit for bit
    except at an exact tie of +-pi, whose sign may differ
    (defects._remainder_2pi).  The other ray is then nearer unless
    theta0 = +-pi/2, so for every theta0 that Kinematics accepts the result
    is the per-point math.remainder rule's."""
    theta = np.asarray(theta, dtype=float)
    bad = theta[~np.isfinite(theta)]
    if not math.isfinite(theta0) or bad.size:
        raise InputError(f"angles must be finite, got theta0={theta0!r}"
                         + (f", theta={bad[0].item()!r}" if bad.size else ""))
    forward, mirror = (_remainder_2pi(theta - ray) for ray in (theta0, math.pi - theta0))
    return unbox(np.where(np.abs(mirror) < np.abs(forward), mirror, forward))


def cross_section(
    kin: Kinematics,
    defects: DefectSet,
    eta: float,
    lambda1: float,
    lambda2: float,
):
    """Differential cross section |f1|^2 (sigma-scaled units): a float, or
    for an array kin a list with one float per point, from one _f1_points
    evaluation.

    Not defined on the delta-supported directions theta0 and pi - theta0
    where the zeroth-order amplitude concentrates; use
    defects.f0_distributional for those weights.  SingularAngleError if
    any point lies within SINGULAR_ANGLE_TOL of them.
    """
    on_ray = np.abs(delta_ray_offset(kin.theta0, kin.theta)) < SINGULAR_ANGLE_TOL
    if on_ray.any():
        theta = np.array(kin.theta, ndmin=1)[np.ravel(on_ray)][0].item()
        raise SingularAngleError(
            f"theta = {theta!r} lies on a delta-supported direction of the "
            "flat-defect amplitude; pointwise |f1|^2 is not meaningful "
            "there (use defects.f0_distributional for the spike weights)"
        )
    xsec = modulus_squared(*_f1_points(kin, defects, eta, lambda1, lambda2))
    return xsec if np.ndim(kin.theta) else xsec[0]
