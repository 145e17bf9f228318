"""Overflow-safe complex error functions and guarded exponential products.

The engine needs one fused product, exp(X) * erfc(w): every erfc of the
half-line Gaussian moments in geoamp goes through exp_erfc, and the engine
calls no other kernel of this module.  Evaluating the two factors
separately is catastrophic once Re(X) or Re(w**2) grows: the exponential
overflows while the error function underflows, even though the product
is O(1).  This module provides the scaled function
erfcx(w) = exp(w**2) * erfc(w), which stays bounded on the right half
plane, on complex arguments, and exp_erfc built on it.  The guarded
exponential eexp, the fused exp_erf and erfcx_c itself are public API as
well; the tests and the benchmark's microbenchmarks call them.

Symmetry contracts (exact by construction, not merely to rounding):

    erfcx(conj(z)) == conj(erfcx(z))
    exp_erf(x, -w) == -exp_erf(x, w)

erfcx_c reduces its argument to the closed first quadrant before calling
the first-quadrant kernel and maps the result back, and exp_erf reduces w
to the right half plane, so both identities hold bit for bit.

The first-quadrant kernel is Weideman's rational series for the Faddeeva
function (J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1994) with N = 40
terms, erfcx(w) = Faddeeva(i w).  With d = L + w and Z = (L - w) / d,

    erfcx(w) = 2 p(Z) / d / d + 1 / (sqrt(pi) d),

p the degree-39 polynomial of _WEIDEMAN_COEFFS by Horner's rule.  d is
divided out twice, never as d*d, which would overflow for |w| > ~1e154.
erfcx(0) = 1 exactly, by a masked rule.  Against 40-digit mpmath on the
closed first quadrant the relative error measured at most 7.9e-16 for
|w| <= 50 and 2.5e-16 from there out to |w| = 1e307; the tests bound it
by 2e-15.

The reflection  erfcx(-z) = 2*exp(z**2) - erfcx(z)  is the one genuinely
overflow-prone step: exp(z**2) overflows in double precision once
Re(z**2) > ~709.  Inputs built from defect offsets |alpha| <= 26 keep
Re(z**2) <= 676 and are safe; beyond that the wrapper raises OverflowError
instead of returning inf.

Every kernel is elementwise: arguments may be scalars or arrays (two
arguments broadcast), a call on scalars returns a Python complex, and an
array result equals the scalar results element by element, bit for bit.
The reductions above are quadrant masks, and the guards are masks too:
OverflowError if any element would overflow, exactly 0 for each element
that underflows, ValueError if any element is not finite.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "erfcx_c",
    "eexp",
    "exp_erf",
    "exp_erfc",
    "SAFE_REAL_WINDOW",
]

# Largest |Re z| for which the erfcx reflection term exp(z**2) is guaranteed
# representable regardless of Im z (26**2 = 676 < log(DBL_MAX) ~ 709.78).
SAFE_REAL_WINDOW = 26.0

# Weideman's series: N terms, scale L = sqrt(N / sqrt(2)), and the
# coefficients a_N, ..., a_1 of p(Z) = sum a_n Z**(n-1), highest power first
# (the cosine sums of section 4 of docs/math_to_code.md at 40 digits).
_WEIDEMAN_N = 40
_WEIDEMAN_L = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))
_WEIDEMAN_COEFFS = (
    -1.8996949473949271e-15, 1.1280735623644021e-15, 1.1357687198999241e-14,
    -5.4093102828821422e-15, -7.0740862602868550e-14, 1.3725620586715500e-14,
    4.5329666782606727e-13, 1.2031458219387989e-13, -2.9076883421828669e-12,
    -2.7276023158200452e-12, 1.7714495214011192e-11, 3.4727267093045500e-11,
    -9.0551244509282923e-11, -3.5632339865976533e-10, 2.1086006347066517e-10,
    3.0177805400090707e-09, 3.2497465180436973e-09, -1.8315616783040462e-08,
    -6.3517734850442905e-08, 1.4198642399935674e-08, 5.9121369518994944e-07,
    1.4835661132200781e-06, -1.0660138984947143e-06, -1.8007447144750956e-05,
    -5.5913092642483181e-05, -3.9393631454895690e-05, 4.3980701598696681e-04,
    2.7054056330737914e-03, 1.0048186242783424e-02, 2.9202916471241867e-02,
    7.1823617790743366e-02, 1.5504263802479495e-01, 2.9989437996150065e-01,
    5.2665289882770860e-01, 8.4721745765938183e-01, 1.2563815675765133e+00,
    1.7253830848179779e+00, 2.2015137948783119e+00, 2.6160541527618602e+00,
    2.8996245093897053e+00,
)
_RSQRT_PI = 1.0 / math.sqrt(math.pi)

# exp() overflow threshold for the real part of a complex exponent.
_EXP_OVERFLOW = math.log(np.finfo(float).max)  # ~709.78
# Below this the magnitude underflows to 0 even after the complex rotation.
_EXP_UNDERFLOW = -746.0


def unbox(x):
    """x as a Python number when it has no dimensions, else x unchanged:
    the one rule by which a kernel called on scalars returns a scalar."""
    return x.item() if np.ndim(x) == 0 else x


def _as_complex(*args) -> tuple:
    """The arguments as finite complex arrays of one shape, at least 1-D,
    and the shape of the result (that of the broadcast arguments); raise
    ValueError naming the first non-finite element."""
    ws = [np.asarray(a, dtype=complex) for a in args]
    shape = ws[0].shape
    if len(ws) > 1 and ws[1].shape != shape:
        ws = np.broadcast_arrays(*ws)
        shape = ws[0].shape
    ws = [w.reshape(-1) if w.ndim == 0 else w for w in ws]
    for w in ws:
        if not np.isfinite(w).all():
            raise ValueError(f"non-finite argument: {w[~np.isfinite(w)][0].item()!r}")
    return shape, ws


def _erfcx_q1(w: np.ndarray) -> np.ndarray:
    """erfcx on a finite complex array in the closed first quadrant."""
    d = _WEIDEMAN_L + w
    z = (_WEIDEMAN_L - w) / d
    p = z * _WEIDEMAN_COEFFS[0] + _WEIDEMAN_COEFFS[1]
    for a in _WEIDEMAN_COEFFS[2:]:
        # Not in place: numpy rounds an in-place complex *= on a one-element
        # array differently from a long one, which breaks array == scalar.
        p = p * z + a
    out = 2.0 * p / d / d + _RSQRT_PI / d
    zero = w == 0.0
    if zero.any():
        out[zero] = 1.0  # the series gives 1 only to rounding
    return out


def _erfcx(w: np.ndarray) -> np.ndarray:
    """erfcx_c on a finite complex array."""
    lower = w.imag < 0.0
    any_lower = lower.any()
    if any_lower:
        w = np.where(lower, w.conj(), w)  # into the upper half plane
    left = w.real < 0.0
    if not left.any():
        out = _erfcx_q1(w)
    else:
        out = _erfcx_q1(np.where(left, -w.conj(), w))  # first quadrant
        zsq = w[left] * w[left]
        over = zsq.real > _EXP_OVERFLOW
        if over.any():
            raise OverflowError(
                f"erfcx reflection overflows: Re(z^2) = {zsq.real[over][0]:.3g} "
                f"for z = {w[left][over][0].item()!r}"
            )
        out[left] = 2.0 * np.exp(zsq) - out[left].conj()
    return np.where(lower, out.conj(), out) if any_lower else out


def _eexp(w: np.ndarray) -> np.ndarray:
    """eexp on a finite complex array."""
    if (w.real > _EXP_OVERFLOW).any():
        raise OverflowError(f"exp overflow: Re(x) = {w.real.max():.6g}")
    out = np.exp(w)
    under = w.real < _EXP_UNDERFLOW
    if under.any():
        out[under] = 0j
    return out


def _exp_erfc(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """exp_erfc on finite complex arrays of one shape."""
    left = w.real < 0.0
    if not left.any():
        return _eexp(x - w * w) * _erfcx(w)
    out = _eexp(x - w * w) * _erfcx(np.where(left, -w, w))
    # erfc(w) = 2 - exp(-w^2) erfcx(-w); -w is in the right half plane.
    out[left] = 2.0 * _eexp(x[left]) - out[left]
    return out


def erfcx_c(z):
    """Scaled complementary error function exp(z**2) * erfc(z) on complex z.

    Bounded and well conditioned for Re z >= 0.  For Re z < 0 the reflection
    erfcx(z) = 2*exp(z**2) - erfcx(-z) applies; it overflows once
    Re(z**2) > ~709, in which case OverflowError is raised rather than
    returning inf.  Conjugate symmetry is exact.  Elementwise on arrays.
    """
    shape, (w,) = _as_complex(z)
    return unbox(_erfcx(w).reshape(shape))


def eexp(x):
    """Guarded complex exponential.

    Returns exp(x), raising OverflowError when Re x exceeds the double
    precision limit (instead of silently producing inf) and flushing to 0
    when Re x is far below the underflow threshold.  Elementwise on arrays.
    """
    shape, (w,) = _as_complex(x)
    return unbox(_eexp(w).reshape(shape))


def exp_erfc(x, w):
    """Fused product exp(x) * erfc(w) evaluated without overflow.

    Uses erfc(w) = exp(-w**2) * erfcx(w) on the right half plane, so the
    exponentials combine into a single guarded factor exp(x - w**2).  On the
    left half plane the reflection erfc(w) = 2 - erfc(-w) splits the product
    into 2*exp(x) plus a right-half-plane term.  x and w broadcast.
    """
    shape, (x, w) = _as_complex(x, w)
    return unbox(_exp_erfc(x, w).reshape(shape))


def exp_erf(x, w):
    """Fused product exp(x) * erf(w) evaluated without overflow.

    erf(w) = 1 - erfc(w), so exp(x)*erf(w) = exp(x) - exp_erfc(x, w); both
    pieces are individually guarded.  Oddness of erf is preserved exactly:
    w is reflected into the right half plane and the sign applied after.
    x and w broadcast.
    """
    shape, (x, w) = _as_complex(x, w)
    neg = w.real < 0.0
    if not neg.any():
        return unbox((_eexp(x) - _exp_erfc(x, w)).reshape(shape))
    out = _eexp(x) - _exp_erfc(x, np.where(neg, -w, w))
    return unbox(np.where(neg, -out, out).reshape(shape))
