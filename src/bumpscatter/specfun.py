"""Overflow-safe complex error functions and guarded exponential products.

Every closed-form coefficient in this package is assembled from terms of the
shape  exp(X) * erf(w),  exp(X) * erfc(w)  or a bare guarded exponential.
Evaluating the two factors separately is catastrophic once Re(X) or Re(w**2)
grows: the exponential overflows while the error function underflows, even
though the product is O(1).  This module provides the scaled function
erfcx(w) = exp(w**2) * erfc(w), which stays bounded on the right half
plane, on complex arguments, a guarded exponential, and fused product
helpers that route everything through erfcx.

Symmetry contracts (exact by construction, not merely to rounding):

    erfcx(conj(z)) == conj(erfcx(z))
    exp_erf(x, -w) == -exp_erf(x, w)

erfcx_c reduces its argument to the closed first quadrant before calling
the scipy kernel and maps the result back, and exp_erf reduces w to the
right half plane, so both identities hold bit for bit.

The reflection  erfcx(-z) = 2*exp(z**2) - erfcx(z)  is the one genuinely
overflow-prone step: exp(z**2) overflows in double precision once
Re(z**2) > ~709.  Inputs built from defect offsets |alpha| <= 26 keep
Re(z**2) <= 676 and are safe; beyond that the wrapper raises OverflowError
instead of returning inf.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.special as _sp

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

# exp() overflow threshold for the real part of a complex exponent.
_EXP_OVERFLOW = math.log(np.finfo(float).max)  # ~709.78
# Below this the magnitude underflows to 0 even after the complex rotation.
_EXP_UNDERFLOW = -746.0


def _as_complex(z) -> complex:
    """Coerce scalar input to a finite python complex, else raise ValueError."""
    w = complex(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"non-finite argument: {z!r}")
    return w


def erfcx_c(z) -> complex:
    """Scaled complementary error function exp(z**2) * erfc(z) on complex z.

    Bounded and well conditioned for Re z >= 0.  For Re z < 0 the reflection
    erfcx(z) = 2*exp(z**2) - erfcx(-z) applies; it overflows once
    Re(z**2) > ~709, in which case OverflowError is raised rather than
    returning inf.  Conjugate symmetry is exact.
    """
    w = _as_complex(z)
    if w.imag < 0.0:
        return erfcx_c(w.conjugate()).conjugate()
    if w.real < 0.0:
        zsq = w * w
        if zsq.real > _EXP_OVERFLOW:
            raise OverflowError(
                f"erfcx reflection overflows: Re(z^2) = {zsq.real:.3g} for z = {w!r}"
            )
        return 2.0 * cmath.exp(zsq) - erfcx_c(-w.conjugate()).conjugate()
    return complex(_sp.erfcx(w))


def eexp(x) -> complex:
    """Guarded complex exponential.

    Returns exp(x), raising OverflowError when Re x exceeds the double
    precision limit (instead of silently producing inf) and flushing to 0
    when Re x is far below the underflow threshold.
    """
    w = _as_complex(x)
    if w.real > _EXP_OVERFLOW:
        raise OverflowError(f"exp overflow: Re(x) = {w.real:.6g}")
    if w.real < _EXP_UNDERFLOW:
        return 0.0 + 0.0j
    return cmath.exp(w)


def exp_erfc(x, w) -> complex:
    """Fused product exp(x) * erfc(w) evaluated without overflow.

    Uses erfc(w) = exp(-w**2) * erfcx(w) on the right half plane, so the
    exponentials combine into a single guarded factor exp(x - w**2).  On the
    left half plane the reflection erfc(w) = 2 - erfc(-w) splits the product
    into 2*exp(x) plus a right-half-plane term.
    """
    x = _as_complex(x)
    w = _as_complex(w)
    if w.real >= 0.0:
        return eexp(x - w * w) * erfcx_c(w)
    # erfc(w) = 2 - exp(-w^2) erfcx(-w); -w is in the right half plane.
    return 2.0 * eexp(x) - eexp(x - w * w) * erfcx_c(-w)


def exp_erf(x, w) -> complex:
    """Fused product exp(x) * erf(w) evaluated without overflow.

    erf(w) = 1 - erfc(w), so exp(x)*erf(w) = exp(x) - exp_erfc(x, w); both
    pieces are individually guarded.  Oddness of erf is preserved exactly.
    """
    x = _as_complex(x)
    w = _as_complex(w)
    if w.real < 0.0:
        return -exp_erf(x, -w)
    return eexp(x) - exp_erfc(x, w)
