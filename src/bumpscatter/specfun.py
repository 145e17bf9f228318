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


def _erfcx(w: np.ndarray) -> np.ndarray:
    """erfcx_c on a finite complex array."""
    lower = w.imag < 0.0
    any_lower = lower.any()
    if any_lower:
        w = np.where(lower, w.conj(), w)  # into the upper half plane
    left = w.real < 0.0
    if not left.any():
        out = _sp.erfcx(w)
    else:
        out = _sp.erfcx(np.where(left, -w.conj(), w))  # first quadrant
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
