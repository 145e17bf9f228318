"""Test-side references that the engine no longer carries.

``immnn_x2`` is the rejected "x2" transcription of the four-index step
term.  The engine codes only the "kappa2" transcription; this reference
keeps the oracle's discrimination between the two reproducible.
"""

import cmath
import math

from bumpscatter.geoamp import Immnn_closed
from bumpscatter.specfun import exp_erf


def immnn_x2(g, m, mp, n, np_):
    """Four-index coefficient with the "x2" step term.

    For a bra kink left of the ket kink (am < an), x2 puts am^2 where
    kappa2 has K^2 in the bracket of the erf(am + i beta) step term:

        x2 = kappa2 - (pi eta / 4) (am^2 - K^2) ((1 + 4 l1) s^2 - 1)
             * exp_erf(-beta^2 + i beta (am + an), am + i beta)
             * e^{i beta (am' + an')};

    otherwise the two transcriptions coincide.
    """
    kappa2 = Immnn_closed(g, m, mp, n, np_)
    am, an = g.alphas[m], g.alphas[n]
    if not am < an:
        return kappa2
    b = g.beta
    step = (
        (am * am - g.bigK**2) * ((1.0 + 4.0 * g.lambda1) * g.s**2 - 1.0)
        * exp_erf(-b * b + 1j * b * (am + an), am + 1j * b)
        * cmath.exp(1j * b * (g.alphas[mp] + g.alphas[np_]))
    )
    return kappa2 - 0.25 * math.pi * g.eta * step


def matches_oracle(closed, record, rtol=1e-6, atol=1e-10):
    """The verify_all pass rule applied to another closed value."""
    diff = abs(closed - record.oracle)
    if record.judged == "resolution":
        return diff <= record.resolution
    return diff / max(abs(record.oracle), atol) <= rtol
