"""Scaled complex error function and small numeric helpers.

These are the numerical bedrock for the expanding-shock correlator and the
space/time form factors: the Faddeeva function w(z) = exp(-z^2) erfc(-iz),
the real complementary error function, and sin(x)/x with its removable
singularity handled.  `faddeeva` and `sinc` take a scalar or an array and
return the same shape; where w(z) overflows, in the lower half-plane, its
parts are +-inf.
"""

from typing import Union

import numpy as np

__all__ = ["faddeeva", "erfc_real", "sinc"]

# Below this |x| the direct sin(x)/x suffers catastrophic cancellation in the
# deviation from 1; switch to the Taylor polynomial.
_SINC_SMALL = 1e-4


def faddeeva(z: Union[complex, np.ndarray]) -> Union[complex, np.ndarray]:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz), whole complex plane.

    scipy's wofz (S. G. Johnson's Faddeeva Package) covers the lower
    half-plane itself, where w grows like exp(Im(z)^2); a part too large
    for double precision is +-inf.
    """
    from scipy import special

    return special.wofz(np.asarray(z, dtype=complex))


def erfc_real(x: float) -> float:
    """Complementary error function for real argument."""
    from scipy import special

    return float(special.erfc(x))


def sinc(x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """sin(x)/x, exactly 1 at x = 0 and its limit 0 at x = +-inf.

    |x| < 1e-4 uses the 4-term Taylor polynomial to avoid cancellation.
    """
    x2 = x * x
    series = np.asarray(1.0 + x2 * (-1.0 / 6.0 + x2 * (1.0 / 120.0
                                                       - x2 / 5040.0)))
    # sin is skipped at +-inf, where it is NaN; 0 / +-inf is the limit 0
    sin_x = np.sin(x, out=np.zeros(np.shape(x)), where=np.isfinite(x))
    return np.divide(sin_x, x, out=series,
                     where=np.abs(x) >= _SINC_SMALL)[()]
