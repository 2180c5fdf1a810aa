"""Scaled complex error function and small numeric helpers.

These are the numerical bedrock for the expanding-shock correlator and the
space/time form factors: the Faddeeva function w(z) = exp(-z^2) erfc(-iz),
the real complementary error function, and sin(x)/x with its removable
singularity handled.  `faddeeva` and `sinc` take a scalar or an array and
return the same shape.
"""

from typing import Union

import numpy as np

__all__ = ["faddeeva", "erfc_real", "sinc"]

# Below this |x| the direct sin(x)/x suffers catastrophic cancellation in the
# deviation from 1; switch to the Taylor polynomial.
_SINC_SMALL = 1e-4


def faddeeva(z: Union[complex, np.ndarray]) -> Union[complex, np.ndarray]:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz), whole complex plane.

    The lower half-plane is routed through the reflection identity
    w(-z) = 2 exp(-z^2) - w(z), which produces the exponentially growing
    branch explicitly instead of trusting the asymptotic evaluation there.
    """
    from scipy import special

    z = np.asarray(z, dtype=complex)
    w = np.asarray(special.wofz(z))
    lower = z.imag < 0.0
    if lower.any():
        # exp(-z^2) grows like exp(Im(z)^2) here; this overflows to inf only
        # when the function value itself is not representable in double
        # precision.
        zl = z[lower]
        w[lower] = 2.0 * np.exp(-zl * zl) - special.wofz(-zl)
    return w[()]


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
