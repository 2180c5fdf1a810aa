"""Scaled complex error function and small numeric helpers.

These are the numerical bedrock for the expanding-shock correlator, the
space/time form factors and the inference's p-values: the Faddeeva
function w(z) = exp(-z^2) erfc(-iz), Dawson's integral D(x), the sine
integral Si(x), sin(x)/x masked at x = 0 and clipped at x = +-inf, and
the chi-square survival function for integer degrees of freedom.  On the
real axis w(x) = exp(-x^2) + (2i/sqrt(pi)) D(x); case E, whose arguments
are real, takes w from D.  `faddeeva`, `dawson` and `sinc` take a scalar
or an array and return the same shape; where w(z) overflows, in the lower
half-plane, its parts are +-inf.  This is the one module that loads
scipy.special: `faddeeva`, `dawson` and `sine_integral`, each when called.
"""

import functools
import math
from typing import Union

import numpy as np

__all__ = ["faddeeva", "dawson", "sine_integral", "sinc", "chi2_survival"]

_LOG_2_OVER_SQRT_PI = math.log(2.0 / math.sqrt(math.pi))
_TINY = float(np.finfo(float).tiny)
_FLOAT_MAX = float(np.finfo(float).max)


@functools.lru_cache(maxsize=None)
def _scipy_special():
    """scipy.special, imported on the first call that needs it; an import
    statement in each function would cost more than dawsn itself."""
    from scipy import special

    return special


def faddeeva(z: Union[complex, np.ndarray]) -> Union[complex, np.ndarray]:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz), whole complex plane.

    scipy's wofz (S. G. Johnson's Faddeeva Package) covers the lower
    half-plane itself, where w grows like exp(Im(z)^2); a part too large
    for double precision is +-inf.
    """
    return _scipy_special().wofz(np.asarray(z, dtype=complex))


def dawson(x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Dawson's integral D(x) = exp(-x^2) integral_0^x exp(t^2) dt for real
    x: odd, 0 at x = 0 and at x = +-inf, where it falls like 1/(2x).

    scipy's dawsn is the same Faddeeva Package as `faddeeva`, so
    D(x) = (sqrt(pi)/2) Im w(x) there.
    """
    return _scipy_special().dawsn(np.asarray(x, dtype=float))


def sine_integral(x: float) -> float:
    """Si(x) = integral_0^x sin(t)/t dt for real x, from scipy's sici."""
    return _scipy_special().sici(x)[0]


def sinc(x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """sin(x)/x, exactly 1 at x = 0 and its limit 0 at x = +-inf.

    One mask adds 1 to both sides at x = 0; elsewhere adding False changes
    no bit, so every nonzero finite x, subnormals too, gives sin(x)/x.
    `sin` takes x clipped to [-M, M], M the largest finite float: every
    finite x reaches it unchanged, and +-inf, where sin is NaN and warns,
    reaches it as +-M, so the quotient sin(+-M) / +-inf is the limit 0
    (of either sign).
    """
    zero = x == 0
    return (np.sin(np.minimum(np.maximum(x, -_FLOAT_MAX), _FLOAT_MAX))
            + zero) / (x + zero)


def chi2_survival(k: int, x: float) -> float:
    """Q(k/2, x/2): the probability that a chi-square variable with an
    integer k >= 1 degrees of freedom exceeds x >= 0.

    For integer k it is a finite sum (Abramowitz & Stegun 26.4.4-5) of
    terms t_j = t_(j-1) a / (j + s), a = x/2:
      even k:  s = 0,   t_0 = exp(-a),               j < k/2;
      odd k:   s = 1/2, t_0 = 2 sqrt(a/pi) exp(-a),  j < (k-1)/2,
               plus erfc(sqrt(a)).
    The terms are summed in log space, relative to the largest, so exp(-a)
    may underflow where the sum does not.  It agrees with scipy's `chdtrc`
    to a few 1e-13 relative, the rounding of a and log(a) in the exponent;
    a result below the smallest normal float is 0.
    """
    if x <= 0.0:
        return 1.0
    a = 0.5 * x
    odd = k % 2
    n = k // 2
    q = math.erfc(math.sqrt(a)) if odd else 0.0
    if n:
        log_t0 = -a + (0.5 * math.log(a) + _LOG_2_OVER_SQRT_PI if odd else 0.0)
        logs = np.empty(n)
        logs[0] = 0.0
        np.cumsum(np.log(a / (np.arange(1, n) + 0.5 * odd)), out=logs[1:])
        peak = logs.max()
        q += math.exp(log_t0 + peak + math.log(np.exp(logs - peak).sum()))
    return q if q >= _TINY else 0.0
