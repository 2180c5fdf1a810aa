"""Closed-form two-photon correlation functions C(q, d_omega).

For the factorized cases A-D,

    C = 1 + (1/2) T(d_omega) Phi(q),

with T the squared normalized temporal transform and Phi the squared
normalized spatial transform of the source.  The 1/2 is the photon-spin
chaoticity factor; it is a fixed constant, not a fit parameter.  Coherent
emission gives C = 1 identically.  Poor energy resolution, a box window of
full width W in d_omega, replaces T by its closed-form average <T>
(`mean_time_factor`): the smeared excess is (1/2) <T> Phi(q) at every
d_omega.  `excess` takes the window, so it is the one forward model that
`synth` tabulates.

Case E (expanding shock) does not factorize.  Its excess is

    C - 1 = 9 |I|^2 / (8 mu^6),
    I = -i sqrt(pi) [(1 + mu z+) w(z+) - (1 - mu z-) w(z-)] - 2 mu,

with mu = r_dot tau q, y = d_omega tau and z± = (y ± mu) / 2.  This
already contains the 1/2 factor: writing the space-time Fourier transform
of the case E source as F(q, d_omega), one finds F = tau I / (4 q^3) and
F(0,0) = r_dot^3 tau^4 / 6, so 9|I|^2/(8 mu^6) = (1/2)|F/F(0,0)|^2 exactly.
z± are real, and on the real axis w(x) = exp(-x^2) + (2i/sqrt(pi)) D(x),
with D Dawson's integral, so I is evaluated in real arithmetic: with
a± = 1 ± mu z±,

    Re I = 2 (a+ D(z+) - a- D(z-) - mu),
    Im I = -sqrt(pi) (a+ exp(-z+^2) - a- exp(-z-^2)).

Below mu = 0.01 the 0/0 form is replaced by its series through mu^4,
s = 2 M_3 - (mu^2/5) M_5 + (mu^4/140) M_7 with |s| = |F/F(0,0)|, M_n the
moment of x^n exp(-x^2 + i y x) over x = t/tau > 0.  Their recurrence
2 M_n = i y M_{n-1} + (n-1) M_{n-2} (+1 at n = 1) from M_0 = a + i b,
a = (sqrt(pi)/2) exp(-y^2/4) and b = D(y/2), sums to s = P (b - i a) + Q:

    P = y [y^2/4 - 3/2 + mu^2 (y^4/160 - y^2/8 + 3/8)
           + mu^4 (y^6/17920 - 3 y^4/1280 + 3 y^2/128 - 3/64)],
    Q = 1 - y^2/4 + mu^2 (-y^4/160 + 9 y^2/80 - 1/5)
        + mu^4 (-y^6/17920 + y^4/448 - 87 y^2/4480 + 3/140),

so the series excess (1/2) [(P D(y/2) + Q)^2 + (pi/4) P^2 exp(-y^2/2)] is
real arithmetic too.  Smeared case D takes Si from `sine_integral`.

The closed forms take arrays: `time_factor` a d_omega array, `form_factor`
and `phi_of_X` a q or X array.  `excess`, `correlation` and
`case_e_excess` broadcast q against d_omega (a `(nq, 1)` q column and an
`(nw,)` d_omega row give the `(nq, nw)` grid), so a whole surface is one
call; case E picks the direct form or the series per point by a mask on
mu.  Scalars in give a scalar out.
"""

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .sources import Emission, SourceCase, SourceSpec
from .special_functions import dawson, sinc, sine_integral
# case E calls `dawson` only; perfbench/tracing.py wraps this name (retire
# it with that wrapper, ROADMAP item 4)
from .special_functions import faddeeva  # noqa: F401

__all__ = [
    "CHAOTICITY",
    "CorrelationValue",
    "correlation",
    "excess",
    "time_factor",
    "check_window",
    "mean_time_factor",
    "form_factor",
    "small_q_coefficient",
    "kappa_analytic",
    "kappa_to_radius",
    "phi_of_X",
    "case_e_excess",
    "FACTORIZED_CASES",
]

Values = Union[float, np.ndarray]

# Photon-spin chaoticity factor: maximum excess C - 1 at zero relative momentum.
CHAOTICITY = 0.5

# Shape constant c of each factorized case: Phi(q) = 1 - c (q R)^2 + O(q^4).
# The curvature kappa = -Phi''(0) is 2 c R^2, and on the rescaled axis
# X = sqrt(kappa/2) q every shape reads Phi = form_factor(case, 1, X/sqrt(c)).
_SHAPE_CONSTANT = {SourceCase.A_GAUSSIAN: 1.0, SourceCase.B_SHELL: 1.0 / 3.0,
                   SourceCase.C_SPHERE: 1.0 / 5.0,
                   SourceCase.D_EXPONENTIAL: 4.0}

FACTORIZED_CASES = tuple(_SHAPE_CONSTANT)

# Switch to the series branch of case E below this mu: the direct form loses
# ~|eps/mu^3| relative accuracy to cancellation, the series is exact to
# O(mu^6) there.
MU_SERIES_MAX = 0.01

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class CorrelationValue:
    """C and C - 1, each a scalar or an array of q broadcast against
    d_omega."""

    c: Values
    excess: Values


def _check_q(q: Values) -> None:
    # NaN fails q >= 0 as a negative q does
    if (~(np.asarray(q) >= 0.0)).any():
        raise ValueError("q must be non-negative")


def _shape_constant(case: SourceCase) -> float:
    if case not in _SHAPE_CONSTANT:
        raise ValueError(f"case {case.value} has no shape constant")
    return _SHAPE_CONSTANT[case]


# Far out on either axis the squares in the closed forms overflow to inf,
# which gives their exact limit 0 (exp(-inf), 1/inf); numpy's overflow
# warning would only be noise on stderr.
@np.errstate(over="ignore")
def time_factor(case: SourceCase, tau: float, d_omega: Values) -> Values:
    """T(d_omega): squared normalized temporal transform, T(0) = 1."""
    if case is SourceCase.D_EXPONENTIAL:
        return np.square(sinc(_SQRT3 * tau * d_omega))
    if case in FACTORIZED_CASES:
        x = d_omega * tau
        return np.exp(-x * x)
    raise ValueError("case E has no factorized time factor")


def check_window(case: Optional[SourceCase], window: float) -> None:
    """ValueError unless a surface of `case` can be smeared over a box
    window of full width W = window: a factorized case, or None for a
    surface without a source, and 0 < W < inf."""
    if case is not None and case not in FACTORIZED_CASES:
        raise ValueError("smearing of the non-factorized case E is unsupported")
    if not 0.0 < window < math.inf:
        raise ValueError("smearing window must be positive and finite")


def mean_time_factor(case: SourceCase, tau: float, window: float) -> float:
    """<T> over a box window of full width W = window, for the factorized
    cases, in closed form:

        A-C  T = exp(-(tau w)^2):         <T> = sqrt(pi) erf(x) / (2 x),
             x = tau W / 2;
        D    T = sinc^2(sqrt(3) tau w):   <T> = (Si(2y) - sin^2(y) / y) / y,
             y = sqrt(3) tau W / 2.

    Below x, y = 1e-3 each takes its Taylor series, whose next term is
    below 1e-19: there erf(x) / x loses its last bit and sin^2(y) can
    underflow.  Where tau W overflows, each is its limit 0."""
    check_window(case, window)
    if case is SourceCase.D_EXPONENTIAL:
        y = 0.5 * _SQRT3 * tau * window
        if y < 1e-3:
            return 1.0 - y * y * (1.0 / 9.0 - 2.0 * y * y / 225.0)
        if y == math.inf:  # sin(inf) is undefined; <T> falls as pi / 2y
            return 0.0
        return float(sine_integral(2.0 * y) - math.sin(y) ** 2 / y) / y
    x = 0.5 * tau * window
    if x < 1e-3:
        return 1.0 - x * x * (1.0 / 3.0 - x * x / 10.0)
    return math.sqrt(math.pi) * math.erf(x) / (2.0 * x)


def _sphere_amplitude(x: np.ndarray) -> np.ndarray:
    """3 (sin x - x cos x) / x^3 for x >= 0, the normalized sphere
    transform; its Taylor series below x = 1e-2, where the direct form
    cancels, and its limit 0 where x^3 overflows."""
    # above 1e300 the amplitude is 0 in double precision anyway; the clip
    # keeps sin, cos and the numerator finite up to x = inf
    x = np.minimum(x, 1e300)
    x2 = x * x
    series = np.asarray(1.0 + x2 * (-0.1 + x2 * (1.0 / 280.0 - x2 / 15120.0)))
    return np.divide(3.0 * (np.sin(x) - x * np.cos(x)), x2 * x, out=series,
                     where=x >= 1e-2)


@np.errstate(over="ignore")
def form_factor(case: SourceCase, R: float, q: Values) -> Values:
    """Phi(q): squared normalized spatial transform, Phi(0) = 1."""
    _check_q(q)
    x = q * R
    if case is SourceCase.A_GAUSSIAN:
        return np.exp(-x * x)
    if case is SourceCase.B_SHELL:
        return np.square(sinc(x))
    if case is SourceCase.C_SPHERE:
        return np.square(_sphere_amplitude(x))
    if case is SourceCase.D_EXPONENTIAL:
        d = 1.0 + x * x
        return 1.0 / (d * d * d * d)
    raise ValueError("case E has no factorized form factor")


def excess(spec: SourceSpec, q: Values, d_omega: Values,
           smear_dw: Optional[float] = None) -> Values:
    """C - 1 with q broadcast against d_omega; coherent emission gives 0
    exactly.  With an energy window smear_dw, T is its box average <T> at
    every d_omega; the window is checked whatever the emission.  A
    negative or NaN q raises ValueError (for A-D and E in `form_factor`
    and `case_e_excess`)."""
    mean_t = (None if smear_dw is None
              else mean_time_factor(spec.case, spec.tau, smear_dw))
    if spec.emission is Emission.COHERENT:
        _check_q(q)
        return np.zeros(np.broadcast_shapes(np.shape(q),
                                            np.shape(d_omega)))[()]
    if spec.case in FACTORIZED_CASES:
        t = (time_factor(spec.case, spec.tau, d_omega) if mean_t is None
             else np.full(np.shape(d_omega), mean_t)[()])
        return CHAOTICITY * t * form_factor(spec.case, spec.R, q)
    return case_e_excess(spec, q, d_omega)


def correlation(spec: SourceSpec, q: Values, d_omega: Values
                ) -> CorrelationValue:
    """C(q, d_omega) with q broadcast against d_omega, for scalars or
    arrays; coherent emission gives C = 1 exactly."""
    e = excess(spec, q, d_omega)
    return CorrelationValue(c=1.0 + e, excess=e)


def small_q_coefficient(case: SourceCase, R: float) -> float:
    """Coefficient c R^2 in the expansion Phi(q) = 1 - c R^2 q^2 + ..."""
    return _shape_constant(case) * R * R


def kappa_analytic(case: SourceCase, R: float) -> float:
    """kappa = -Phi''(0) = 2 * small_q_coefficient."""
    return 2.0 * small_q_coefficient(case, R)


def kappa_to_radius(case: SourceCase, kappa: float) -> float:
    """R from the curvature kappa of Phi at the origin, per shape hypothesis."""
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    return math.sqrt(kappa / (2.0 * _shape_constant(case)))


def phi_of_X(case: SourceCase, X: Values) -> Values:
    """Phi on the rescaled axis X = sqrt(kappa/2) q; every case starts as
    1 - X^2 + O(X^4)."""
    return form_factor(case, 1.0, X / math.sqrt(_shape_constant(case)))


def _case_e_direct(y: Values, mu: Values) -> np.ndarray:
    """9 |I|^2 / (8 mu^6) at points with mu > MU_SERIES_MAX, from Re I
    and Im I in real arithmetic (module docstring)."""
    # far out on either axis mu^2, z±^2 and mu z± overflow to inf, which is
    # handled below; numpy would warn, so each of them is computed here
    with np.errstate(over="ignore", invalid="ignore"):
        mu2 = mu * mu
        z_plus, z_minus = (y + mu) / 2.0, (y - mu) / 2.0
        mz_plus, mz_minus = mu * z_plus, mu * z_minus
        a_plus, a_minus = 1.0 + mz_plus, 1.0 - mz_minus
        re_i = 2.0 * (a_plus * dawson(z_plus) - a_minus * dawson(z_minus)
                      - mu)
        # Im I = -sqrt(pi) im_i, so |I|^2 takes pi im_i^2
        im_i = (a_plus * np.exp(-np.square(z_plus))
                - a_minus * np.exp(-np.square(z_minus)))
        mu6 = mu2 * mu2 * mu2
        value = 9.0 * (re_i * re_i + math.pi * (im_i * im_i)) / (8.0 * mu6)
    # Where mu^6 or mu z± overflow (mu > 1e51, or |z±| > 1e257 / mu), the
    # excess is below 1e-200, and the direct form gives 0 or NaN there:
    # return its q, d_omega -> inf limit 0.
    far = np.isinf(mu6) | np.isinf(mz_plus) | np.isinf(mz_minus)
    return np.where(far, 0.0, value)


# far out in y the series is NaN, which callers report; numpy would warn
@np.errstate(over="ignore", invalid="ignore")
def _case_e_series(y: Values, mu: Values) -> Values:
    """(1/2) |s|^2 from P and Q (module docstring), exact to O(mu^6)."""
    y2, mu2 = y * y, mu * mu
    mu4 = mu2 * mu2
    P = y * ((y2 / 4.0 - 1.5) + mu2 * (0.375 - y2 * (0.125 - y2 / 160.0))
             - mu4 * (3.0 / 64.0 - y2 * (3.0 / 128.0 - y2 * (
                 3.0 / 1280.0 - y2 / 17920.0))))
    Q = ((1.0 - y2 / 4.0) - mu2 * (0.2 - y2 * (9.0 / 80.0 - y2 / 160.0))
         + mu4 * (3.0 / 140.0 - y2 * (87.0 / 4480.0 - y2 * (
             1.0 / 448.0 - y2 / 17920.0))))
    re_s = P * dawson(0.5 * y) + Q
    return CHAOTICITY * (re_s * re_s
                         + (math.pi / 4.0) * (P * P) * np.exp(-0.5 * y2))


def case_e_excess(spec: SourceSpec, q: Values, d_omega: Values) -> Values:
    """C - 1 for case E with q broadcast against d_omega: the direct
    form where mu = r_dot tau q > MU_SERIES_MAX, the small-mu
    series elsewhere.  Each branch is evaluated once, on the points the
    mask on mu gives it, or on the inputs as they are when it has them
    all.  A negative or NaN q raises ValueError."""
    if spec.case is not SourceCase.E_EXPANDING_SHOCK:
        raise ValueError("case_e_excess is defined for case E only")
    # [()] keeps a scalar q a numpy scalar, whose arithmetic costs less
    # than a 0-d array's
    q = np.asarray(q, dtype=float)[()]
    with np.errstate(over="ignore"):
        mu = spec.r_dot * spec.tau * q
        y = d_omega * spec.tau
    direct = mu > MU_SERIES_MAX
    if direct.all():  # mu > MU_SERIES_MAX > 0, so every q is positive
        return _case_e_direct(y, mu)[()]
    _check_q(q)
    if not direct.any():
        return _case_e_series(y, mu)[()]
    y, mu, direct = np.broadcast_arrays(y, mu, direct)
    series = ~direct
    out = np.empty(mu.shape)
    out[direct] = _case_e_direct(y[direct], mu[direct])
    out[series] = _case_e_series(y[series], mu[series])
    return out
