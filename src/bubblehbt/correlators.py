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

The direct form is 0/0 at mu = 0 and loses about eps/mu^3 of its relative
accuracy to cancellation above it.  So small mu takes the series of
s = F/F(0,0) in powers of mu^2, a sum over orders k carried through mu^14:

    s = 6 sum_(k=0..7) (-1)^k mu^(2k) (2k+2)/(2k+3)! M_(2k+3)(y),

with M_n the moment of x^n exp(-x^2 + i y x) over x = t/tau > 0.  Their
recurrence 2 M_n = i y M_(n-1) + (n-1) M_(n-2) (+1 at n = 1) from
M_0 = a + i b, a = (sqrt(pi)/2) exp(-y^2/4) and b = D(y/2), sums to
s = P (b - i a) + Q, with P / y and Q polynomials in y^2 and mu^2 whose
coefficients `_series_coefficients` derives from it in integers.
Through mu^2,

    P = y [y^2/4 - 3/2 + mu^2 (y^4/160 - y^2/8 + 3/8) + ...],
    Q = 1 - y^2/4 + mu^2 (-y^4/160 + 9 y^2/80 - 1/5) + ...,

so the series excess (1/2) [(P b + Q)^2 + (P a)^2] is real arithmetic too.
Each order's P / y and Q, D(y/2) and exp(-y^2/4) are computed on y's
shape, a grid's d_omega row; only the sums of P / y and Q over the powers
of mu^2, and the last few products, run on the broadcast shape.  Each sum
adds its terms one at a time, highest power first, whatever the shapes
and memory layouts of y and mu, so a point gives the same bits alone and
in a grid: the powers of mu^2 hold the order axis first in memory, or
last for a q column against a d_omega row, and either way einsum's inner
loop runs along an axis of the output, not along the orders
(`_case_e_series`).

Two thresholds pick the branch: the series where mu <= MU_SERIES_MAX and
mu |y| <= MU_Y_SERIES_MAX, the direct form elsewhere, where mu > 0.  The
series' P b + Q cancels like the upward moment recurrence (Gautschi, SIAM
Review 9 (1967) 24), and the terms of its sum over orders grow like
(mu y)^(2k), so large mu |y| takes the direct form.  Both branches lose
every digit far out in |y| (ROADMAP item 6).  Smeared case D takes Si from
`sine_integral`.

Each factorized case is one row of `_FACTORIZED`: its shape constant c
and its kernels Phi(x) at x = q R, T(y) at y = d_omega tau and <T>(t) at
t = tau W, so a fit can loop over the rows without branching on the
case.  A kernel is plain numpy (math for <T>) on an argument its caller
has checked, and takes its limit where a product or a square overflows.
Each public entry, `form_factor`, `time_factor`, `mean_time_factor`,
`phi_of_X`, `small_q_coefficient` and the `kappa_*` pair, looks its case
up once, as a member or its string, checks its own argument once and
silences numpy's overflow warning in at most one scope.  `excess` alone
reads the source's scale, as `oracle.numeric_correlation` does for the
quadratures: it checks q once, before a scale multiplies it, and calls
the row's kernels, or `case_e_excess` at mu = r_dot tau q and y, in its
one scope.  `time_factor`, `form_factor` and `phi_of_X` take arrays, and
`excess`, `correlation` and `case_e_excess` broadcast q against d_omega,
or mu against y (a `(nq, 1)` q column and an `(nw,)` d_omega row give
the `(nq, nw)` grid), so a whole surface is one call; case E picks the
direct form or the series per point by a mask on mu and mu |y|.  Scalars
in give a scalar out.
"""

import functools
import math
from collections import namedtuple
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

# Case E takes its series where mu <= MU_SERIES_MAX and
# mu |y| <= MU_Y_SERIES_MAX, and the direct form elsewhere.  Both bounds and
# the series' order are read off the mpmath table in tests/data, which
# tools/mpmath_references.py writes and reports on: below them the series
# through mu^14 is within 7e-14 of it for |y| <= 5, the direct form is
# within 6e-14 above mu = 0.55, and for |y| <= 1e8 the excess stays in
# [0, 1/2] (through mu^12, no switch gets both branches within 1e-13).
MU_SERIES_MAX = 0.55
MU_Y_SERIES_MAX = 3.0


def _series_coefficients(order: int) -> np.ndarray:
    """The (J, K, 2) array of the coefficients of case E's P / y and Q
    through mu^(2 order), J = order + 2 and K = order + 1 (module
    docstring): entry [j, k] belongs to y^(2 (J-1-j)) mu^(2 (K-1-k)).
    Highest powers come first, so for mu < 1 each sum over orders adds its
    smallest terms first.

    The moment recurrence runs in integers: 2^n M_n = a_n M_0 + b_n, with
    a_n and b_n polynomials in t = i y that follow
    a_n = t a_(n-1) + 2 (n-1) a_(n-2) from a = (1, t) and b = (0, 1).  Each
    coefficient is one ratio of integers, whose float is the one nearest
    the rational."""
    # the coefficients of t^0, t^1, ... of a_n and of b_n
    a, b = [[1], [0, 1]], [[0], [1]]
    for n in range(2, 2 * order + 4):
        for poly in (a, b):
            poly.append([0, *poly[n - 1]])
            for i, c in enumerate(poly[n - 2]):
                poly[n][i] += 2 * (n - 1) * c
    coef = np.zeros((order + 2, order + 1, 2))
    for k in range(order + 1):
        n = 2 * k + 3
        num, den = 6 * (-1) ** k * (2 * k + 2), math.factorial(n) * 2 ** n
        # M_0 = i (b - i a), so the mu^(2k) terms are P = i a_n num / den
        # and Q = b_n num / den, with a_n odd in t and b_n even:
        # i t^(2j+1) = -(-1)^j y^(2j+1) and t^(2j) = (-1)^j y^(2j)
        for j in range(k + 2):
            sign = (-1) ** j
            coef[-1 - j, -1 - k] = (-sign * a[n][2 * j + 1] * num / den,
                                    sign * b[n][2 * j] * num / den)
    return coef


_SERIES_COEF = _series_coefficients(7)

_SQRT3 = math.sqrt(3.0)
_HALF_SQRT_PI = 0.5 * math.sqrt(math.pi)


@dataclass(frozen=True)
class CorrelationValue:
    """C - 1, a scalar or an array of q broadcast against d_omega, and C,
    derived from it as 1 + (C - 1) on each read: the excess is the one
    number stored."""

    excess: Values

    @property
    def c(self) -> Values:
        return 1.0 + self.excess


def _check_q(q: Values) -> None:
    # one reduction: the minimum with 0 is NaN where any q is NaN, below 0
    # where any is negative (-0.0 passes), and 0 for an empty array
    if not np.asarray(q).min(initial=0.0) >= 0.0:
        raise ValueError("q must be non-negative")


def _gaussian(v: Values) -> Values:
    return np.exp(-v * v)


def _sphere(x: Values) -> Values:
    """[3 (sin x - x cos x) / x^3]^2 for x >= 0, the squared normalized
    sphere transform; its limit 0 where x^3 overflows, and below x = 0.5
    the square of the amplitude's Taylor series through x^12,

        6 sum_(j=0..6) (-1)^j (j + 1) x^(2j) / (2j + 3)!,

    whose next term is below 1e-17 there.  The direct form cancels to
    about eps / x^2, 5e-12 relative near x = 0.01 and 2e-15 just above
    0.5, where the series is still within 1e-16 of mpmath."""
    # above 1e300 the amplitude is 0 in double precision anyway; the clip
    # keeps sin, cos and the numerator finite up to x = inf
    x = np.minimum(x, 1e300)
    x2 = x * x
    series = np.asarray(1.0 + x2 * (-0.1 + x2 * (1.0 / 280.0 + x2 * (
        -1.0 / 15120.0 + x2 * (1.0 / 1330560.0 + x2 * (
            -1.0 / 172972800.0 + x2 / 31135104000.0))))))
    return np.square(np.divide(3.0 * (np.sin(x) - x * np.cos(x)), x2 * x,
                               out=series, where=x >= 0.5))


def _exponential(x: Values) -> Values:
    d = 1.0 + x * x
    return 1.0 / (d * d * d * d)


def _mean_gaussian(t: float) -> float:
    x = 0.5 * t
    if x < 1e-3:
        return 1.0 - x * x * (1.0 / 3.0 - x * x / 10.0)
    return math.sqrt(math.pi) * math.erf(x) / (2.0 * x)


def _mean_box(t: float) -> float:
    y = 0.5 * _SQRT3 * t
    if y < 1e-3:
        return 1.0 - y * y * (1.0 / 9.0 - 2.0 * y * y / 225.0)
    # sin(inf) is undefined: the clip gives y = inf its limit 0, and from
    # y = 1e300 on sin^2(y) / y is far below an ulp of Si(2y) = pi / 2
    return float(sine_integral(2.0 * y) - math.sin(min(y, 1e300)) ** 2 / y) / y


# A factorized case's row: the shape constant c of Phi(q) = 1 - c (q R)^2
# + O(q^4), and its kernels Phi(x), T(y) and <T>(t), whose formulas
# `form_factor`, `time_factor` and `mean_time_factor` give.  The curvature
# kappa = -Phi''(0) is 2 c R^2, and on the rescaled axis X = sqrt(kappa/2) q
# every shape reads Phi(X / sqrt(c)).
_Row = namedtuple("_Row", "c phi time mean_time")

_FACTORIZED = {
    SourceCase.A_GAUSSIAN: _Row(1.0, _gaussian, _gaussian, _mean_gaussian),
    SourceCase.B_SHELL: _Row(1.0 / 3.0, lambda x: np.square(sinc(x)),
                             _gaussian, _mean_gaussian),
    SourceCase.C_SPHERE: _Row(1.0 / 5.0, _sphere, _gaussian, _mean_gaussian),
    SourceCase.D_EXPONENTIAL: _Row(
        4.0, _exponential, lambda y: np.square(sinc(_SQRT3 * y)), _mean_box),
}

FACTORIZED_CASES = tuple(_FACTORIZED)


def _row(case: SourceCase, message: str) -> _Row:
    """The row of `case`, a member or its string; ValueError for case E,
    with `message` formatted on the case's letter, and for any other value
    (`SourceCase`'s own)."""
    if (row := _FACTORIZED.get(SourceCase(case))) is None:
        raise ValueError(message.format(SourceCase(case).value))
    return row


@np.errstate(over="ignore")
def time_factor(case: SourceCase, y: Values) -> Values:
    """T at y = d_omega tau, the squared normalized temporal transform:
    exp(-y^2) for A-C, sinc^2(sqrt(3) y) for D; T(0) = 1, and 0 where
    y^2 or sqrt(3) y overflows."""
    return _row(case, "case {} has no factorized time factor").time(y)


def check_window(case: Optional[SourceCase], window: float) -> None:
    """ValueError unless a surface of `case` can be smeared over a box
    window of full width W = window: a factorized case, or None for a
    surface without a source, and 0 < W < inf."""
    if case is not None:
        _row(case, "smearing of the non-factorized case {} is unsupported")
    if not 0.0 < window < math.inf:
        raise ValueError("smearing window must be positive and finite")


def mean_time_factor(case: SourceCase, t: float) -> float:
    """<T> over a box window of full width W, at t = tau W, for the
    factorized cases, in closed form:

        A-C  T = exp(-(tau w)^2):         <T> = sqrt(pi) erf(x) / (2 x),
             x = t / 2;
        D    T = sinc^2(sqrt(3) tau w):   <T> = (Si(2y) - sin^2(y) / y) / y,
             y = sqrt(3) t / 2.

    Below x, y = 1e-3 each takes its Taylor series, whose next term is
    below 1e-19: there erf(x) / x loses its last bit and sin^2(y) can
    underflow.  At t = inf, where tau W overflows, each is its limit 0.  A
    negative or NaN t raises ValueError."""
    if not t >= 0.0:
        raise ValueError("tau W must be non-negative")
    return _row(case, "case {} has no factorized time factor").mean_time(t)


@np.errstate(over="ignore")
def form_factor(case: SourceCase, x: Values) -> Values:
    """Phi at x = q R, the squared normalized spatial transform: exp(-x^2)
    for A, sinc^2(x) for B, [3 (sin x - x cos x) / x^3]^2 for C and
    (1 + x^2)^-4 for D; Phi(0) = 1, and 0 where a power of x overflows.  A
    negative or NaN x raises ValueError."""
    _check_q(x)
    return _row(case, "case {} has no factorized form factor").phi(x)


# Far out on either axis the scale products and the kernels' squares
# overflow to inf, where each kernel takes its limit (case E's series is NaN
# there, which callers report): numpy's warnings would only be noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def excess(spec: SourceSpec, q: Values, d_omega: Values,
           smear_dw: Optional[float] = None) -> Values:
    """C - 1 with q broadcast against d_omega; coherent emission gives 0
    exactly.  With an energy window smear_dw, T is its box average <T> at
    every d_omega; the window is checked whatever the emission.  A
    negative or NaN q raises ValueError, checked before a small scale can
    round q R or mu to -0.0.  The one reader of the source's scale: each
    kernel gets x = q R, y = d_omega tau, t = tau W or mu = r_dot tau q."""
    if smear_dw is not None:
        check_window(spec.case, smear_dw)
    _check_q(q)
    if spec.emission is Emission.COHERENT:
        return np.zeros(np.broadcast(q, d_omega).shape)[()]
    if (row := _FACTORIZED.get(spec.case)) is None:
        return case_e_excess(spec.r_dot * spec.tau * q, d_omega * spec.tau)
    # tau and W are positive and finite, so t = tau W needs no check
    t = (row.time(d_omega * spec.tau) if smear_dw is None else np.full(
        np.shape(d_omega), row.mean_time(spec.tau * smear_dw))[()])
    return CHAOTICITY * t * row.phi(q * spec.R)


def correlation(spec: SourceSpec, q: Values, d_omega: Values
                ) -> CorrelationValue:
    """C(q, d_omega) with q broadcast against d_omega, for scalars or
    arrays; coherent emission gives C = 1 exactly."""
    return CorrelationValue(excess(spec, q, d_omega))


def small_q_coefficient(case: SourceCase, R: float) -> float:
    """Coefficient c R^2 in the expansion Phi(q) = 1 - c R^2 q^2 + ...; an
    R that is not positive and finite raises ValueError."""
    if not 0.0 < R < math.inf:
        raise ValueError("R must be positive and finite")
    return _row(case, "case {} has no shape constant").c * R * R


def kappa_analytic(case: SourceCase, R: float) -> float:
    """kappa = -Phi''(0) = 2 * small_q_coefficient."""
    return 2.0 * small_q_coefficient(case, R)


def kappa_to_radius(case: SourceCase, kappa: float) -> float:
    """R from the curvature kappa of Phi at the origin, per shape hypothesis."""
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    # kappa grows as R^2, and kappa_analytic(case, 1) is 2 c exactly
    return math.sqrt(kappa / kappa_analytic(case, 1.0))


@np.errstate(over="ignore")
def phi_of_X(case: SourceCase, X: Values) -> Values:
    """Phi on the rescaled axis X = sqrt(kappa/2) q; every case starts as
    1 - X^2 + O(X^4).  A negative or NaN X raises ValueError."""
    _check_q(X)
    c, phi, _, _ = _row(case, "case {} has no shape constant")
    return phi(X / math.sqrt(c))


def _case_e_direct(y: Values, mu: Values) -> np.ndarray:
    """9 |I|^2 / (8 mu^6) at points with mu > 0, from Re I and Im I in
    real arithmetic (module docstring)."""
    mu2 = mu * mu
    z_plus, z_minus = (y + mu) / 2.0, (y - mu) / 2.0
    mz_plus, mz_minus = mu * z_plus, mu * z_minus
    a_plus, a_minus = 1.0 + mz_plus, 1.0 - mz_minus
    re_i = 2.0 * (a_plus * dawson(z_plus) - a_minus * dawson(z_minus) - mu)
    # Im I = -sqrt(pi) im_i, so |I|^2 takes pi im_i^2
    im_i = (a_plus * np.exp(-np.square(z_plus))
            - a_minus * np.exp(-np.square(z_minus)))
    mu6 = mu2 * mu2 * mu2
    value = 9.0 * (re_i * re_i + math.pi * (im_i * im_i)) / (8.0 * mu6)
    # Where mu^6 or mu z± overflow (mu > 1e51, or |z±| > 1e257 / mu), or
    # mu^6 underflows and the quotient is inf (mu < 1e-51, so |y| > 1e51
    # here), the excess is below 1e-200, and the direct form gives 0, inf
    # or NaN there: return its limit 0.
    far = (np.isinf(mu6) | np.isinf(value) | np.isinf(mz_plus)
           | np.isinf(mz_minus))
    return np.where(far, 0.0, value)


@functools.lru_cache(maxsize=None)
def _exponents(n: int, ndim: int) -> np.ndarray:
    """n - 1, ..., 1, 0 along the first of 1 + ndim axes."""
    return np.arange(n - 1, -1, -1, dtype=float).reshape((n,) + (1,) * ndim)


def _case_e_series(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """(1/2) |s|^2 through mu^14 (module docstring).

    Each sum is one `einsum` over an order axis that the output lacks.  It
    adds every point's terms one at a time, highest power first, as long
    as einsum's inner loop runs along an axis of the output: a loop along
    the orders keeps partial sums, which group the terms otherwise.  With
    the order axis first in memory in both operands, the loop over the
    orders is the outermost.  For a q column against a d_omega row the
    powers of mu^2 hold it last, so the loop over the orders runs inside
    the q loop and outside the d_omega row, and each q row's sums stay in
    cache; the inner loop runs along that row, on which mu is constant."""
    y2 = y * y
    n_y, n_mu, _ = _SERIES_COEF.shape
    # P / y and Q of every order at y, (K, 2, *y.shape)
    pq = np.einsum("jkc,j...->kc...", _SERIES_COEF,
                   y2 ** _exponents(n_y, y2.ndim))
    # their sums over the orders, weighted by mu^(2k); the powers of mu^2
    # are (K, *mu.shape), the order axis last in memory where mu is
    # constant along the last axis and y is not
    mu2 = mu * mu
    if y2.ndim and y2.shape[-1] > 1 and mu2.shape[-1:] == (1,):
        powers = np.moveaxis(mu2[..., None] ** _exponents(n_mu, 0), -1, 0)
    else:
        powers = mu2 ** _exponents(n_mu, mu2.ndim)
    p_sum, q_sum = np.einsum("k...,kc...->c...", powers, pq)
    # s = y p_sum (b - i a) + q_sum
    re = y * dawson(0.5 * y) * p_sum + q_sum
    im = p_sum * (y * (_HALF_SQRT_PI * np.exp(-0.25 * y2)))
    return (re * re + im * im) * CHAOTICITY


def case_e_excess(mu: Values, y: Values) -> Values:
    """C - 1 for case E at mu = r_dot tau q and y = d_omega tau, mu
    broadcast against y: the small-mu series where mu <= MU_SERIES_MAX and
    mu |y| <= MU_Y_SERIES_MAX, the direct form elsewhere.  Each branch is
    evaluated once, on the points the mask gives it, or on the inputs as
    they are when it has them all: the series for a grid within both
    bounds with every mu >= 0 (the CLI's default), the direct form for one
    with each point past a bound (say every mu > MU_SERIES_MAX).  A
    negative or NaN mu raises ValueError."""
    # [()] keeps a scalar mu or y a numpy scalar, whose arithmetic costs
    # less than a 0-d array's and whose ndim the series reads
    mu = np.asarray(mu, dtype=float)[()]
    y = np.asarray(y, dtype=float)[()]
    # A negative, 0 or NaN mu fails both tests, so the direct form gets
    # mu > 0 only; mu >= 0 fails for a NaN mu too
    direct = (mu > MU_SERIES_MAX) | (mu * abs(y) > MU_Y_SERIES_MAX)
    if not np.count_nonzero(direct | ~(mu >= 0.0)):
        return _case_e_series(y, mu)
    if direct.all():
        return _case_e_direct(y, mu)[()]
    _check_q(mu)
    y, mu, direct = np.broadcast_arrays(y, mu, direct)
    series = ~direct
    out = np.empty(mu.shape)
    out[direct] = _case_e_direct(y[direct], mu[direct])
    out[series] = _case_e_series(y[series], mu[series])
    return out
