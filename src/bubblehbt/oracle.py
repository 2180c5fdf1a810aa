"""Brute-force correlation values by direct numerical Fourier transform.

Ground truth for validating every closed form and series branch: the excess
is computed as (1/2) |F(q, d_omega)|^2 / |F(0,0)|^2 with F the space-time
Fourier transform of the source density, evaluated by adaptive quadrature.
Oscillatory integrands pass their bare density to QUADPACK's rule for a
cos or sin weight (QAWO), which integrates the oscillation by modified
Clenshaw-Curtis moments instead of sampling it.

numeric_correlation is the one reader of the source's scale.  The excess
depends on x = q R (mu = q r_dot tau for E) and y = d_omega tau alone, so
the rest of the oracle integrates the unit-scale profiles of `sources` in
them: ABS_TOL means one accuracy at every scale, F(0,0) is one number per
case, and the caches key on the case and x or y.  For A-D the transform
factorizes, F = T(y) S(x), and each factor is computed once per (case,
argument): a grid of nq x nw points costs nq + nw quadratures (B's S,
sinc(x) in closed form, is cached the same way).  Case E does not
factorize and costs two quadratures per point, of the closure
`sources.shock_amplitude` defines: one Python call per quadrature node.

numeric_correlation converts q and d_omega to Python floats once, so each
point is evaluated in Python floats, also when the caller passes numpy
scalars; a non-finite q or d_omega is rejected there.

Every quadrature meets REL_TOL and ABS_TOL within MAX_SUBDIVISIONS, or
raises OracleConvergenceError, again on every call, since a failure is not
cached.
"""

import functools
import math
from typing import Callable, Optional, Tuple

from scipy import integrate

from .correlators import CHAOTICITY, CorrelationValue
from .sources import (Emission, SourceCase, SourceSpec, radial_profile,
                      shock_amplitude, time_profile)
from .special_functions import sinc

__all__ = [
    "REL_TOL",
    "ABS_TOL",
    "MAX_SUBDIVISIONS",
    "OracleConvergenceError",
    "numeric_correlation",
    "numeric_curvature",
]


REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 2000
# entries of each factor cache, a bound on its memory: the acceptance grids
# of A-D fill 80 time and 80 space entries
FACTOR_CACHE_SIZE = 4096


class OracleConvergenceError(ArithmeticError):
    """Adaptive quadrature failed to meet tolerance within the subdivision
    budget."""


def _quad(f: Callable[[float], float], a: float, b: float,
          weight: Optional[str] = None, omega: float = 0.0) -> float:
    """Adaptive quadrature of f(x) on [a, b], or of f(x) cos(omega x) or
    f(x) sin(omega x) for weight 'cos' or 'sin' (QAWO when omega != 0)."""
    if weight == "sin" and omega == 0.0:
        return 0.0
    oscillation = {"weight": weight, "wvar": omega} if weight and omega else {}
    # with full_output, a run that ends with QUADPACK's status ier in
    # 1-5 or 7 returns its message after the info dict, and warns nothing
    val, abserr, _, *failure = integrate.quad(
        f, a, b, epsabs=ABS_TOL, epsrel=REL_TOL, limit=MAX_SUBDIVISIONS,
        full_output=1, **oscillation)
    if failure:
        # quadpack's first sentence names the failure; the rest is advice.
        # Its message breaks lines mid-sentence, so whitespace is collapsed
        sentence, end, _ = " ".join(failure[0].split()).partition(". ")
        raise OracleConvergenceError(sentence + end.strip())
    if abserr > 100.0 * max(ABS_TOL, REL_TOL * abs(val)):
        raise OracleConvergenceError(
            f"estimated error {abserr:g} exceeds tolerance for value {val:g}")
    return val


@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _time_amplitude(case: SourceCase, y: float) -> float:
    """integral rho_t(s) cos(y s) ds over the time support (real by
    symmetry for A-D)."""
    rho, (s0, s1) = time_profile(case)
    return _quad(rho, s0, s1, "cos", y)


@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _space_amplitude(case: SourceCase, x: float) -> float:
    """The space factor of F, 4 pi integral u^2 rho_s(u) sinc(x u) du up to
    constant factors.  For the delta shell B, whose radial measure picks
    out u = 1, it is sinc(x); for A, C and D a quadrature over the radial
    support.  For x > 0 that integrand is written u rho_s(u) / x with a
    sin(x u) weight, which has no removable singularity."""
    if case is SourceCase.B_SHELL:
        return float(sinc(x))
    rho, edge = radial_profile(case)
    if x > 0.0:
        return _quad(lambda u: u * rho(u) / x, 0.0, edge, "sin", x)
    return _quad(lambda u: u * u * rho(u), 0.0, edge)


def _transform(case: SourceCase, x: float, y: float) -> complex:
    """F up to constant factors.  For A-D it is the product of the time and
    space amplitudes; for the expanding shock, the cos and sin transforms
    of `shock_amplitude`'s integrand, which QUADPACK calls once per node."""
    if case is SourceCase.E_EXPANDING_SHOCK:
        f, (s0, s1) = shock_amplitude(x)
        if math.isinf(x * s1):
            raise OracleConvergenceError(
                f"mu s overflows in case E's integrand at mu = {x:g}")
        return complex(_quad(f, s0, s1, "cos", y),
                       _quad(f, s0, s1, "sin", y))
    return _time_amplitude(case, y) * _space_amplitude(case, x)


@functools.lru_cache(maxsize=None)
def _origin_transform(case: SourceCase) -> complex:
    """F(0, 0), one number per case (1/6 for E); for A-D a product of two
    cached factors."""
    return _transform(case, 0.0, 0.0)


def numeric_correlation(spec: SourceSpec, q: float, d_omega: float
                        ) -> CorrelationValue:
    """C(q, d_omega) from the space-time Fourier transform of the density."""
    if spec.emission is not Emission.CHAOTIC:
        raise ValueError("the oracle applies to chaotic sources")
    if not q >= 0.0:
        raise ValueError("q must be non-negative")
    # the quadratures' integrands then compute in Python floats, not in
    # the caller's numpy scalars
    q, d_omega = float(q), float(d_omega)
    if not (math.isfinite(q) and math.isfinite(d_omega)):
        raise ValueError("q and d_omega must be finite")
    if spec.case is SourceCase.E_EXPANDING_SHOCK:
        x = q * spec.r_dot * spec.tau
    else:
        x = q * spec.R
    f = _transform(spec.case, x, d_omega * spec.tau)
    return CorrelationValue(
        CHAOTICITY * abs(f / _origin_transform(spec.case)) ** 2)


def numeric_curvature(phi_sampler: Callable[[float], float],
                      h: float) -> Tuple[float, float]:
    """kappa = -d^2 Phi / dq^2 at q = 0 by Richardson-extrapolated central
    second differences (even extension of Phi), with an error estimate."""
    if not h > 0.0:
        raise ValueError("step h must be positive")
    phi0 = phi_sampler(0.0)

    def second_diff(step: float) -> float:
        return 2.0 * (phi_sampler(step) - phi0) / (step * step)

    d_h = second_diff(h)
    d_h2 = second_diff(0.5 * h)
    kappa = -(4.0 * d_h2 - d_h) / 3.0
    err = abs(d_h2 - d_h) / 3.0
    return kappa, err
