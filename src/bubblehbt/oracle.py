"""Brute-force correlation values by direct numerical Fourier transform.

Ground truth for validating every closed form and series branch: the excess
is computed as (1/2) |F(q, d_omega)|^2 / |F(0,0)|^2 with F the space-time
Fourier transform of the source density, evaluated by adaptive quadrature.
Oscillatory integrands pass their bare density to QUADPACK's rule for a
cos or sin weight (QAWO), which integrates the oscillation by modified
Clenshaw-Curtis moments instead of sampling it.

For cases A-D the transform factorizes, F(q, d_omega) = T(d_omega) S(q),
and each factor is computed once per (source, argument): a grid of
nq x nw points costs nq + nw quadratures.  B's space factor, sinc(q R) in
closed form, is cached the same way.  Case E does not factorize and costs
two quadratures per point, of the integrand closure that
`sources.shock_amplitude` defines (the lapse times the ball's space
integral in closed form): one Python call per quadrature node.  F(0,0) is
computed once per source.

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
def _time_amplitude(spec: SourceSpec, d_omega: float) -> float:
    """integral rho_t(t) cos(d_omega t) dt over the time support (real by
    symmetry for A-D)."""
    rho, (t0, t1) = time_profile(spec)
    return _quad(rho, t0, t1, "cos", d_omega)


@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _space_amplitude(spec: SourceSpec, q: float) -> float:
    """The space factor of F, 4 pi integral r^2 rho_s(r) sinc(q r) dr up to
    constant factors.  For the delta shell B, whose radial measure picks
    out r = R, it is sinc(q R); for A, C and D a quadrature over the radial
    support.  For q > 0 that integrand is written r rho_s(r) / q with a
    sin(q r) weight, which has no removable singularity."""
    if spec.case is SourceCase.B_SHELL:
        return float(sinc(q * spec.R))
    rho, edge = radial_profile(spec)
    if q > 0.0:
        return _quad(lambda r: r * rho(r) / q, 0.0, edge, "sin", q)
    return _quad(lambda r: r * r * rho(r), 0.0, edge)


def _transform(spec: SourceSpec, q: float, d_omega: float) -> complex:
    """F(q, d_omega) up to constant factors.  For A-D it is the product of
    the time and space amplitudes; for the expanding shock, the cos and sin
    transforms of `shock_amplitude`'s integrand, which QUADPACK calls once
    per node."""
    if spec.case is SourceCase.E_EXPANDING_SHOCK:
        f, (t0, t1) = shock_amplitude(spec, q)
        return complex(_quad(f, t0, t1, "cos", d_omega),
                       _quad(f, t0, t1, "sin", d_omega))
    return _time_amplitude(spec, d_omega) * _space_amplitude(spec, q)


@functools.lru_cache(maxsize=32)
def _origin_transform(spec: SourceSpec) -> complex:
    """F(0, 0), which depends on the source alone; for A-D a product of
    two cached factors.  Every C divides by it, so a zero F(0, 0) raises
    OracleConvergenceError."""
    f0 = _transform(spec, 0.0, 0.0)
    if f0 == 0.0:
        raise OracleConvergenceError(
            f"F(0,0) underflows to 0 at tau = {spec.tau:g} ps")
    return f0


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
    f = _transform(spec, q, d_omega)
    f0 = _origin_transform(spec)
    excess = CHAOTICITY * abs(f / f0) ** 2
    return CorrelationValue(c=1.0 + excess, excess=excess)


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
