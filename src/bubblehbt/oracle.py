"""Brute-force correlation values by direct numerical Fourier transform.

Ground truth for validating every closed form and series branch: the excess
is computed as (1/2) |F(q, d_omega)|^2 / |F(0,0)|^2 with F the space-time
Fourier transform of the source density, evaluated by adaptive quadrature.
Oscillatory integrands are pre-subdivided at their half-periods before the
adaptive scheme refines.

Every quadrature uses the module constants REL_TOL, ABS_TOL and
MAX_SUBDIVISIONS; a result that misses them raises OracleConvergenceError.
"""

import math
import warnings
from typing import Callable, Tuple

from scipy import integrate

from .correlators import CHAOTICITY, CorrelationValue
from .sources import (Emission, SourceCase, SourceSpec, radial_profile,
                      shock_front, time_profile)
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


class OracleConvergenceError(ArithmeticError):
    """Adaptive quadrature failed to meet tolerance within the subdivision
    budget."""


def _quad(f: Callable[[float], float], a: float, b: float,
          half_periods: Tuple[float, ...] = ()) -> float:
    """Adaptive quadrature of f on [a, b], pre-split at oscillation
    half-periods."""
    # cap explicit breakpoints well below the subdivision budget; adaptive
    # refinement handles the rest
    max_pts = min(200, MAX_SUBDIVISIONS // 2)
    pts = set()
    for h in half_periods:
        if h <= 0.0 or not math.isfinite(h):
            continue
        n = int((b - a) / h)
        if n < 1:
            continue
        stride = max(1, n // max_pts + 1)
        for k in range(stride, n + 1, stride):
            pts.add(a + k * h)
    points = sorted(p for p in pts if a < p < b) or None
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, abserr = integrate.quad(
                f, a, b, points=points,
                epsabs=ABS_TOL, epsrel=REL_TOL, limit=MAX_SUBDIVISIONS)
        except integrate.IntegrationWarning as exc:
            # quadpack's first line names the failure; the rest is advice
            raise OracleConvergenceError(
                str(exc).strip().splitlines()[0]) from exc
    if abserr > 100.0 * max(ABS_TOL, REL_TOL * abs(val)):
        raise OracleConvergenceError(
            f"estimated error {abserr:g} exceeds tolerance for value {val:g}")
    return val


def _time_amplitude(spec: SourceSpec, d_omega: float) -> float:
    """integral rho_t(t) cos(d_omega t) dt over the time support (real by
    symmetry for A-D)."""
    rho, (t0, t1) = time_profile(spec)
    f = lambda t: rho(t) * math.cos(d_omega * t)
    hp = (math.pi / abs(d_omega),) if d_omega != 0.0 else ()
    return _quad(f, t0, t1, hp)


def _space_amplitude(spec: SourceSpec, q: float) -> float:
    """4 pi integral r^2 rho_s(r) sinc(q r) dr over the radial support
    (constant prefactors cancel in the ratio).  For q > 0 the integrand is
    written r rho_s(r) sin(q r) / q, which has no removable singularity."""
    if spec.case is SourceCase.B_SHELL:
        # delta shell: the radial measure picks out r = R
        return sinc(q * spec.R)
    rho, edge = radial_profile(spec)
    if q > 0.0:
        return _quad(lambda r: r * rho(r) * math.sin(q * r) / q, 0.0, edge,
                     (math.pi / q,))
    return _quad(lambda r: r * r * rho(r), 0.0, edge)


def _shock_inner(q: float, a: float) -> float:
    """integral_0^a r^2 sinc(q r) dr in closed form."""
    x = q * a
    if x < 1e-3:
        # a^3/3 - a^5 q^2/30 + a^7 q^4/840
        return a ** 3 * (1.0 / 3.0 + x * x * (-1.0 / 30.0 + x * x / 840.0))
    return (math.sin(x) - x * math.cos(x)) / (q * q * q)


def _case_e_transform(spec: SourceSpec, q: float, d_omega: float) -> complex:
    """F(q, d_omega) for the expanding shock (up to constant factors)."""
    rho, (t0, t1) = time_profile(spec)
    front = shock_front(spec)
    if q > 0.0:
        env = lambda t: rho(t) * _shock_inner(q, front(t))
    else:
        env = lambda t: rho(t) * (front(t) ** 3 / 3.0)
    # half-periods of the cos/sin(d_omega t) and sin(q r_dot t) oscillations
    hp = [math.pi / k for k in (abs(d_omega), q * spec.r_dot) if k > 0.0]
    re = _quad(lambda t: env(t) * math.cos(d_omega * t), t0, t1, hp)
    im = _quad(lambda t: env(t) * math.sin(d_omega * t), t0, t1, hp)
    return complex(re, im)


def numeric_correlation(spec: SourceSpec, q: float, d_omega: float
                        ) -> CorrelationValue:
    """C(q, d_omega) from the space-time Fourier transform of the density."""
    if spec.emission is not Emission.CHAOTIC:
        raise ValueError("the oracle applies to chaotic sources")
    if not q >= 0.0:
        raise ValueError("q must be non-negative")
    if spec.case is SourceCase.E_EXPANDING_SHOCK:
        f = _case_e_transform(spec, q, d_omega)
        f0 = _case_e_transform(spec, 0.0, 0.0)
        ratio2 = abs(f / f0) ** 2
    else:
        ft = _time_amplitude(spec, d_omega)
        ft0 = _time_amplitude(spec, 0.0)
        fs = _space_amplitude(spec, q)
        fs0 = _space_amplitude(spec, 0.0)
        ratio2 = (ft / ft0) ** 2 * (fs / fs0) ** 2
    excess = CHAOTICITY * ratio2
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
