"""The five space-time source densities: profiles and their supports.

Cases (spherically symmetric, unnormalized; normalization cancels in the
correlation ratio):

    A  Gaussian ball, Gaussian time lapse      exp(-r^2/2R^2) exp(-t^2/2tau^2)
    B  spherical shell delta(r - R), Gaussian time lapse
    C  homogeneous sphere of radius R, Gaussian time lapse
    D  exponential ball, constant emission for t^2 < 3 tau^2
    E  expanding shock front: filled ball of radius Rdot*t for t > 0,
       one-sided Gaussian time profile exp(-t^2/tau^2)

Case E's time exponent is -t^2/tau^2 (not -t^2/2tau^2 as in A-C); both are
kept exactly as defined.

This module is the one definition of each source: each profile returns
its support with it, so a case's hard edges (C's ball, D's time box, E's
onset) and cutoffs sit in one branch.  `time_profile` and `radial_profile`
give the factors of A-D.  Case E does not factorize, and `shock_amplitude`
defines its whole source once: the lapse, its onset and cutoff, the front
r_dot t and the ball's space integral in closed form, as one closure of t
that the oracle integrates with one Python call per quadrature node.  The
quadrature oracle integrates these profiles over these supports.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

from .kinematics import C_UM_PER_PS

__all__ = [
    "SourceCase",
    "Emission",
    "SourceSpec",
    "time_profile",
    "radial_profile",
    "shock_amplitude",
    "DENSITY_CUTOFF",
]

# Relative density level below which the support is treated as ended.
DENSITY_CUTOFF = 1e-12

# exp(-x^2/2) < 1e-12  for  x > _GAUSS_CUT;  exp(-x) < 1e-12 for x > _EXP_CUT
_GAUSS_CUT = math.sqrt(-2.0 * math.log(DENSITY_CUTOFF))  # ~7.4338
_EXP_CUT = -math.log(DENSITY_CUTOFF)                     # ~27.631


class SourceCase(str, Enum):
    A_GAUSSIAN = "A"
    B_SHELL = "B"
    C_SPHERE = "C"
    D_EXPONENTIAL = "D"
    E_EXPANDING_SHOCK = "E"


class Emission(str, Enum):
    CHAOTIC = "chaotic"
    COHERENT = "coherent"


@dataclass(frozen=True)
class SourceSpec:
    """One source case with its parameters.

    R is the spatial extension (um, unused for case E), tau the time span
    (ps), r_dot the shock-front speed (um/ps, case E only).
    """

    case: SourceCase
    tau: float
    R: Optional[float] = None
    r_dot: Optional[float] = None
    emission: Emission = Emission.CHAOTIC

    def __post_init__(self):
        # the comparisons are False for NaN, and the upper bounds reject inf
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if self.case is SourceCase.E_EXPANDING_SHOCK:
            if self.r_dot is None or not self.r_dot > 0.0:
                raise ValueError("case E requires r_dot > 0")
            # non-relativistic shock front
            if not self.r_dot < 0.01 * C_UM_PER_PS:
                raise ValueError("case E requires r_dot << c (r_dot < 0.01 c)")
        else:
            if self.R is None or not 0.0 < self.R < math.inf:
                raise ValueError(
                    f"case {self.case.value} requires a finite R > 0")


def time_profile(spec: SourceSpec
                 ) -> Tuple[Callable[[float], float], Tuple[float, float]]:
    """rho_t(t) of cases A-D and the interval (t0, t1) outside which it is
    below DENSITY_CUTOFF of its peak: the Gaussian lapse of A-C, D's box
    (exactly zero outside).  Case E's lapse is part of `shock_amplitude`.
    """
    tau = spec.tau
    if spec.case is SourceCase.D_EXPONENTIAL:
        w = math.sqrt(3.0) * tau
        return (lambda t: 1.0 if -w <= t <= w else 0.0), (-w, w)
    if spec.case is SourceCase.E_EXPANDING_SHOCK:
        raise ValueError("case E has no factorized time profile")
    two_tau2 = 2.0 * tau * tau
    w = _GAUSS_CUT * tau
    return (lambda t: math.exp(-t * t / two_tau2)), (-w, w)


def radial_profile(spec: SourceSpec
                   ) -> Tuple[Callable[[float], float], float]:
    """rho_s(r) of cases A, C and D and the radius beyond which it is below
    DENSITY_CUTOFF of its peak (C's edge, where it is exactly zero).  Case B
    is a delta shell and case E's ball grows with t (see shock_amplitude)."""
    case, R = spec.case, spec.R
    if case is SourceCase.A_GAUSSIAN:
        two_R2 = 2.0 * R * R
        return (lambda r: math.exp(-r * r / two_R2)), _GAUSS_CUT * R
    if case is SourceCase.C_SPHERE:
        return (lambda r: 1.0 if r <= R else 0.0), R
    if case is SourceCase.D_EXPONENTIAL:
        return (lambda r: math.exp(-r / R)), _EXP_CUT * R
    raise ValueError(f"case {case.value} has no pointwise radial profile")


def shock_amplitude(spec: SourceSpec, q: float
                    ) -> Tuple[Callable[[float], float], Tuple[float, float]]:
    """Case E's space-time integrand at momentum q and its support (t0, t1):

        f(t) = rho_t(t) integral_0^{r_dot t} r^2 sinc(q r) dr,

    the one-sided lapse rho_t(t) = exp(-t^2/tau^2), exactly zero before the
    onset t0 = 0 and below DENSITY_CUTOFF past t1 = tau sqrt(ln(1/cutoff)),
    times the space integral over the ball r <= r_dot t.  That integral is
    (sin x - x cos x) / q^3 with x = q r_dot t, and its Taylor series below
    x = 1e-3, where the direct form cancels; at q = 0 it is (r_dot t)^3 / 3.
    The space-time transform of the source is the Fourier integral of f
    over (t0, t1)."""
    if spec.case is not SourceCase.E_EXPANDING_SHOCK:
        raise ValueError(f"case {spec.case.value} is not the expanding shock")
    if not q >= 0.0:
        raise ValueError("q must be non-negative")
    tau, r_dot = spec.tau, spec.r_dot
    tau2 = tau * tau
    exp, sin, cos = math.exp, math.sin, math.cos
    # exp(-t^2/tau^2) < cutoff for t > tau*sqrt(ln(1/cutoff))
    support = (0.0, tau * math.sqrt(_EXP_CUT))
    if q > 0.0:
        q3 = q * q * q

        def amplitude(t: float) -> float:
            if t < 0.0:
                return 0.0
            a = r_dot * t
            x = q * a
            if x < 1e-3:
                # a^3/3 - a^5 q^2/30 + a^7 q^4/840
                inner = a ** 3 * (1.0 / 3.0
                                  + x * x * (-1.0 / 30.0 + x * x / 840.0))
            else:
                inner = (sin(x) - x * cos(x)) / q3
            return exp(-t * t / tau2) * inner
    else:
        def amplitude(t: float) -> float:
            if t < 0.0:
                return 0.0
            return exp(-t * t / tau2) * ((r_dot * t) ** 3 / 3.0)
    return amplitude, support
