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
onset) and cutoffs sit in one branch.  Each takes the case alone, in
s = t/tau and u = r/R (r in units of r_dot tau for E): the scale is read
from the `SourceSpec` by the oracle only.  `time_profile` and
`radial_profile` give the factors of A-D.  Case E does not factorize,
and `shock_amplitude` defines its whole source once: the lapse, its onset
and cutoff, the front and the ball's space integral in closed form, as
one closure of s at every mu = q r_dot tau, which the oracle integrates
with one Python call per node.
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
        # a value spelled as its string becomes the member; any other value
        # raises ValueError
        object.__setattr__(self, "case", SourceCase(self.case))
        object.__setattr__(self, "emission", Emission(self.emission))
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


def time_profile(case: SourceCase
                 ) -> Tuple[Callable[[float], float], Tuple[float, float]]:
    """rho_t(s) of cases A-D and the interval (s0, s1) outside which it is
    below DENSITY_CUTOFF of its peak: the Gaussian lapse of A-C, D's box
    (exactly zero outside).  Case E's lapse is part of `shock_amplitude`.
    """
    if case is SourceCase.D_EXPONENTIAL:
        w = math.sqrt(3.0)
        return (lambda s: 1.0 if -w <= s <= w else 0.0), (-w, w)
    if case is SourceCase.E_EXPANDING_SHOCK:
        raise ValueError("case E has no factorized time profile")
    return (lambda s: math.exp(-s * s / 2.0)), (-_GAUSS_CUT, _GAUSS_CUT)


def radial_profile(case: SourceCase
                   ) -> Tuple[Callable[[float], float], float]:
    """rho_s(u) of cases A, C and D and the u beyond which it is below
    DENSITY_CUTOFF of its peak (C's edge, where it is exactly zero).  Case B
    is a delta shell and case E's ball grows with s (see shock_amplitude)."""
    if case is SourceCase.A_GAUSSIAN:
        return (lambda u: math.exp(-u * u / 2.0)), _GAUSS_CUT
    if case is SourceCase.C_SPHERE:
        return (lambda u: 1.0 if u <= 1.0 else 0.0), 1.0
    if case is SourceCase.D_EXPONENTIAL:
        return (lambda u: math.exp(-u)), _EXP_CUT
    raise ValueError(f"case {case.value} has no pointwise radial profile")


def shock_amplitude(mu: float
                    ) -> Tuple[Callable[[float], float], Tuple[float, float]]:
    """Case E's space-time integrand at mu and its support (s0, s1):

        f(s) = exp(-s^2) integral_0^s u^2 sinc(mu u) du,

    the one-sided lapse, exactly zero before the onset s0 = 0 and below
    DENSITY_CUTOFF past s1 = sqrt(ln(1/cutoff)), times the space integral
    over the ball u <= s, whose front is r_dot t.  That integral is
    (sin x - x cos x) / mu^3 with x = mu s, and its Taylor series below
    x = 1e-3, where the direct form cancels; at mu = 0, where x = 0, the
    series is s^3 / 3, so one closure serves every mu.  The source's
    transform at (q, d_omega) is (r_dot tau)^3 tau times the Fourier
    integral of f at y = d_omega tau."""
    if not mu >= 0.0:
        raise ValueError("mu must be non-negative")
    exp, sin, cos = math.exp, math.sin, math.cos
    mu3 = mu * mu * mu

    def amplitude(s: float) -> float:
        if s < 0.0:
            return 0.0
        x = mu * s
        if x < 1e-3:
            # s^3/3 - s^3 x^2/30 + s^3 x^4/840
            inner = s ** 3 * (1.0 / 3.0
                              + x * x * (-1.0 / 30.0 + x * x / 840.0))
        else:
            inner = (sin(x) - x * cos(x)) / mu3
        return exp(-s * s) * inner
    # exp(-s^2) < cutoff for s > sqrt(ln(1/cutoff))
    return amplitude, (0.0, math.sqrt(_EXP_CUT))
