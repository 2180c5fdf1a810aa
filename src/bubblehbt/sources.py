"""The five space-time source densities: profiles, hard edges, supports.

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

This module is the one definition of each source: its profiles, its hard
edges (in the supports, and case E's `shock_front`) and `density`, built
from them.  The quadrature oracle integrates the same profiles.
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
    "DistributionalDensityError",
    "density",
    "time_profile",
    "radial_profile",
    "shock_front",
    "radial_support",
    "time_support",
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


class DistributionalDensityError(ValueError):
    """The shell density is a radial delta measure; it has no pointwise value."""


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


def density(spec: SourceSpec, r: float, t: float) -> float:
    """Unnormalized rho(r, t) at r >= 0 (um) and t (ps): the time profile
    times the radial profile, or for case E the time profile inside the shock
    front.  Case B, a delta shell, raises DistributionalDensityError."""
    if not r >= 0.0:
        raise ValueError("r must be non-negative")
    if spec.case is SourceCase.E_EXPANDING_SHOCK:
        return time_profile(spec)(t) if r <= shock_front(spec)(t) else 0.0
    return time_profile(spec)(t) * radial_profile(spec)(r)


def time_profile(spec: SourceSpec) -> Callable[[float], float]:
    """rho_t(t): the Gaussian lapse of A-C, D's box, E's one-sided
    exp(-t^2/tau^2).  The box and E's onset are time_support's edges."""
    tau = spec.tau
    t0, t1 = time_support(spec)
    if spec.case is SourceCase.D_EXPONENTIAL:
        return lambda t: 1.0 if t0 <= t <= t1 else 0.0
    if spec.case is SourceCase.E_EXPANDING_SHOCK:
        tau2 = tau * tau
        return lambda t: math.exp(-t * t / tau2) if t >= t0 else 0.0
    two_tau2 = 2.0 * tau * tau
    return lambda t: math.exp(-t * t / two_tau2)


def radial_profile(spec: SourceSpec) -> Callable[[float], float]:
    """rho_s(r) of cases A, C and D; C's edge is its radial_support.  Case B
    has no pointwise profile and case E's density does not separate."""
    case, R = spec.case, spec.R
    if case is SourceCase.A_GAUSSIAN:
        two_R2 = 2.0 * R * R
        return lambda r: math.exp(-r * r / two_R2)
    if case is SourceCase.C_SPHERE:
        _, edge = radial_support(spec, 0.0)
        return lambda r: 1.0 if r <= edge else 0.0
    if case is SourceCase.D_EXPONENTIAL:
        return lambda r: math.exp(-r / R)
    if case is SourceCase.B_SHELL:
        raise DistributionalDensityError(
            "case B density is a delta shell; use its radial measure")
    raise ValueError("case E density is not a product of r and t profiles")


def shock_front(spec: SourceSpec) -> Callable[[float], float]:
    """Case E's front radius at time t: the ball r <= r_dot t emits."""
    r_dot = spec.r_dot
    return lambda t: r_dot * t


def radial_support(spec: SourceSpec, t: float) -> Optional[Tuple[float, float]]:
    """Radial interval where the density exceeds DENSITY_CUTOFF of its peak at
    time t, or None if the density vanishes at that time."""
    case = spec.case
    if case is SourceCase.E_EXPANDING_SHOCK:
        front = shock_front(spec)(t)
        return (0.0, front) if front > 0.0 else None
    ts = time_support(spec)
    if not (ts[0] <= t <= ts[1]):
        return None
    if case is SourceCase.A_GAUSSIAN:
        return (0.0, _GAUSS_CUT * spec.R)
    if case is SourceCase.B_SHELL:
        return (spec.R, spec.R)
    if case is SourceCase.C_SPHERE:
        return (0.0, spec.R)
    # case D
    return (0.0, _EXP_CUT * spec.R)


def time_support(spec: SourceSpec) -> Tuple[float, float]:
    """Time interval outside which the density is below DENSITY_CUTOFF of peak
    (exactly zero for cases D and E's lower edge)."""
    case = spec.case
    if case is SourceCase.D_EXPONENTIAL:
        w = math.sqrt(3.0) * spec.tau
        return (-w, w)
    if case is SourceCase.E_EXPANDING_SHOCK:
        # exp(-t^2/tau^2) < cutoff for t > tau*sqrt(ln(1/cutoff))
        return (0.0, spec.tau * math.sqrt(_EXP_CUT))
    w = _GAUSS_CUT * spec.tau
    return (-w, w)
