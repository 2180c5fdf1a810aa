"""Closed-form two-photon correlation functions C(q, d_omega).

For the factorized cases A-D,

    C = 1 + (1/2) T(d_omega) Phi(q),

with T the squared normalized temporal transform and Phi the squared
normalized spatial transform of the source.  The 1/2 is the photon-spin
chaoticity factor; it is a fixed constant, not a fit parameter.  Coherent
emission gives C = 1 identically.

Case E (expanding shock) does not factorize.  Its excess is

    C - 1 = 9 |I|^2 / (8 mu^6),
    I = -i sqrt(pi) [(1 + mu z+) w(z+) - (1 - mu z-) w(z-)] - 2 mu,

with mu = r_dot tau q and z± = (d_omega ± r_dot q) tau / 2.  This already
contains the 1/2 factor: writing the space-time Fourier transform of the
case E source as F(q, d_omega), one finds F = tau I / (4 q^3) and
F(0,0) = r_dot^3 tau^4 / 6, so 9|I|^2/(8 mu^6) = (1/2)|F/F(0,0)|^2 exactly.
Below mu = 0.01 the 0/0 form is replaced by a series in mu^2 whose complex
coefficients are one-sided Gaussian moments.

The closed forms take arrays: `time_factor` a d_omega array, `form_factor`
and `phi_of_X` a q or X array.  `correlation` and `case_e_excess` take one
q and a d_omega array, a row at fixed q, because case E's choice between
the direct form and the series depends on q alone.
"""

import math
from dataclasses import dataclass
from typing import List, Union

import numpy as np

from .sources import Emission, SourceCase, SourceSpec
from .special_functions import faddeeva, sinc

__all__ = [
    "CHAOTICITY",
    "CorrelationValue",
    "correlation",
    "time_factor",
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
_SQRTPI = math.sqrt(math.pi)


@dataclass(frozen=True)
class CorrelationValue:
    """C and C - 1, each a scalar or an array over d_omega."""

    c: Values
    excess: Values


def _shape_constant(case: SourceCase) -> float:
    if case not in _SHAPE_CONSTANT:
        raise ValueError(f"case {case.value} has no shape constant")
    return _SHAPE_CONSTANT[case]


def time_factor(case: SourceCase, tau: float, d_omega: Values) -> Values:
    """T(d_omega): squared normalized temporal transform, T(0) = 1."""
    if case is SourceCase.D_EXPONENTIAL:
        return np.square(sinc(_SQRT3 * tau * d_omega))
    if case in FACTORIZED_CASES:
        x = d_omega * tau
        return np.exp(-x * x)
    raise ValueError("case E has no factorized time factor")


def _sphere_amplitude(x: np.ndarray) -> np.ndarray:
    """3 (sin x - x cos x) / x^3, the normalized sphere transform; its
    Taylor series below |x| = 1e-2, where the direct form cancels."""
    x2 = x * x
    series = np.asarray(1.0 + x2 * (-0.1 + x2 * (1.0 / 280.0 - x2 / 15120.0)))
    return np.divide(3.0 * (np.sin(x) - x * np.cos(x)), x2 * x, out=series,
                     where=np.abs(x) >= 1e-2)


def form_factor(case: SourceCase, R: float, q: Values) -> Values:
    """Phi(q): squared normalized spatial transform, Phi(0) = 1."""
    if (~(np.asarray(q) >= 0.0)).any():
        raise ValueError("q must be non-negative")
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


def correlation(spec: SourceSpec, q: float, d_omega: Values
                ) -> CorrelationValue:
    """C(q, d_omega) at one q, for a scalar d_omega or an array of them;
    coherent emission gives C = 1 exactly."""
    if not q >= 0.0:
        raise ValueError("q must be non-negative")
    if spec.emission is Emission.COHERENT:
        excess = np.zeros(np.shape(d_omega))[()]
    elif spec.case in FACTORIZED_CASES:
        excess = (CHAOTICITY * time_factor(spec.case, spec.tau, d_omega)
                  * form_factor(spec.case, spec.R, q))
    else:
        excess = case_e_excess(spec, q, d_omega)
    return CorrelationValue(c=1.0 + excess, excess=excess)


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


def _one_sided_gaussian_moments(tau: float, d_omega: Values,
                                nmax: int) -> List[Values]:
    """M_n = integral_0^inf t^n exp(-t^2/tau^2 + i d_omega t) dt, n = 0..nmax.

    M_0 = (sqrt(pi) tau / 2) w(d_omega tau / 2); higher moments by the
    integration-by-parts recurrence M_n = (tau^2/2)(i d_omega M_{n-1}
    + (n-1) M_{n-2}), with the n = 1 boundary term contributing tau^2/2.
    """
    m: List[Values] = [0j] * (nmax + 1)
    m[0] = 0.5 * _SQRTPI * tau * faddeeva(0.5 * d_omega * tau)
    if nmax >= 1:
        m[1] = 0.5 * tau * tau * (1j * d_omega * m[0] + 1.0)
    for n in range(2, nmax + 1):
        m[n] = 0.5 * tau * tau * (1j * d_omega * m[n - 1] + (n - 1) * m[n - 2])
    return m


def case_e_excess(spec: SourceSpec, q: float, d_omega: Values) -> Values:
    """C - 1 for case E at one q, with the small-mu series branch."""
    if spec.case is not SourceCase.E_EXPANDING_SHOCK:
        raise ValueError("case_e_excess is defined for case E only")
    tau, r_dot = spec.tau, spec.r_dot
    mu = r_dot * tau * q
    mu2 = mu * mu
    if mu > MU_SERIES_MAX:
        z_plus = (d_omega + r_dot * q) * tau / 2.0
        z_minus = (d_omega - r_dot * q) * tau / 2.0
        i_val = (-1j * _SQRTPI * ((1.0 + mu * z_plus) * faddeeva(z_plus)
                                  - (1.0 - mu * z_minus) * faddeeva(z_minus))
                 - 2.0 * mu)
        return 9.0 * np.square(np.abs(i_val)) / (8.0 * mu2 * mu2 * mu2)
    # F/F(0,0) expanded in mu^2 through mu^4; truncation error O(mu^6).
    m = _one_sided_gaussian_moments(tau, d_omega, 7)
    t4 = tau ** 4
    s = (2.0 * m[3] / t4
         - (mu2 / 5.0) * m[5] / (t4 * tau * tau)
         + (mu2 * mu2 / 140.0) * m[7] / (t4 * t4))
    return CHAOTICITY * np.square(np.abs(s))
