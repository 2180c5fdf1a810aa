"""Source profiles in unit-scale variables, their supports, case E's
integrand, and spec validation."""

import math

import mpmath
import numpy as np
import pytest

from bubblehbt.correlators import excess
from bubblehbt.kinematics import C_UM_PER_PS
from bubblehbt.sources import (Emission, SourceCase, SourceSpec,
                               radial_profile, shock_amplitude, time_profile)


A, B, C, D, E = SourceCase


def test_gaussian_peak():
    # a case spelled as its string gets its own profile too
    for case in (A, "A"):
        rho_t, _ = time_profile(case)
        rho_s, _ = radial_profile(case)
        assert rho_t(0.0) == 1.0
        assert rho_s(0.0) == 1.0


def test_sphere_outside_is_zero():
    # radial_profile("C") raised AttributeError
    for case in (C, "C"):
        rho_s, _ = radial_profile(case)
        assert rho_s(1.5) == 0.0
        assert rho_s(0.5) == 1.0


def test_shock_interior_value():
    # at s = 1 the lapse is exp(-s^2) = exp(-1), and at mu = 0 the ball
    # u <= s contributes its volume integral s^3 / 3
    f, _ = shock_amplitude(0.0)
    assert f(1.0) == pytest.approx(math.exp(-1.0) / 3.0, rel=1e-15)


def test_exponential_outside_time_box():
    # time_profile("D") returned A's Gaussian lapse, which is not 0 at 2
    for case in (D, "D"):
        rho_t, _ = time_profile(case)
        rho_s, _ = radial_profile(case)
        assert rho_t(2.0) == 0.0
        assert rho_t(1.0) * rho_s(0.3) == pytest.approx(math.exp(-0.3))


def test_shell_density_is_distributional():
    # B's delta shell and E's growing ball have no pointwise radial profile
    for case in (B, E, "B", "E"):
        with pytest.raises(ValueError,
                           match=f"^case {SourceCase(case).value} has no "
                                 "pointwise radial profile$"):
            radial_profile(case)
    with pytest.raises(ValueError, match="'Z' is not a valid SourceCase"):
        radial_profile("Z")


def test_density_nonnegative_everywhere():
    rng = np.random.default_rng(3)
    for case in (A, C, D):
        rho_t, _ = time_profile(case)
        rho_s, _ = radial_profile(case)
        for _ in range(200):
            u, s = rng.uniform(0, 10), rng.uniform(-10, 10)
            assert rho_t(s) >= 0.0
            assert rho_s(u) >= 0.0
    # case E's integrand at mu = 0, lapse times the ball's volume integral
    f, _ = shock_amplitude(0.0)
    for s in rng.uniform(-10, 10, 200):
        assert f(s) >= 0.0


def test_sphere_support():
    rho_s, edge = radial_profile(C)
    assert edge == 1.0
    assert rho_s(edge) == 1.0
    assert rho_s(math.nextafter(edge, math.inf)) == 0.0


def test_shock_support_empty_before_onset():
    for mu in (0.0, 0.7):
        f, (s0, _) = shock_amplitude(mu)
        assert s0 == 0.0
        # at the onset the ball has radius 0
        assert f(0.0) == 0.0
        assert f(-1.0) == 0.0
        assert f(-1e-9) == 0.0
        assert f(1e-3) > 0.0


def test_shock_support_grows_linearly():
    # at mu = 0, f(s) = exp(-s^2) s^3 / 3: the front is u = s
    f, _ = shock_amplitude(0.0)
    for s in (0.1, 1.0, 2.0, 4.5):
        assert f(s) == pytest.approx(math.exp(-s * s) * s ** 3 / 3.0,
                                     rel=1e-15)
    front = [(3.0 * f(s) * math.exp(s * s)) ** (1.0 / 3.0) for s in (1.0, 2.0)]
    assert front[0] == pytest.approx(1.0, rel=1e-14)
    assert front[1] == pytest.approx(2.0, rel=1e-14)


def _shock_amplitude_mp(mu, s):
    """exp(-s^2) integral_0^s u^2 sinc(mu u) du at 30 digits."""
    with mpmath.workdps(30):
        mu, s = mpmath.mpf(mu), mpmath.mpf(s)
        if mu == 0:
            inner = s ** 3 / 3
        else:
            inner = mpmath.quad(lambda u: u * mpmath.sin(mu * u) / mu, [0, s])
        return float(mpmath.exp(-s * s) * inner)


@pytest.mark.parametrize("mu", [0.0, 1e-7, 1e-4, 0.37, 1.0, 4.0, 40.0])
def test_shock_amplitude_against_mpmath(mu):
    # x = mu s below the series switch at 1e-3 (every s for mu <= 1e-4, and
    # x = 9.9e-4), and from 0.1 up; between them sin x - x cos x cancels to
    # about eps / x^2
    _, (_, s1) = shock_amplitude(mu)
    points = [0.5, 1.0, 3.0, 5.0]
    if mu > 0.0:
        points += [x / mu for x in (1e-7, 9.9e-4, 0.1) if x / mu <= s1]
    f, _ = shock_amplitude(mu)
    for s in points:
        assert f(s) == pytest.approx(_shock_amplitude_mp(mu, s), rel=1e-13,
                                     abs=0.0), s
    # the bits of the series below x = 1e-3 and of the direct form from it
    # up, written out, also at the switch, where the direct form cancels
    if mu > 0.0:
        points += [x / mu for x in (math.nextafter(1e-3, 0.0), 1e-3, 1.01e-3)
                   if x / mu <= s1]
    for s in points:
        x = mu * s
        if x < 1e-3:
            inner = s ** 3 * (1.0 / 3.0 + x * x * (-1.0 / 30.0
                                                   + x * x / 840.0))
        else:
            inner = (math.sin(x) - x * math.cos(x)) / (mu * mu * mu)
        assert f(s) == math.exp(-s * s) * inner, s


def test_shock_amplitude_is_case_e_only():
    # case E's source is shock_amplitude's alone, at mu = q r_dot tau >= 0
    with pytest.raises(ValueError, match="mu must be non-negative"):
        shock_amplitude(-0.5)
    # time_profile("E") and ("Z") returned the Gaussian lapse
    for case in (E, "E"):
        with pytest.raises(ValueError,
                           match="^case E has no factorized time profile$"):
            time_profile(case)
    with pytest.raises(ValueError, match="'Z' is not a valid SourceCase"):
        time_profile("Z")


def test_gaussian_support_cutoff():
    rho_s, edge = radial_profile(A)
    assert edge == pytest.approx(7.43, abs=0.01)
    # the profile at the cutoff radius is at the 1e-12 level
    assert rho_s(edge) == pytest.approx(1e-12, rel=1e-6)
    rho_s, edge = radial_profile(D)
    assert edge == pytest.approx(27.631, abs=1e-3)
    assert rho_s(edge) == pytest.approx(1e-12, rel=1e-6)


def test_time_profile_intervals():
    # Gaussian lapse: below 1e-12 of peak beyond s ~ 7.43
    rho_t, (lo, hi) = time_profile(A)
    assert hi == pytest.approx(7.4338, abs=1e-3)
    assert lo == -hi
    assert rho_t(hi) == pytest.approx(1e-12, rel=1e-6)
    for case in (D, "D"):
        rho_t, box = time_profile(case)
        assert box == (-math.sqrt(3), math.sqrt(3))
        assert rho_t(box[0]) == rho_t(box[1]) == 1.0
        assert rho_t(math.nextafter(box[1], math.inf)) == 0.0
    f, (lo, hi) = shock_amplitude(0.0)
    assert lo == 0.0
    assert hi == math.sqrt(-math.log(1e-12))
    # the lapse at the end of the support is at the 1e-12 level
    assert f(hi) / (hi ** 3 / 3.0) == pytest.approx(1e-12, rel=1e-6)


def test_spec_validation():
    with pytest.raises(ValueError):
        SourceSpec(case=SourceCase.A_GAUSSIAN, tau=1.0, R=-1.0)
    with pytest.raises(ValueError):
        SourceSpec(case=SourceCase.A_GAUSSIAN, tau=0.0, R=1.0)
    with pytest.raises(ValueError):
        SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=1.0, r_dot=0.0)
    # relativistic shock speeds are rejected
    with pytest.raises(ValueError):
        SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=1.0,
                   r_dot=0.5 * C_UM_PER_PS)
    # NaN and inf pass a bare "> 0" check, and give NaN correlations
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            SourceSpec(case=SourceCase.A_GAUSSIAN, tau=bad, R=1.0)
        with pytest.raises(ValueError, match="case C requires a finite R"):
            SourceSpec(case=SourceCase.C_SPHERE, tau=1.0, R=bad)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=bad, r_dot=0.06)


def test_spec_takes_case_and_emission_through_their_enums():
    # a value spelled as its string is the member, so the `is` tests on
    # case and emission downstream see it
    spec = SourceSpec(case="A", tau=1.0, R=1.0, emission="coherent")
    assert spec.case is SourceCase.A_GAUSSIAN
    assert spec.emission is Emission.COHERENT
    assert excess(spec, 0.5, 0.5) == 0.0
    assert SourceSpec(case="E", tau=1.0, r_dot=0.06).case is (
        SourceCase.E_EXPANDING_SHOCK)
    # and any other value is no case or emission at all
    with pytest.raises(ValueError):
        SourceSpec(case="Z", tau=1.0, R=1.0)
    with pytest.raises(ValueError):
        SourceSpec(case=SourceCase.A_GAUSSIAN, tau=1.0, R=1.0,
                   emission="laser")


def test_emission_default_is_chaotic():
    assert SourceSpec(case=A, tau=1.0, R=1.0).emission is Emission.CHAOTIC
