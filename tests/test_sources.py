"""Source profiles, their supports, case E's integrand, and spec
validation."""

import math

import mpmath
import numpy as np
import pytest

from bubblehbt.kinematics import C_UM_PER_PS
from bubblehbt.sources import (Emission, SourceCase, SourceSpec,
                               radial_profile, shock_amplitude, time_profile)


def spec_a(R=1.0, tau=1.0):
    return SourceSpec(case=SourceCase.A_GAUSSIAN, tau=tau, R=R)


def spec_e(r_dot=0.06, tau=1.0):
    return SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=tau, r_dot=r_dot)


def test_gaussian_peak():
    rho_t, _ = time_profile(spec_a())
    rho_s, _ = radial_profile(spec_a())
    assert rho_t(0.0) == 1.0
    assert rho_s(0.0) == 1.0


def test_sphere_outside_is_zero():
    spec = SourceSpec(case=SourceCase.C_SPHERE, tau=1.0, R=1.0)
    rho_s, _ = radial_profile(spec)
    assert rho_s(1.5) == 0.0
    assert rho_s(0.5) == 1.0


def test_shock_interior_value():
    # at t = tau the lapse is exp(-t^2/tau^2) = exp(-1), and at q = 0 the
    # ball r <= r_dot t contributes its volume integral (r_dot t)^3 / 3
    spec = spec_e()
    t = spec.tau
    f, _ = shock_amplitude(spec, 0.0)
    assert f(t) == pytest.approx(math.exp(-1.0) * (spec.r_dot * t) ** 3 / 3.0,
                                 rel=1e-15)


def test_exponential_outside_time_box():
    spec = SourceSpec(case=SourceCase.D_EXPONENTIAL, tau=1.0, R=1.0)
    rho_t, _ = time_profile(spec)
    rho_s, _ = radial_profile(spec)
    assert rho_t(2.0) == 0.0
    assert rho_t(1.0) * rho_s(0.3) == pytest.approx(math.exp(-0.3))


def test_shell_density_is_distributional():
    # B's delta shell and E's growing ball have no pointwise radial profile
    for spec in (SourceSpec(case=SourceCase.B_SHELL, tau=1.0, R=1.0),
                 spec_e()):
        with pytest.raises(ValueError, match="no pointwise radial profile"):
            radial_profile(spec)


def test_density_nonnegative_everywhere():
    rng = np.random.default_rng(3)
    specs = [spec_a(), SourceSpec(case=SourceCase.C_SPHERE, tau=1.0, R=1.0),
             SourceSpec(case=SourceCase.D_EXPONENTIAL, tau=1.0, R=1.0)]
    for spec in specs:
        rho_t, _ = time_profile(spec)
        rho_s, _ = radial_profile(spec)
        for _ in range(200):
            r, t = rng.uniform(0, 10), rng.uniform(-10, 10)
            assert rho_t(t) >= 0.0
            assert rho_s(r) >= 0.0
    # case E's integrand at q = 0, lapse times the ball's volume integral
    f, _ = shock_amplitude(spec_e(), 0.0)
    for t in rng.uniform(-10, 10, 200):
        assert f(t) >= 0.0


def test_sphere_support():
    spec = SourceSpec(case=SourceCase.C_SPHERE, tau=1.0, R=2.0)
    rho_s, edge = radial_profile(spec)
    assert edge == 2.0
    assert rho_s(edge) == 1.0
    assert rho_s(math.nextafter(edge, math.inf)) == 0.0


def test_shock_support_empty_before_onset():
    spec = spec_e()
    for q in (0.0, 0.7):
        f, (t0, _) = shock_amplitude(spec, q)
        assert t0 == 0.0
        # at the onset the ball has radius 0
        assert f(0.0) == 0.0
        assert f(-1.0) == 0.0
        assert f(-1e-9) == 0.0
        assert f(1e-3) > 0.0


def test_shock_support_grows_linearly():
    # at q = 0, f(t) = exp(-t^2/tau^2) (r_dot t)^3 / 3 exactly: the front
    # is r_dot t
    spec = spec_e(tau=1.3)
    f, _ = shock_amplitude(spec, 0.0)
    for t in (0.1, 1.0, 2.0, 4.5):
        assert f(t) == math.exp(-t * t / (1.3 * 1.3)) * (0.06 * t) ** 3 / 3.0
    front = [(3.0 * f(t) * math.exp(t * t / (1.3 * 1.3))) ** (1.0 / 3.0)
             for t in (1.0, 2.0)]
    assert front[0] == pytest.approx(0.06, rel=1e-14)
    assert front[1] == pytest.approx(2.0 * front[0], rel=1e-14)


def _shock_amplitude_mp(spec, q, t):
    """exp(-t^2/tau^2) integral_0^{r_dot t} r^2 sinc(q r) dr at 30 digits."""
    with mpmath.workdps(30):
        q, t = mpmath.mpf(q), mpmath.mpf(t)
        a = mpmath.mpf(spec.r_dot) * t
        if q == 0:
            inner = a ** 3 / 3
        else:
            inner = mpmath.quad(lambda r: r * mpmath.sin(q * r) / q, [0, a])
        return float(mpmath.exp(-t * t / mpmath.mpf(spec.tau) ** 2) * inner)


@pytest.mark.parametrize("tau", [1.0, 0.37, 4.0])
def test_shock_amplitude_against_mpmath(tau):
    spec = spec_e(tau=tau)
    for t in (0.01 * tau, 0.5 * tau, tau, 3.0 * tau, 5.0 * tau):
        xs = spec.r_dot * t
        # x = q r_dot t below the series switch at 1e-3, and above 0.1;
        # between them sin x - x cos x cancels to about eps / x^2
        for x in (0.0, 1e-7, 1e-4, 9.9e-4, 0.1, 0.5, 2.0, 7.0, 40.0):
            q = x / xs
            f, _ = shock_amplitude(spec, q)
            assert f(t) == pytest.approx(_shock_amplitude_mp(spec, q, t),
                                         rel=1e-13, abs=0.0), (t, x)


def test_shock_amplitude_is_case_e_only():
    with pytest.raises(ValueError, match="not the expanding shock"):
        shock_amplitude(spec_a(), 0.5)
    with pytest.raises(ValueError, match="q must be non-negative"):
        shock_amplitude(spec_e(), -0.5)
    with pytest.raises(ValueError, match="no factorized time profile"):
        time_profile(spec_e())


def test_gaussian_support_cutoff():
    rho_s, edge = radial_profile(spec_a(R=1.0))
    assert edge == pytest.approx(7.43, abs=0.01)
    # the profile at the cutoff radius is at the 1e-12 level
    assert rho_s(edge) == pytest.approx(1e-12, rel=1e-6)
    d = SourceSpec(case=SourceCase.D_EXPONENTIAL, tau=1.0, R=2.0)
    rho_s, edge = radial_profile(d)
    assert edge == pytest.approx(2.0 * 27.631, abs=1e-3)
    assert rho_s(edge) == pytest.approx(1e-12, rel=1e-6)


def test_time_profile_intervals():
    tau = 1.3
    # Gaussian lapse: below 1e-12 of peak beyond ~7.43 tau
    rho_t, (lo, hi) = time_profile(spec_a(tau=tau))
    assert hi == pytest.approx(7.4338 * tau, abs=1e-3)
    assert lo == -hi
    assert rho_t(hi) == pytest.approx(1e-12, rel=1e-6)
    d = SourceSpec(case=SourceCase.D_EXPONENTIAL, tau=tau, R=1.0)
    rho_t, box = time_profile(d)
    assert box == (-math.sqrt(3) * tau, math.sqrt(3) * tau)
    assert rho_t(box[0]) == rho_t(box[1]) == 1.0
    assert rho_t(math.nextafter(box[1], math.inf)) == 0.0
    spec = spec_e(tau=tau)
    f, (lo, hi) = shock_amplitude(spec, 0.0)
    assert lo == 0.0
    assert hi == tau * math.sqrt(-math.log(1e-12))
    # the lapse at the end of the support is at the 1e-12 level
    assert f(hi) / ((spec.r_dot * hi) ** 3 / 3.0) == pytest.approx(1e-12,
                                                                   rel=1e-6)


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


def test_emission_default_is_chaotic():
    assert spec_a().emission is Emission.CHAOTIC
