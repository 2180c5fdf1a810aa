"""Source profiles, their supports, case E's front, and spec validation."""

import math

import numpy as np
import pytest

from bubblehbt.kinematics import C_UM_PER_PS
from bubblehbt.sources import (Emission, SourceCase, SourceSpec,
                               radial_profile, shock_front, time_profile)


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
    # inside the front at t = tau the emission is exp(-t^2/tau^2) = exp(-1)
    spec = spec_e()
    t = spec.tau
    rho_t, _ = time_profile(spec)
    assert 0.5 * spec.r_dot * t < shock_front(spec)(t)
    assert rho_t(t) == pytest.approx(math.exp(-1.0), rel=1e-15)


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
    rho_t, _ = time_profile(spec_e())
    for t in rng.uniform(-10, 10, 200):
        assert rho_t(t) >= 0.0


def test_sphere_support():
    spec = SourceSpec(case=SourceCase.C_SPHERE, tau=1.0, R=2.0)
    rho_s, edge = radial_profile(spec)
    assert edge == 2.0
    assert rho_s(edge) == 1.0
    assert rho_s(math.nextafter(edge, math.inf)) == 0.0


def test_shock_support_empty_before_onset():
    spec = spec_e()
    rho_t, (t0, _) = time_profile(spec)
    assert t0 == 0.0
    assert shock_front(spec)(0.0) == 0.0
    assert rho_t(-1.0) == 0.0
    assert rho_t(-1e-9) == 0.0
    assert rho_t(0.0) == 1.0


def test_shock_support_grows_linearly():
    front = shock_front(spec_e())
    assert front(1.0) == 0.06
    assert front(2.0) == pytest.approx(2.0 * front(1.0), rel=1e-15)


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
    rho_t, (lo, hi) = time_profile(spec_e(tau=tau))
    assert lo == 0.0
    assert rho_t(hi) == pytest.approx(1e-12, rel=1e-6)


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
