"""Source densities, supports, and spec validation."""

import math

import numpy as np
import pytest

from bubblehbt.kinematics import C_UM_PER_PS
from bubblehbt.sources import (DistributionalDensityError, Emission,
                               SourceCase, SourceSpec, density,
                               radial_support, time_support)


def spec_a(R=1.0, tau=1.0):
    return SourceSpec(case=SourceCase.A_GAUSSIAN, tau=tau, R=R)


def spec_e(r_dot=0.06, tau=1.0):
    return SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=tau, r_dot=r_dot)


def test_gaussian_peak():
    assert density(spec_a(), 0.0, 0.0) == 1.0


def test_sphere_outside_is_zero():
    spec = SourceSpec(case=SourceCase.C_SPHERE, tau=1.0, R=1.0)
    assert density(spec, 1.5, 0.0) == 0.0
    assert density(spec, 0.5, 0.0) == 1.0


def test_shock_interior_value():
    spec = spec_e()
    t = spec.tau
    assert density(spec, 0.5 * spec.r_dot * t, t) == pytest.approx(
        math.exp(-1.0), rel=1e-15)


def test_exponential_outside_time_box():
    spec = SourceSpec(case=SourceCase.D_EXPONENTIAL, tau=1.0, R=1.0)
    assert density(spec, 0.3, 2.0) == 0.0
    assert density(spec, 0.3, 1.0) == pytest.approx(
        math.exp(-0.3))


def test_shell_density_is_distributional():
    spec = SourceSpec(case=SourceCase.B_SHELL, tau=1.0, R=1.0)
    with pytest.raises(DistributionalDensityError):
        density(spec, 1.0, 0.0)


def test_density_nonnegative_everywhere():
    rng = np.random.default_rng(3)
    specs = [spec_a(), SourceSpec(case=SourceCase.C_SPHERE, tau=1.0, R=1.0),
             SourceSpec(case=SourceCase.D_EXPONENTIAL, tau=1.0, R=1.0),
             spec_e()]
    for spec in specs:
        for _ in range(200):
            r, t = rng.uniform(0, 10), rng.uniform(-10, 10)
            assert density(spec, r, t) >= 0.0


def test_sphere_support():
    spec = SourceSpec(case=SourceCase.C_SPHERE, tau=1.0, R=2.0)
    for t in [-5.0, 0.0, 5.9]:
        assert radial_support(spec, t) == (0.0, 2.0)


def test_shock_support_empty_before_onset():
    assert radial_support(spec_e(), -1.0) is None
    assert radial_support(spec_e(), 0.0) is None


def test_shock_support_grows_linearly():
    spec = spec_e()
    lo1, hi1 = radial_support(spec, 1.0)
    lo2, hi2 = radial_support(spec, 2.0)
    assert lo1 == lo2 == 0.0
    assert hi2 == pytest.approx(2.0 * hi1, rel=1e-15)


def test_gaussian_support_cutoff():
    spec = spec_a(R=1.0)
    lo, hi = radial_support(spec, 0.0)
    assert lo == 0.0
    assert hi == pytest.approx(7.43, abs=0.01)
    # density at the cutoff radius is at the 1e-12 level
    assert density(spec, hi, 0.0) == pytest.approx(
        1e-12, rel=1e-6)


def test_time_supports():
    tau = 1.3
    # Gaussian lapse: below 1e-12 of peak beyond ~7.43 tau
    lo, hi = time_support(spec_a(tau=tau))
    assert hi == pytest.approx(7.4338 * tau, abs=1e-3)
    assert lo == -hi
    d = SourceSpec(case=SourceCase.D_EXPONENTIAL, tau=tau, R=1.0)
    assert time_support(d) == (-math.sqrt(3) * tau, math.sqrt(3) * tau)
    e = spec_e(tau=tau)
    assert time_support(e)[0] == 0.0
    assert density(e, 0.0, -1e-9) == 0.0


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
    with pytest.raises(ValueError, match="r must be non-negative"):
        density(spec_a(), -0.1, 0.0)
    with pytest.raises(ValueError, match="r must be non-negative"):
        density(spec_a(), math.nan, 0.0)


def test_emission_default_is_chaotic():
    assert spec_a().emission is Emission.CHAOTIC
