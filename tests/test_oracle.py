"""Quadrature oracle: analytic Fourier pairs, self-consistency, curvature."""

import math

import numpy as np
import pytest

from bubblehbt.correlators import form_factor
from bubblehbt.kinematics import C_UM_PER_PS
from bubblehbt import oracle
from bubblehbt.oracle import (OracleConvergenceError, numeric_correlation,
                              numeric_curvature)
from bubblehbt.sources import Emission, SourceCase, SourceSpec
from scipy import integrate


def test_origin_value():
    spec = SourceSpec(case=SourceCase.A_GAUSSIAN, tau=1.0, R=1.0)
    assert numeric_correlation(spec, 0.0, 0.0).c == pytest.approx(1.5,
                                                                  rel=1e-12)


def test_gaussian_fourier_pair():
    # F_s = exp(-q^2 R^2 / 2), F_t = exp(-tau^2 dw^2 / 2); squared: exp(-2)
    spec = SourceSpec(case=SourceCase.A_GAUSSIAN, tau=1.0, R=1.0)
    expected = 1.0 + 0.5 * math.exp(-2.0)
    assert numeric_correlation(spec, 1.0, 1.0).c == pytest.approx(expected,
                                                                  abs=1e-9)


def test_exponential_transform():
    # exponential ball: F_s = (1 + q^2 R^2)^-2, squared gives (1+q^2R^2)^-4
    spec = SourceSpec(case=SourceCase.D_EXPONENTIAL, tau=1.0, R=1.0)
    assert numeric_correlation(spec, 1.0, 0.0).c == pytest.approx(1.03125,
                                                                  abs=1e-9)


def test_rejects_coherent_and_negative_q():
    spec = SourceSpec(case=SourceCase.A_GAUSSIAN, tau=1.0, R=1.0,
                      emission=Emission.COHERENT)
    with pytest.raises(ValueError):
        numeric_correlation(spec, 1.0, 0.0)
    chaotic = SourceSpec(case=SourceCase.A_GAUSSIAN, tau=1.0, R=1.0)
    with pytest.raises(ValueError):
        numeric_correlation(chaotic, -1.0, 0.0)


def test_tolerance_self_consistency(oracle_tolerance):
    # halving rel_tol never moves a converged result by more than the
    # previous tolerance
    rng = np.random.default_rng(5)
    cases = [SourceCase.A_GAUSSIAN, SourceCase.B_SHELL, SourceCase.C_SPHERE,
             SourceCase.D_EXPONENTIAL]
    for _ in range(20):
        case = cases[rng.integers(len(cases))]
        spec = SourceSpec(case=case, tau=1.0, R=1.0)
        q, dw = rng.uniform(0, 4), rng.uniform(0, 4)
        oracle_tolerance("REL_TOL", 1e-8)
        a = numeric_correlation(spec, q, dw).c
        oracle_tolerance("REL_TOL", 5e-9)
        b = numeric_correlation(spec, q, dw).c
        assert abs(a - b) <= 1e-8 * abs(a) + 1e-11


def test_factorized_closed_forms_over_range():
    # the excess depends on q R and d_omega tau alone, and the oracle
    # integrates in them, so ABS_TOL holds it to criterion 1's 1e-6 at any
    # scale as at tau = R = 1
    from bubblehbt.correlators import correlation
    for tau, R in [(1.0, 1.0), (1e-3, 1e3), (1e3, 1e-3)]:
        for case in (SourceCase.A_GAUSSIAN, SourceCase.B_SHELL,
                     SourceCase.C_SPHERE, SourceCase.D_EXPONENTIAL):
            spec = SourceSpec(case=case, tau=tau, R=R)
            for x in np.linspace(0.0, 6.0, 4):
                for y in np.linspace(0.0, 6.0, 4):
                    q, dw = x / R, y / tau
                    assert numeric_correlation(spec, q, dw).c == (
                        pytest.approx(correlation(spec, q, dw).c, rel=1e-6))


def test_slow_shock_reduces_to_one_sided_gaussian():
    # Rdot -> 0: the q-dependence of the spatial factor disappears and the
    # excess reduces to the correlation of the reduced time profile of the
    # growing ball, t^3 exp(-t^2/tau^2) for t > 0, computed here by an
    # independent 1-D quadrature
    tau = 1.0
    spec = SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=tau,
                      r_dot=1e-7 * C_UM_PER_PS)

    def profile(t):
        return t ** 3 * math.exp(-t * t / tau ** 2)

    for dw in [0.0, 0.5, 1.5, 3.0]:
        re, _ = integrate.quad(lambda t: profile(t) * math.cos(dw * t),
                               0.0, 10.0 * tau, epsabs=1e-13, epsrel=1e-12,
                               limit=500)
        im, _ = integrate.quad(lambda t: profile(t) * math.sin(dw * t),
                               0.0, 10.0 * tau, epsabs=1e-13, epsrel=1e-12,
                               limit=500)
        norm, _ = integrate.quad(profile, 0.0, 10.0 * tau,
                                 epsabs=1e-13, epsrel=1e-12, limit=500)
        expected = 0.5 * (re * re + im * im) / (norm * norm)
        got = numeric_correlation(spec, 0.5, dw).excess
        assert got == pytest.approx(expected, rel=1e-6)


def test_high_frequency_matches_closed_forms():
    # past the acceptance grids (q, d_omega <= 6): the oscillatory rule must
    # converge everywhere and keep criterion 1's tolerance on the excess
    from bubblehbt.correlators import correlation
    for case in (SourceCase.A_GAUSSIAN, SourceCase.B_SHELL,
                 SourceCase.C_SPHERE, SourceCase.D_EXPONENTIAL):
        spec = SourceSpec(case=case, tau=1.0, R=1.0)
        compared = 0
        for q in np.linspace(0.0, 25.0, 11):
            for dw in np.linspace(-7.0, 60.0, 35):
                num = numeric_correlation(spec, q, dw).excess
                if num > 1e-12:
                    compared += 1
                    assert num == pytest.approx(
                        correlation(spec, q, dw).excess, rel=1e-6)
        assert compared > 0


@pytest.mark.parametrize("tau", [1.0, 1e-3, 1e-6])
def test_case_e_oracle_keeps_checks_bound_at_any_tau(tau):
    # the excess depends on r_dot tau q and d_omega tau alone, so this point
    # has one excess at every tau; `check` holds the oracle to 1e-8 on it
    from bubblehbt.correlators import correlation
    spec = SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=tau,
                      r_dot=2e-4 * C_UM_PER_PS)
    closed = correlation(spec, 1.3 / tau, 0.7 / tau).excess
    num = numeric_correlation(spec, 1.3 / tau, 0.7 / tau).excess
    assert abs(closed - num) / num < 1e-8


def clear_caches():
    for cached in (oracle._origin_transform, oracle._time_amplitude,
                   oracle._space_amplitude):
        cached.cache_clear()


def count_quadratures(monkeypatch):
    """Wrap the oracle's quadrature; the returned list grows by one entry
    per call."""
    calls = []
    real_quad = oracle.integrate.quad

    def quad(*args, **kwargs):
        calls.append(args)
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(oracle.integrate, "quad", quad)
    return calls


ORACLE_SPECS = [SourceSpec(case=case, tau=1.0, R=1.0)
                for case in (SourceCase.A_GAUSSIAN, SourceCase.B_SHELL,
                             SourceCase.C_SPHERE, SourceCase.D_EXPONENTIAL)]
ORACLE_SPECS.append(SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=1.0,
                               r_dot=2e-4 * C_UM_PER_PS))
CASE_IDS = [spec.case.value for spec in ORACLE_SPECS]


def test_origin_cache_is_exact():
    # a warm origin cache gives the same bits as a cold one
    for spec in ORACLE_SPECS:
        clear_caches()
        cold = numeric_correlation(spec, 1.3, 0.7)
        warm = numeric_correlation(spec, 1.3, 0.7)
        assert (warm.c, warm.excess) == (cold.c, cold.excess)


def test_sources_at_any_scale_share_cache_entries(monkeypatch):
    # (2q, d_omega/2) at (tau, R) = (2, 0.5) is (q, d_omega) at unit scale,
    # in the same bits: the caches key on the case and q R or d_omega tau
    unit = {}
    clear_caches()
    for spec in ORACLE_SPECS[:4]:
        v = numeric_correlation(spec, 1.3, 0.7)
        unit[spec.case] = (v.c, v.excess)
    calls = count_quadratures(monkeypatch)
    for case in unit:
        v = numeric_correlation(SourceSpec(case=case, tau=2.0, R=0.5),
                                2.6, 0.35)
        assert (v.c, v.excess) == unit[case]
    assert not calls


def test_case_e_sources_share_one_origin_transform(monkeypatch):
    # F(0,0) is one number per case: a second source at another tau costs
    # its point's cos and sin transforms, and no quadrature of F(0,0)
    clear_caches()
    numeric_correlation(ORACLE_SPECS[4], 1.3, 0.7)
    calls = count_quadratures(monkeypatch)
    spec = SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=1e-3,
                      r_dot=ORACLE_SPECS[4].r_dot)
    numeric_correlation(spec, 1.3e3, 0.7e3)
    assert len(calls) == 2


FACTOR_GRID_Q = (0.0, 0.4, 2.5, 6.0)
# 0.0 and -0.0 share a cache entry; both take the non-oscillatory rule
FACTOR_GRID_DW = (0.0, -0.0, -1.3, 0.7, 6.0)


@pytest.mark.parametrize("case", [SourceCase.A_GAUSSIAN, SourceCase.C_SPHERE,
                                  SourceCase.D_EXPONENTIAL])
def test_factor_cache_is_exact(case):
    # each point computed from empty caches has the same bits as the point
    # read from caches the whole grid has filled
    spec = SourceSpec(case=case, tau=1.0, R=1.0)
    cold = {}
    for q in FACTOR_GRID_Q:
        for dw in FACTOR_GRID_DW:
            clear_caches()
            v = numeric_correlation(spec, q, dw)
            cold[q, dw] = (v.c, v.excess)
    for q, dw in cold:
        v = numeric_correlation(spec, q, dw)
        assert (v.c, v.excess) == cold[q, dw]
    assert oracle._time_amplitude.cache_info().currsize == 4
    assert oracle._space_amplitude.cache_info().currsize == 4


def test_grid_check_makes_one_quadrature_per_factor(capsys, monkeypatch):
    # a 5 x 4 grid of case A needs 5 space and 4 time factors, and at most
    # two more for F(0, 0), not two quadratures per point
    from bubblehbt.cli import main
    clear_caches()
    calls = count_quadratures(monkeypatch)
    assert main(["check", "--case", "A", "--q-grid", "0:6:5",
                 "--dw-grid", "0:6:4"]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= 5 + 4 + 2


def test_nonconvergence_reported(monkeypatch, oracle_tolerance):
    # a failure is not cached: the second call runs the quadrature again
    spec = SourceSpec(case=SourceCase.D_EXPONENTIAL, tau=1.0, R=1.0)
    oracle_tolerance("REL_TOL", 1e-13)
    oracle_tolerance("ABS_TOL", 1e-16)
    oracle_tolerance("MAX_SUBDIVISIONS", 10)
    calls = count_quadratures(monkeypatch)
    with pytest.raises(OracleConvergenceError):
        numeric_correlation(spec, 5.7, 3.3)
    first = len(calls)
    with pytest.raises(OracleConvergenceError):
        numeric_correlation(spec, 5.7, 3.3)
    assert len(calls) > first


def test_error_estimate_past_tolerance_reported(monkeypatch):
    # QUADPACK reports success, but its error estimate is 100 times the
    # tolerance: the result is not trusted
    real_quad = oracle.integrate.quad

    def quad(*args, **kwargs):
        val, _, *rest = real_quad(*args, **kwargs)
        return (val, 1.0, *rest)

    clear_caches()
    monkeypatch.setattr(oracle.integrate, "quad", quad)
    spec = SourceSpec(case=SourceCase.A_GAUSSIAN, tau=1.0, R=1.0)
    with pytest.raises(OracleConvergenceError,
                       match="^estimated error 1 exceeds tolerance for value "):
        numeric_correlation(spec, 1.0, 0.5)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=CASE_IDS)
@pytest.mark.parametrize("q, dw", [(math.inf, 0.5), (1.0, math.nan),
                                   (1.0, math.inf), (1.0, -math.inf)])
def test_rejects_non_finite_input(spec, q, dw):
    with pytest.raises(ValueError, match="q and d_omega must be finite"):
        numeric_correlation(spec, q, dw)
    with pytest.raises(ValueError, match="q and d_omega must be finite"):
        numeric_correlation(spec, np.float64(q), np.float64(dw))


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=CASE_IDS)
def test_integrands_compute_in_python_floats(spec, monkeypatch):
    # numpy-scalar arguments are converted once, so every integrand
    # QUADPACK samples returns a Python float
    clear_caches()
    calls = count_quadratures(monkeypatch)
    numeric_correlation(spec, np.float64(1.3), np.float64(0.7))
    assert calls
    for f, a, b in (args[:3] for args in calls):
        assert type(f(0.5 * (a + b))) is float


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=CASE_IDS)
def test_numpy_and_python_floats_give_same_bits(spec):
    for q, dw in [(0.0, 0.0), (0.0, -1.3), (2.5, 0.0), (1.3, 0.7),
                  (0.4, -2.0)]:
        values = []
        for arg in (np.float64, float):
            clear_caches()
            v = numeric_correlation(spec, arg(q), arg(dw))
            assert type(v.c) is float and type(v.excess) is float
            assert v.c == 1.0 + v.excess
            values.append((v.c, v.excess))
        assert values[0] == values[1]


# --- curvature --------------------------------------------------------------

def test_curvature_gaussian():
    kappa, err = numeric_curvature(
        lambda q: form_factor(SourceCase.A_GAUSSIAN, q), h=1e-2)
    assert kappa == pytest.approx(2.0, abs=1e-6)
    assert err >= 0.0


def test_curvature_exponential():
    kappa, _ = numeric_curvature(
        lambda q: form_factor(SourceCase.D_EXPONENTIAL, q), h=1e-2)
    assert kappa == pytest.approx(8.0, abs=1e-5)


def test_curvature_constant():
    kappa, err = numeric_curvature(lambda q: 1.0, h=0.1)
    assert kappa == 0.0
    assert err == 0.0


def test_curvature_rejects_bad_step():
    with pytest.raises(ValueError):
        numeric_curvature(lambda q: 1.0, h=0.0)
