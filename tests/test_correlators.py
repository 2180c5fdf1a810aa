"""Closed-form correlators: frozen values, invariants, oracle agreement."""

import math

import numpy as np
import pytest

import bubblehbt.correlators as corr
from bubblehbt.correlators import (CHAOTICITY, FACTORIZED_CASES,
                                   case_e_excess, correlation, form_factor,
                                   kappa_analytic, kappa_to_radius, phi_of_X,
                                   small_q_coefficient, time_factor)
from bubblehbt.kinematics import C_UM_PER_PS
from bubblehbt.oracle import numeric_correlation
from bubblehbt.sources import Emission, SourceCase, SourceSpec

A, B, C, D, E = (SourceCase.A_GAUSSIAN, SourceCase.B_SHELL,
                 SourceCase.C_SPHERE, SourceCase.D_EXPONENTIAL,
                 SourceCase.E_EXPANDING_SHOCK)

REFERENCE_RDOT = 2e-4 * C_UM_PER_PS


def spec(case, R=1.0, tau=1.0, r_dot=REFERENCE_RDOT, emission=Emission.CHAOTIC):
    if case is E:
        return SourceSpec(case=case, tau=tau, r_dot=r_dot, emission=emission)
    return SourceSpec(case=case, tau=tau, R=R, emission=emission)


# --- frozen spot values -----------------------------------------------------

def test_origin_maximum():
    assert correlation(spec(A), 0.0, 0.0).c == 1.5


def test_gaussian_point():
    # T Phi = exp(-1) exp(-1) = exp(-2)
    val = correlation(spec(A), 1.0, 1.0).c
    assert val == pytest.approx(1.0 + 0.5 * math.exp(-2.0), rel=1e-14)
    assert val == pytest.approx(1.067668, abs=1e-6)


def test_shell_zero():
    assert correlation(spec(B), math.pi, 0.0).c == pytest.approx(1.0, abs=1e-15)


def test_sphere_point():
    # Phi = 9 {[cos 2 - sin(2)/2]/4}^2
    phi = 9.0 * ((math.cos(2.0) - math.sin(2.0) / 2.0) / 4.0) ** 2
    assert phi == pytest.approx(0.426534, abs=2e-6)
    assert correlation(spec(C), 2.0, 0.0).c == pytest.approx(1.0 + 0.5 * phi,
                                                            rel=1e-12)
    assert correlation(spec(C), 2.0, 0.0).c == pytest.approx(1.213267,
                                                             abs=1e-6)


def test_exponential_point():
    assert correlation(spec(D), 1.0, 0.0).c == pytest.approx(1.0 + 0.5 / 16.0,
                                                             rel=1e-14)


def test_coherent_is_unity():
    for case in (A, B, C, D, E):
        s = spec(case, emission=Emission.COHERENT)
        for q, dw in [(0.0, 0.0), (1.0, 2.0), (3.0, 0.5)]:
            assert correlation(s, q, dw).c == 1.0


def test_rejects_negative_q():
    with pytest.raises(ValueError):
        correlation(spec(A), -0.1, 0.0)


def test_q_checks_reject_nan():
    # NaN fails q < 0 as well as q > 0, so a check written q < 0 let it
    # through to the q = 0 branch (the oracle gave C = 1.5)
    calls = [lambda: correlation(spec(A), math.nan, 0.0),
             lambda: correlation(spec(E), math.nan, 0.0),
             lambda: form_factor(C, 1.0, np.array([0.5, math.nan])),
             lambda: numeric_correlation(spec(A), math.nan, 0.0)]
    for call in calls:
        with pytest.raises(ValueError, match="q must be non-negative"):
            call()


# --- factorized form --------------------------------------------------------

def test_factorized_origin():
    assert time_factor(A, 1.0, 0.0) == 1.0
    assert form_factor(A, 1.0, 0.0) == 1.0


def test_exponential_time_zero():
    dw = math.pi / (math.sqrt(3.0) * 1.0)
    assert time_factor(D, 1.0, dw) == pytest.approx(0.0, abs=1e-15)


def test_shell_half_pi():
    phi = form_factor(B, 1.0, math.pi / 2.0)
    assert phi == pytest.approx((2.0 / math.pi) ** 2, rel=1e-14)
    assert phi == pytest.approx(0.405285, abs=1e-6)


def test_factorized_rejects_case_e():
    with pytest.raises(ValueError, match="case E"):
        time_factor(E, 1.0, 0.0)
    with pytest.raises(ValueError, match="case E"):
        form_factor(E, 1.0, 1.0)


def test_factorized_consistency():
    rng = np.random.default_rng(21)
    for case in FACTORIZED_CASES:
        s = spec(case)
        for _ in range(200):
            q, dw = rng.uniform(0, 8), rng.uniform(-8, 8)
            expected = 1.0 + (CHAOTICITY * time_factor(case, s.tau, dw)
                              * form_factor(case, s.R, q))
            assert correlation(s, q, dw).c == pytest.approx(expected,
                                                            rel=1e-12)


# --- small-q expansion, kappa, X --------------------------------------------

def test_small_q_coefficients():
    assert small_q_coefficient(A, 1.0) == 1.0
    assert small_q_coefficient(B, 1.0) == pytest.approx(1.0 / 3.0)
    assert small_q_coefficient(C, 1.0) == pytest.approx(0.2)
    assert small_q_coefficient(D, 2.0) == pytest.approx(16.0)


def test_expansion_matches_form_factor():
    # [1 - Phi(q)] / q^2 -> coefficient as q -> 0
    q = 1e-3
    for case in FACTORIZED_CASES:
        coeff = small_q_coefficient(case, 1.0)
        est = (1.0 - form_factor(case, 1.0, q)) / (q * q)
        assert est == pytest.approx(coeff, rel=1e-5)


def test_kappa_to_radius_examples():
    assert kappa_to_radius(A, 2.0) == pytest.approx(1.0)
    assert kappa_to_radius(B, 2.0 / 3.0) == pytest.approx(1.0)
    assert kappa_to_radius(D, 8.0) == pytest.approx(1.0)


def test_kappa_round_trip():
    for case in FACTORIZED_CASES:
        for R in [0.5, 1.0, 3.0]:
            kappa = kappa_analytic(case, R)
            assert kappa == pytest.approx(2.0 * small_q_coefficient(case, R))
            assert kappa_to_radius(case, kappa) == pytest.approx(R, rel=1e-14)


def test_kappa_to_radius_rejects_nonpositive():
    with pytest.raises(ValueError):
        kappa_to_radius(A, 0.0)


def test_phi_of_x_values():
    for case in FACTORIZED_CASES:
        assert phi_of_X(case, 0.0) == 1.0
    assert phi_of_X(A, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert phi_of_X(D, 2.0) == pytest.approx(0.0625, rel=1e-14)


def test_phi_of_x_universal_expansion():
    # every rescaled curve starts as 1 - X^2 + O(X^4)
    x = 1e-3
    for case in FACTORIZED_CASES:
        assert phi_of_X(case, x) == pytest.approx(1.0 - x * x, abs=1e-11)


def test_phi_of_x_consistent_with_form_factor():
    # Phi(X) equals Phi(q) at q = X / sqrt(kappa/2)
    for case in FACTORIZED_CASES:
        scale = math.sqrt(kappa_analytic(case, 1.0) / 2.0)
        for x in [0.3, 1.0, 2.4]:
            assert phi_of_X(case, x) == pytest.approx(
                form_factor(case, 1.0, x / scale), rel=1e-12)


# --- case E -----------------------------------------------------------------

def test_case_e_I_vanishes_at_mu_zero(monkeypatch):
    # the direct form 9|I|^2/(8 mu^6) is 0/0 at mu = 0: a nonzero I would
    # give inf, not nan; the series branch gives the finite limit there
    s = spec(E, r_dot=1e-8 * C_UM_PER_PS)
    assert 0.0 < case_e_excess(s, 0.0, 1.0) < 0.5
    monkeypatch.setattr(corr, "MU_SERIES_MAX", -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.isnan(case_e_excess(s, 0.0, 1.0))


def test_case_e_origin_limit_is_half():
    # mu -> 0, d_omega -> 0: the excess reaches the full chaotic ceiling
    assert case_e_excess(spec(E), 1e-8, 0.0) == pytest.approx(0.5, rel=1e-10)


def test_case_e_series_faddeeva_continuity(monkeypatch):
    # overlap band around the branch switch: force each branch in turn
    s = spec(E)
    dws = np.array([0.0, 0.7, 2.0])
    for mu in [0.008, 0.012, 0.02]:
        q = mu / (s.r_dot * s.tau)
        monkeypatch.setattr(corr, "MU_SERIES_MAX", 0.0)
        closed = case_e_excess(s, q, dws)
        monkeypatch.setattr(corr, "MU_SERIES_MAX", 1.0)
        series = case_e_excess(s, q, dws)
        np.testing.assert_allclose(closed, series, rtol=1e-8, atol=0.0)


def test_case_e_against_oracle():
    s = spec(E)
    for q in [0.02, 0.2, 0.7, 1.5]:
        for dw in [0.0, 0.5, 2.0]:
            a = correlation(s, q, dw).excess
            o = numeric_correlation(s, q, dw).excess
            assert a == pytest.approx(o, rel=1e-4)


# --- global invariants ------------------------------------------------------

def test_exchange_symmetry():
    rng = np.random.default_rng(31)
    for case in (A, B, C, D, E):
        s = spec(case)
        for _ in range(100):
            q, dw = rng.uniform(0, 5), rng.uniform(0, 5)
            plus = correlation(s, q, dw).c
            minus = correlation(s, q, -dw).c
            assert minus == pytest.approx(plus, rel=1e-10)


def test_excess_bounds():
    rng = np.random.default_rng(41)
    for case in (A, B, C, D, E):
        s = spec(case)
        qs = rng.uniform(0, 10, 2000)
        dws = rng.uniform(-10, 10, 2000)
        for q, dw in zip(qs, dws):
            excess = correlation(s, q, dw).excess
            assert -1e-12 <= excess <= 0.5 + 1e-12


def test_oracle_equivalence_factorized():
    # coarse grid here; the full 20x20 acceptance grid lives in the
    # acceptance suite; C = 1 + excess agrees trivially wherever the excess
    # is below the tolerance, so the excess is compared too
    for case in FACTORIZED_CASES:
        s = spec(case)
        for q in np.linspace(0.0, 6.0, 5):
            for dw in np.linspace(0.0, 6.0, 4):
                a = correlation(s, q, dw)
                o = numeric_correlation(s, q, dw)
                assert a.c == pytest.approx(o.c, rel=1e-6)
                if o.excess > 1e-12:
                    assert a.excess == pytest.approx(o.excess, rel=1e-6)
