"""Closed-form correlators: frozen values, invariants, oracle agreement."""

import csv
import itertools
import math
import os

import mpmath
import numpy as np
import pytest

import bubblehbt.correlators as corr
from bubblehbt.correlators import (CHAOTICITY, FACTORIZED_CASES,
                                   MU_SERIES_MAX, MU_Y_SERIES_MAX,
                                   case_e_excess, correlation, excess,
                                   form_factor, kappa_analytic,
                                   kappa_to_radius, mean_time_factor, phi_of_X,
                                   small_q_coefficient, time_factor)
from bubblehbt.kinematics import C_UM_PER_PS
from bubblehbt.oracle import numeric_correlation
from bubblehbt.special_functions import dawson
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
    # -0.0 is not negative, and an empty q has no entry to reject
    for case in (A, C, E):
        s = spec(case)
        assert (correlation(s, -0.0, 0.5).excess
                == correlation(s, 0.0, 0.5).excess)
        assert correlation(s, np.empty((0, 1)), np.zeros(3)).c.shape == (0, 3)


def test_q_checks_reject_nan():
    # NaN fails q < 0 as well as q > 0, so a check written q < 0 let it
    # through to the q = 0 branch (the oracle gave C = 1.5)
    calls = [lambda: correlation(spec(A), math.nan, 0.0),
             lambda: correlation(spec(E), math.nan, 0.0),
             lambda: form_factor(C, np.array([0.5, math.nan])),
             lambda: numeric_correlation(spec(A), math.nan, 0.0)]
    for call in calls:
        with pytest.raises(ValueError, match="q must be non-negative"):
            call()


# -1e-320 is subnormal, and so are x = q R and mu = r_dot tau q from it
@pytest.mark.parametrize("bad", [-0.1, math.nan, -math.inf, -1e-320])
@pytest.mark.parametrize("case", [A, C, E])
def test_array_q_with_a_bad_entry_is_rejected(case, bad):
    q = np.array([[0.0], [0.5], [bad]])
    for emission in Emission:
        s = spec(case, emission=emission)
        for q_in, dw in ((q, np.zeros(3)), (bad, 0.0), (np.float64(bad), 0.0)):
            with pytest.raises(ValueError, match="q must be non-negative"):
                correlation(s, q_in, dw)


# --- factorized form --------------------------------------------------------

def test_factorized_origin():
    assert time_factor(A, 0.0) == 1.0
    assert form_factor(A, 0.0) == 1.0


def test_exponential_time_zero():
    y = math.pi / math.sqrt(3.0)
    assert time_factor(D, y) == pytest.approx(0.0, abs=1e-15)


def test_shell_half_pi():
    phi = form_factor(B, math.pi / 2.0)
    assert phi == pytest.approx((2.0 / math.pi) ** 2, rel=1e-14)
    assert phi == pytest.approx(0.405285, abs=1e-6)


def test_factorized_rejects_case_e():
    with pytest.raises(ValueError, match="case E"):
        time_factor(E, 0.0)
    with pytest.raises(ValueError, match="case E"):
        mean_time_factor(E, 1.0)
    with pytest.raises(ValueError, match="case E"):
        form_factor(E, 1.0)
    with pytest.raises(ValueError, match="case E has no shape constant"):
        small_q_coefficient(E, 1.0)


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_form_and_mean_time_factors_reject_a_bad_scale(bad):
    # a source rejects a scale that is not positive and finite, and each
    # kernel checks its own argument, x = q R or t = tau W: a negative or
    # NaN one raises (below x = 1e-2 and 1e-3 each took its Taylor series,
    # which a negative R or tau reached: case C's Phi(5) at R = -1 read
    # 0.0908, 0.00326 at R = 1, and case A's <T> over W = 2 at tau = -1
    # read 0.7667, 0.7468 at tau = 1), and 0 and inf give the limits 1 and
    # 0.  The kernels are plain numpy, which warns where x^2 overflows.
    for case in FACTORIZED_CASES:
        with pytest.raises(ValueError, match="requires a finite R > 0"):
            SourceSpec(case=case, tau=1.0, R=bad)
        with pytest.raises(ValueError,
                           match="tau must be positive and finite"):
            SourceSpec(case=case, tau=bad, R=1.0)
        if bad >= 0.0:
            limit = 1.0 if bad == 0.0 else 0.0
            with np.errstate(over="ignore"):
                assert form_factor(case, 5.0 * bad) == limit
            assert mean_time_factor(case, 2.0 * bad) == limit
            continue
        with pytest.raises(ValueError, match="q must be non-negative"):
            form_factor(case, 5.0 * bad)
        with pytest.raises(ValueError, match="tau W must be non-negative"):
            mean_time_factor(case, 2.0 * bad)


def test_factorized_consistency():
    rng = np.random.default_rng(21)
    for case in FACTORIZED_CASES:
        s = spec(case)
        for _ in range(200):
            q, dw = rng.uniform(0, 8), rng.uniform(-8, 8)
            expected = 1.0 + (CHAOTICITY * time_factor(case, dw * s.tau)
                              * form_factor(case, q * s.R))
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
        est = (1.0 - form_factor(case, q)) / (q * q)
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
                form_factor(case, x / scale), rel=1e-12)


# --- case E -----------------------------------------------------------------

def test_case_e_I_vanishes_at_mu_zero(monkeypatch):
    # the direct form 9|I|^2/(8 mu^6) is 0/0 at mu = 0: a nonzero I would
    # give inf, not nan; the series branch gives the finite limit there
    assert 0.0 < case_e_excess(0.0, 1.0) < 0.5
    monkeypatch.setattr(corr, "MU_SERIES_MAX", -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.isnan(case_e_excess(0.0, 1.0))


def test_case_e_origin_limit_is_half():
    # mu -> 0, d_omega -> 0: the excess reaches the full chaotic ceiling
    assert case_e_excess(1e-8, 0.0) == pytest.approx(0.5, rel=1e-10)


def test_case_e_branches_agree_in_their_overlap(monkeypatch):
    # overlap band around the branch switch at MU_SERIES_MAX = 0.55: force
    # each branch in turn; both are within 1e-13 of mpmath there
    y = np.array([0.0, 0.7, 2.0])
    for mu in [0.45, 0.55, 0.6]:
        monkeypatch.setattr(corr, "MU_SERIES_MAX", 0.0)
        closed = case_e_excess(mu, y)
        monkeypatch.setattr(corr, "MU_SERIES_MAX", 1.0)
        series = case_e_excess(mu, y)
        np.testing.assert_allclose(closed, series, rtol=1e-12, atol=0.0)


def series_reference(y, mu):
    """(1/2) |s|^2 at 50 digits, s = 6 sum_k (-1)^k mu^(2k) (2k+2)/(2k+3)!
    M_(2k+3) over the orders that `case_e_excess` sums below MU_SERIES_MAX:
    M_0 from exp and erfi, the moments by their recurrence."""
    orders = corr._SERIES_COEF.shape[1]
    with mpmath.workdps(50):
        y, mu = mpmath.mpf(y), mpmath.mpf(mu)
        a = mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-y * y / 4)
        m = [mpmath.mpc(a, a * mpmath.erfi(y / 2))]
        m.append((1j * y * m[0] + 1) / 2)
        for n in range(2, 2 * orders + 2):
            m.append((1j * y * m[n - 1] + (n - 1) * m[n - 2]) / 2)
        s = sum(6 * (-1) ** k * mu ** (2 * k) * (2 * k + 2)
                / mpmath.factorial(2 * k + 3) * m[2 * k + 3]
                for k in range(orders))
        return float(abs(s) ** 2 / 2)


@pytest.mark.parametrize("mu", [0.0, 0.003, 0.0099, 0.54])
def test_case_e_series_matches_its_high_precision_sum(mu):
    # the series' polynomials against the same series summed at 50 digits,
    # up to just below MU_SERIES_MAX; both lose digits to the same
    # cancellation as |y| grows
    assert mu <= MU_SERIES_MAX
    y = np.linspace(-5.0, 5.0, 81)
    got = case_e_excess(mu, y)
    reference = np.array([series_reference(v, mu) for v in y])
    rel = np.abs(got - reference) / reference
    assert rel[np.abs(y) <= 2.0].max() <= 2e-15
    assert rel.max() <= 2e-13


@pytest.mark.filterwarnings("error")
def test_case_e_excess_at_huge_q():
    # mu^6 overflows: the direct form returns the q -> inf limit 0, not NaN
    for q in (1e100, 1e150):
        e = excess(spec(E), q, np.array([0.0, 1.0, 1e100]))
        assert np.isfinite(e).all() and (e >= 0.0).all()
    # at tau = 1e10 ps, mu = r_dot tau q and z± overflow themselves
    np.testing.assert_array_equal(
        excess(spec(E, tau=1e10), np.array([[1e300]]), np.array([0.0, 1.0])),
        0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [1e-80, 1e-40, 1e40, 1e80])
def test_case_e_depends_on_tau_only_through_scaled_arguments(tau):
    # every case's excess is a function of x = q R, y = d_omega tau,
    # mu = r_dot tau q and t = tau W alone.  tau is scaled by the power of
    # two k nearest the parameter, R by 1/k and r_dot by 1/8, and q,
    # d_omega and W the inverse way, so each of those products is the one
    # at tau = R = 1 to the bit, and so is every point of the excess, for
    # both emissions, with and without a window.  q reaches mu = 0.72, past
    # MU_SERIES_MAX, and mu |y| stays below MU_Y_SERIES_MAX
    k = 2.0 ** round(math.log2(tau))
    q = np.linspace(0.0, 12.0, 61)[:, None]
    dw = np.linspace(-2.0, 2.0, 41)
    series = REFERENCE_RDOT * q <= MU_SERIES_MAX
    assert series.sum() > 1 and (~series).sum() > 1
    for case in (A, B, C, D, E):
        q_scale = 8.0 / k if case is E else k
        windows = [None] if case is E else [None, 0.5, 20.0]
        for emission, w in itertools.product(Emission, windows):
            reference = excess(spec(case, emission=emission), q, dw, w)
            scaled = excess(
                spec(case, R=1.0 / k, tau=k, r_dot=REFERENCE_RDOT / 8.0,
                     emission=emission),
                q * q_scale, dw / k, None if w is None else w / k)
            assert scaled.tobytes() == reference.tobytes(), (case, w)


def test_case_e_against_oracle():
    s = spec(E)
    for q in [0.02, 0.2, 0.7, 1.5]:
        for dw in [0.0, 0.5, 2.0]:
            a = correlation(s, q, dw).excess
            o = numeric_correlation(s, q, dw).excess
            assert a == pytest.approx(o, rel=1e-4)


# Case E excess at tau = 1 ps and r_dot = REFERENCE_RDOT, computed once with
# mpmath at 80 digits (140 digits agree to 4e-35 relative): for mu > 0 the
# direct form with w(x) = exp(-x^2) erfc(-ix), at mu = 0 its limit
# (1/2) |2 M_3 / tau^4|^2, with M_n from the recurrence on M_0.  Q_E puts
# mu = 0.0101 just above the series switch of 0.01 that case E had until
# the switch moved to MU_SERIES_MAX, where the direct form was worst.
Q_E = 0.0101 / REFERENCE_RDOT
CASE_E_REFERENCES = [
    (0.0, 0.0, 0.5),
    (0.0, 1.0, 0.39624269501593279),
    (0.0, 3.0, 0.063108938868263392),
    (0.05, 0.0, 0.49999820249298896),
    (0.05, 1.0, 0.39624135324664124),
    (0.05, 3.0, 0.063108827630796079),
    (Q_E, 0.0, 0.49997959843110114),
    (Q_E, 1.0, 0.39622746602311874),
    (Q_E, 3.0, 0.063107676321684383),
    (0.5, 0.0, 0.49982028242436832),
    (0.5, 1.0, 0.39610854174931728),
    (0.5, 3.0, 0.063097816352370501),
    (2.0, 0.0, 0.49713253287220373),
    (2.0, 1.0, 0.39410196782244485),
    (2.0, 3.0, 0.062931276552101398),
    (20.0, 0.0, 0.28301616217246834),
    (20.0, 1.0, 0.23230743876552985),
    (20.0, 3.0, 0.048072492812957108),
]
# both branches cancel at large d_omega (ROADMAP item 6): the closed form
# gives 0, 0.125 and 0 here, for references of order 1e-47, 1e-63 and 1e-31
CASE_E_FAILING_REFERENCES = [
    (0.1, 1e6, 7.200000000288001e-47),
    (0.0, 1e8, 7.2000000000000288e-63),
    (Q_E, 1e4, 7.2000028800302717e-31),
]


@pytest.mark.parametrize("q, dw, reference", CASE_E_REFERENCES + [
    pytest.param(*point, marks=pytest.mark.xfail(
        strict=True, reason="case E loses accuracy at large d_omega"))
    for point in CASE_E_FAILING_REFERENCES], ids="{:g}".format)
def test_case_e_matches_pinned_references(q, dw, reference):
    got = correlation(spec(E), q, dw).excess
    assert abs(got - reference) <= 1e-8 * reference


# --- the closed forms against the mpmath table -------------------------------

def mpmath_table(form):
    """(arg0, arg1, value) arrays of the rows of `form` in the table that
    tools/mpmath_references.py writes; an empty arg1 reads as NaN."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "mpmath_references.csv")
    with open(path) as fh:
        rows = [row for row in csv.DictReader(
            line for line in fh if not line.startswith("#"))
            if row["form"] == form]
    return tuple(np.array([float(row[key] or "nan") for row in rows])
                 for key in ("arg0", "arg1", "value"))


# Each one-argument kernel's bound on its error relative to the table, from
# the rounding that the closed form does: A's x^2, up to 100, times eps/2;
# a few ulps for B's sin, D's powers of 1 + x^2 and both box averages, and
# scipy's Si for D's; C's amplitude cancels to about eps / x^2, 2e-15 just
# above its series switch at x = 0.5, and Phi, its square, doubles that
# (ROADMAP item 15's aim is 1e-15); D's time factor rounds sqrt(3) y,
# which sinc^2 amplifies as it nears a zero.  For the
# forms with zeros, those of sinc and of C's amplitude, the bound is
# ZERO_ATOL absolute where the reference is below NEAR_ZERO.
KERNEL_BOUNDS = {
    "form_factor_A": (lambda x: form_factor(A, x), 3e-14),
    "form_factor_B": (lambda x: form_factor(B, x), 2e-15),
    "form_factor_C": (lambda x: form_factor(C, x), 1e-14),
    "form_factor_D": (lambda x: form_factor(D, x), 2e-15),
    "time_factor_D": (lambda y: time_factor(D, y), 3e-14),
    "mean_time_factor_A": (lambda t: mean_time_factor(A, t), 2e-15),
    "mean_time_factor_D": (lambda t: mean_time_factor(D, t), 5e-15),
}
WITH_ZEROS = ("form_factor_B", "form_factor_C", "time_factor_D")
NEAR_ZERO = 1e-3
ZERO_ATOL = 3e-17


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("form", KERNEL_BOUNDS)
def test_factorized_kernels_match_the_mpmath_table(form):
    kernel, rel = KERNEL_BOUNDS[form]
    arg, _, reference = mpmath_table(form)
    assert arg.size > 70 and (arg == 0.0).any()
    got = np.array([kernel(a) for a in arg.tolist()])
    err = np.abs(got - reference)
    near = (reference < NEAR_ZERO) & (form in WITH_ZEROS)
    assert (err[~near] <= rel * reference[~near]).all(), (
        arg[~near][err[~near] > rel * reference[~near]])
    assert (err[near] <= ZERO_ATOL).all(), arg[near][err[near] > ZERO_ATOL]


@pytest.mark.filterwarnings("error")
def test_case_e_matches_the_mpmath_table():
    # the table's arguments are case E's own, mu and y
    mu, y, reference = mpmath_table("case_e_excess")
    got = case_e_excess(mu, y)
    rel = np.abs(got - reference) / reference
    grid = np.abs(y) <= 10.0
    assert mu[grid].max() == 1.0 and np.abs(y[grid]).max() == 10.0
    assert ((mu == 0.0) & (y == 0.0)).any()
    # both branches and the switches between them: 6.7e-14 at worst
    assert rel[np.abs(y) <= 5.0].max() <= 1e-13
    # further out both branches cancel (ROADMAP item 6): 1.4e-11 at worst
    assert rel[grid].max() <= 3e-11
    # the three points past the grid are the pinned references' xfails
    onset = np.abs(y) > 10.0
    np.testing.assert_allclose(reference[onset], [
        r for *_, r in CASE_E_FAILING_REFERENCES], rtol=1e-15, atol=0.0)


# mu = r_dot tau q and |y| = |d_omega| tau on log grids from 1e-12 and 1e-3,
# each with 0
BOUNDS_MU = np.concatenate(([0.0], np.geomspace(1e-12, 3.2, 300)))
BOUNDS_Y = np.concatenate(([0.0], np.geomspace(1e-3, 1e9, 200)))


@pytest.mark.parametrize("far", [False, pytest.param(True, marks=(
    pytest.mark.xfail(strict=True, reason="past |y| = 1.2e8 both case E "
                      "branches cancel to any value (ROADMAP item 6)")))],
    ids=["y_to_1e8", "y_past_1e8"])
def test_case_e_excess_lies_between_0_and_one_half(far):
    # the chaotic bound holds at every (mu, y) with |y| <= 1e8.  Before the
    # branch rule took mu |y| into account, 4,127 of the 60,501 points fell
    # outside it, 2,355 of them with |y| <= 1e8, up to 7.5e50, and
    # `eval --case E --q 0.01668 --dw 1e6` printed C = 33554433
    y = BOUNDS_Y[(BOUNDS_Y > 1e8) == far]
    e = case_e_excess(BOUNDS_MU[:, None], y)
    assert ((0.0 <= e) & (e <= CHAOTICITY)).all()


# --- q broadcast against d_omega ---------------------------------------------

Q_SWITCH = MU_SERIES_MAX / REFERENCE_RDOT  # mu = MU_SERIES_MAX at tau = 1
# the q = 0 row and rows on both sides of the branch switch; the series rows
# keep |d_omega tau| <= 5 (ROADMAP item 6: the series fails beyond that)
NEAR_Q = np.concatenate(([0.0], np.linspace(0.5, 2.0, 7) * Q_SWITCH))
NEAR_DW = np.linspace(-5.0, 5.0, 11)
# the direct branch far out: mu^6 and mu z± overflow there
FAR_Q = np.geomspace(1.0, 1e200, 9)
FAR_DW = np.array([-1e300, -1e100, -3.0, 0.0, 0.7, 1e10, 1e300])


def assert_each_point_is_the_scalar_call(fn, q, dw):
    grid = fn(q, dw)
    q, dw = np.broadcast_arrays(q, dw)
    assert grid.shape == q.shape
    for i in np.ndindex(grid.shape):
        scalar = fn(q[i], dw[i])
        assert np.ndim(scalar) == 0 and not isinstance(scalar, np.ndarray)
        assert grid[i].tobytes() == np.float64(scalar).tobytes(), (q[i],
                                                                   dw[i])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q_row, dw", [(NEAR_Q, NEAR_DW), (FAR_Q, FAR_DW)],
                         ids=["near_switch", "far"])
def test_case_e_broadcasts_bit_for_bit(q_row, dw):
    s = spec(E)
    mu = s.r_dot * s.tau * q_row
    if q_row is NEAR_Q:
        assert (mu <= MU_SERIES_MAX).sum() > 1 and (mu > MU_SERIES_MAX).any()
    assert_each_point_is_the_scalar_call(
        lambda q, w: excess(s, q, w), q_row[:, None], dw)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", [A, B, C, D, E])
@pytest.mark.parametrize("emission", list(Emission))
def test_correlation_broadcasts_bit_for_bit(case, emission):
    s = spec(case, emission=emission)
    for q_row, dw in [(NEAR_Q, NEAR_DW), (FAR_Q, FAR_DW)]:
        for field in ("c", "excess"):
            assert_each_point_is_the_scalar_call(
                lambda q, w: getattr(correlation(s, q, w), field),
                q_row[:, None], dw)
        # C is 1 + (C - 1), in a grid and at a point
        for value in (correlation(s, q_row[:, None], dw),
                      correlation(s, q_row[1], dw[1])):
            assert (np.float64(value.c).tobytes()
                    == np.float64(1.0 + value.excess).tobytes())


@pytest.mark.filterwarnings("error")
def test_case_e_mixed_points_bit_for_bit():
    # q and d_omega of the same shape, as generate passes a grid's points:
    # series points and far direct points in one call
    s = spec(E)
    q = np.array([0.0, 1e-6, 0.5 * Q_SWITCH, 2.0 * Q_SWITCH, 1.0, 1e100,
                  1e200, 3.0])
    dw = np.array([0.5, -3.0, 5.0, -1e300, 1e300, 1e10, -2.0, 0.0])
    mixed = excess(s, q, dw)
    assert mixed.shape == q.shape
    for i in range(q.size):
        assert mixed[i].tobytes() == np.float64(
            excess(s, q[i], dw[i])).tobytes()


# q below MU_SERIES_MAX with mu |y| <= MU_Y_SERIES_MAX: every point of a
# grid of these takes the series, which gets the inputs as they are
SERIES_Q = np.linspace(0.0, 0.5, 6) * Q_SWITCH
# q past MU_SERIES_MAX: every point takes the direct form, which gets the
# inputs as they are
DIRECT_Q = np.linspace(1.1, 2.0, 6) * Q_SWITCH


def strided_column(values):
    # a column view whose rows are three floats apart
    wide = np.zeros((values.size, 3))
    wide[:, 0] = values
    return wide[:, :1]


def fortran_pair(q, dw):
    # q and d_omega of one shape, paired point by point, in Fortran order
    return tuple(map(np.asfortranarray, np.broadcast_arrays(q, dw)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q_values", [SERIES_Q, NEAR_Q, DIRECT_Q],
                         ids=["series", "switch", "direct"])
@pytest.mark.parametrize("layout", [
    lambda q, dw: (q[:, None], dw),
    lambda q, dw: (q[None, :], dw[:, None]),
    lambda q, dw: (q[:, None, None], dw[:, None] * [1.0, -0.5, 0.3]),
    lambda q, dw: (strided_column(q), dw),
    lambda q, dw: (strided_column(q)[::-1], dw[::-2]),
    lambda q, dw: fortran_pair(q[:, None], dw),
], ids=["q_column", "q_row_dw_column", "3d", "strided_q_column",
        "reversed_strided", "fortran_paired"])
def test_case_e_layouts_bit_for_bit(layout, q_values):
    # every memory layout of mu and y gives each point's own bits, on a
    # grid wholly on the series, on one across both switches and on one
    # wholly on the direct form (mu = r_dot q and y = d_omega at tau = 1)
    assert_each_point_is_the_scalar_call(
        case_e_excess, *layout(REFERENCE_RDOT * q_values, NEAR_DW))


def series_summed_in_order(y, mu):
    """`_case_e_series` with each sum written out as a loop that adds one
    term at a time, highest power first, from the same power tables."""
    coef = corr._SERIES_COEF
    n_y, n_mu, _ = coef.shape
    y2, mu2 = y * y, mu * mu
    y_pow = y2 ** corr._exponents(n_y, y2.ndim)
    mu_pow = mu2 ** corr._exponents(n_mu, mu2.ndim)
    sums = []
    for c in range(2):
        total = 0.0
        for k in range(n_mu):
            order = 0.0
            for j in range(n_y):
                order = order + coef[j, k, c] * y_pow[j]
            total = total + mu_pow[k] * order
        sums.append(total)
    p_sum, q_sum = sums
    re = y * dawson(0.5 * y) * p_sum + q_sum
    im = y * (corr._HALF_SQRT_PI * np.exp(-0.25 * y2)) * p_sum
    return CHAOTICITY * (re * re + im * im)


IN_ORDER_MU = np.random.default_rng(38).uniform(0.45, MU_SERIES_MAX, 50000)
IN_ORDER_Y = np.random.default_rng(39).uniform(-5.4, 5.4, 50000)


@pytest.mark.parametrize("y, mu", [
    (IN_ORDER_Y, IN_ORDER_MU),
    (IN_ORDER_Y[:, None], IN_ORDER_MU[:, None]),
    (IN_ORDER_Y[:101], IN_ORDER_MU[:301, None]),
    (IN_ORDER_Y[:101, None], IN_ORDER_MU[:301]),
], ids=["paired", "paired_columns", "q_column", "q_row"])
def test_case_e_series_sums_each_order_in_turn(y, mu):
    # near MU_SERIES_MAX every order counts: a sum that grouped its terms
    # otherwise, as einsum's loop along the order axis does with its
    # partial sums, differs from this one at one or two points in 10^4
    got = corr._case_e_series(y, mu)
    expected = series_summed_in_order(y, mu)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def branch(take_series, y, mu):
    """The bits of the branch the per-point rule names at (y, mu)."""
    y, mu = np.float64(y), np.float64(mu)
    value = (corr._case_e_series(y, mu) if take_series
             else corr._case_e_direct(y, mu))
    return np.float64(value).tobytes()


@pytest.mark.filterwarnings("error")
def test_case_e_axes_test_meets_the_per_point_rule():
    # the one per-point rule at both switches: a grid takes the series on
    # the inputs as they are exactly when no point is past either bound.
    # mu at and just past MU_SERIES_MAX, and mu |y| at and just past
    # MU_Y_SERIES_MAX
    past_mu = np.nextafter(MU_SERIES_MAX, 1.0)
    y_at = MU_Y_SERIES_MAX / 0.5  # mu = 0.5 gives mu |y| = 3 exactly
    past_y = np.nextafter(y_at, np.inf)
    assert 0.5 * y_at == MU_Y_SERIES_MAX < 0.5 * past_y
    for mu, y, all_series in [
            ([0.0, MU_SERIES_MAX], [-2.0, 0.0, 1.0], True),
            ([0.0, MU_SERIES_MAX, past_mu], [-2.0, 0.0, 1.0], False),
            ([0.0, 0.5], [0.0, y_at, -y_at], True),
            ([0.0, 0.5], [0.0, y_at, -past_y, past_y], False)]:
        mu, y = np.array(mu)[:, None], np.array(y)
        assert_each_point_is_the_scalar_call(case_e_excess, mu, y)
        series = corr._case_e_series(y, mu).tobytes()
        assert (case_e_excess(mu, y).tobytes() == series) is all_series
    # and each point at a switch takes the branch the rule names
    e = case_e_excess(np.array([[MU_SERIES_MAX], [past_mu], [0.5]]),
                      np.array([1.0, y_at, past_y]))
    assert e[0, 0].tobytes() == branch(True, 1.0, MU_SERIES_MAX)
    assert e[1, 0].tobytes() == branch(False, 1.0, past_mu)
    assert e[2, 1].tobytes() == branch(True, y_at, 0.5)
    assert e[2, 2].tobytes() == branch(False, past_y, 0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q, dw", [
    # every mu |y| is 0 on the q = 0 row, which takes the series, whose
    # powers of y^2 overflow to NaN; q = 0.3 takes the direct form's limit
    ([0.0], [1e300, -1e300, 0.5]),
    ([0.0, 0.3], [1e300, -1e300, 0.5]),
    # a NaN d_omega fails neither bound; every point on its column is NaN
    ([0.0, 0.3], [0.0, np.nan, 1.0, -2.0]),
    ([0.0, 0.3, 0.6], [0.0, np.nan, 1.0, -2.0]),
    ([0.0, 0.3], [0.0, np.inf, -np.inf, 1.0]),
], ids=["q0_huge_y", "huge_y", "nan_series", "nan_mixed", "inf"])
def test_case_e_non_finite_and_huge_d_omega_bit_for_bit(q, dw):
    # at tau = 1 and r_dot = 1, mu = q and y = d_omega
    s = spec(E, r_dot=1.0)
    grid = excess(s, np.array(q)[:, None], np.array(dw))
    scalars = np.array([[excess(s, a, b) for b in dw] for a in q])
    # NaN where the scalar call gives NaN, whose sign bit tells nothing (a
    # direct point's differs between the two); the bits elsewhere
    nan = np.isnan(scalars)
    np.testing.assert_array_equal(np.isnan(grid), nan)
    assert grid[~nan].tobytes() == scalars[~nan].tobytes()


def test_case_e_series_rows_are_the_generators():
    # the coefficients derived in integers are, bit for bit, those of an
    # independent derivation in sympy's complex rationals, each the float
    # nearest its rational, at every order through mu^20
    sympy = pytest.importorskip("sympy")
    y, mu = sympy.symbols("y mu", real=True)
    # M_n = A_n M_0 + B_n, from 2 M_n = i y M_(n-1) + (n-1) M_(n-2)
    # (+1 at n = 1)
    A = [sympy.Integer(1), sympy.I * y / 2]
    B = [sympy.Integer(0), sympy.Rational(1, 2)]
    for n in range(2, 24):
        A.append(sympy.expand((sympy.I * y * A[n - 1] + (n - 1) * A[n - 2])
                              / 2))
        B.append(sympy.expand((sympy.I * y * B[n - 1] + (n - 1) * B[n - 2])
                              / 2))
    for order in range(11):
        a_s = b_s = sympy.Integer(0)
        for k in range(order + 1):
            c = (6 * (-1) ** k * mu ** (2 * k)
                 * sympy.Rational(2 * k + 2, sympy.factorial(2 * k + 3)))
            a_s += c * A[2 * k + 3]
            b_s += c * B[2 * k + 3]
        # M_0 = a + i b = i (b - i a), so s = (i a_s) (b - i a) + b_s
        expected = np.zeros((order + 2, order + 1, 2))
        for i, poly in enumerate([sympy.I * a_s / y, b_s]):
            for (n_y, n_mu), value in sympy.Poly(sympy.expand(poly), y,
                                                 mu).terms():
                assert n_y % 2 == n_mu % 2 == 0
                assert n_y <= 2 * order + 2 and n_mu <= 2 * order
                expected[order + 1 - n_y // 2, order - n_mu // 2,
                         i] = float(value)
        got = corr._series_coefficients(order)
        assert got.tobytes() == expected.tobytes(), order


# a q column across the branch switch, and d_omega past the series' reach
EVEN_Q = np.linspace(0.0, 18.0, 351) * Q_SWITCH
EVEN_DW = np.linspace(0.0, 15.0, 151)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q_row, dw", [(EVEN_Q, EVEN_DW), (FAR_Q, FAR_DW)],
                         ids=["switch", "far"])
def test_case_e_is_even_in_d_omega_bit_for_bit(q_row, dw):
    # d_omega -> -d_omega swaps z+ and -z-, and flips the signs of the
    # series' odd P and D(y/2): both branches give the same bits
    s = spec(E)
    if q_row is EVEN_Q:
        mu = s.r_dot * s.tau * q_row
        assert (mu <= MU_SERIES_MAX).sum() > 1 and (mu > MU_SERIES_MAX).any()
    plus = excess(s, q_row[:, None], dw)
    minus = excess(s, q_row[:, None], -dw)
    assert plus.tobytes() == minus.tobytes()


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
