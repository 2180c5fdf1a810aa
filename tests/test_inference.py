"""Inversion pipeline: slice fits, factorization score, curvature, shape
ranking, chaoticity verdicts, and full round trips on synthetic surfaces."""

import math

import numpy as np
import pytest

from bubblehbt.correlators import form_factor, kappa_analytic
from bubblehbt.inference import (SLOPE_ERR_FLOOR_REL, TAU_WINDOW,
                                 Chaoticity, InsufficientDataError, SliceFit,
                                 chaoticity_test, estimate_kappa,
                                 factorization_test, fit_surface,
                                 fit_tau_slices, radii_from_kappa,
                                 report_to_text, shape_discrimination)
from bubblehbt.kinematics import C_UM_PER_PS
from bubblehbt.sources import Emission, SourceCase, SourceSpec
from bubblehbt.synth import FormFactorSamples, GridSpec, NoiseSpec, generate

A, B, C, D, E = (SourceCase.A_GAUSSIAN, SourceCase.B_SHELL,
                 SourceCase.C_SPHERE, SourceCase.D_EXPONENTIAL,
                 SourceCase.E_EXPANDING_SHOCK)

REFERENCE_RDOT = 2e-4 * C_UM_PER_PS


def surface(case, q_values, dw_values, R=1.0, tau=1.0, r_dot=REFERENCE_RDOT,
            noise=None, smear_dw=None, emission=Emission.CHAOTIC):
    if case is E:
        spec = SourceSpec(case=case, tau=tau, r_dot=r_dot, emission=emission)
    else:
        spec = SourceSpec(case=case, tau=tau, R=R, emission=emission)
    grid = GridSpec(q_values=tuple(q_values), d_omega_values=tuple(dw_values))
    return generate(spec, grid, noise=noise, smear_dw=smear_dw)


def exact_phi_samples(case, q_values, R=1.0):
    q = np.asarray(q_values, dtype=float)
    phi = np.array([form_factor(case, R, qi) for qi in q])
    return FormFactorSamples(q=q, phi_hat=phi, phi_err=np.zeros_like(q))


# --- tau slices and factorization -------------------------------------------

def test_noiseless_gaussian_slices_exact():
    surf = surface(A, np.linspace(0.0, 2.0, 5), np.linspace(0.0, 1.0, 6))
    tau_hat, tau_err, fits = fit_tau_slices(surf)
    # log(C - 1) is exactly linear in (d_omega)^2 with slope -tau^2
    for f in fits:
        assert f.slope == pytest.approx(-1.0, rel=1e-10)
        assert f.residual_rms < 1e-10
    assert tau_hat == pytest.approx(1.0, rel=1e-10)
    assert tau_err > 0.0  # floored, not zero


def test_windowed_tau_for_curved_time_factor():
    # the time factor of the flat-lapse case is curved in (d_omega)^2; the
    # origin-window refit keeps the bias under 2%
    surf = surface(D, np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.5, 16))
    tau_hat, _, _ = fit_tau_slices(surf)
    assert tau_hat == pytest.approx(1.0, rel=0.02)


def test_tau_recovery_with_noise():
    surf = surface(A, np.linspace(0.0, 2.0, 11), np.linspace(0.0, 2.0, 9),
                   noise=NoiseSpec(pairs_per_bin=10 ** 6, seed=2))
    tau_hat, tau_err, _ = fit_tau_slices(surf)
    assert abs(tau_hat - 1.0) < 5.0 * tau_err
    assert tau_err < 0.02


def test_insufficient_data_errors():
    # coherent surface: no significant excess anywhere
    flat = surface(A, np.linspace(0.0, 2.0, 5), np.linspace(0.0, 1.0, 6),
                   emission=Emission.COHERENT)
    with pytest.raises(InsufficientDataError):
        fit_tau_slices(flat)
    # two d_omega points per slice are too few
    thin = surface(A, np.linspace(0.0, 2.0, 5), (0.0, 0.5))
    with pytest.raises(InsufficientDataError):
        fit_tau_slices(thin)


def reference_tau_slices(surf):
    """fit_tau_slices with one np.linalg.lstsq per slice and pass."""
    excess = surf.c_obs - 1.0
    usable = excess > 3.0 * surf.sigma
    groups = [np.flatnonzero((surf.q == q) & usable) for q in np.unique(surf.q)]
    groups = [idx for idx in groups if idx.size >= 3]
    if len(groups) < 2:
        raise InsufficientDataError("insufficient significant points")

    def fit(idx, dw2_max):
        inside = surf.d_omega[idx] ** 2 <= dw2_max
        if inside.sum() >= 3:
            idx = idx[inside]
        x = surf.d_omega[idx] ** 2
        y = np.log(excess[idx])
        sig = surf.sigma[idx] / excess[idx]
        noisy = bool((sig > 0.0).any())
        w = 1.0 / sig if noisy else np.ones_like(sig)
        a = np.column_stack([np.ones_like(x), x]) * w[:, None]
        beta = np.linalg.lstsq(a, y * w, rcond=None)[0]
        cov = np.linalg.inv(a.T @ a) if noisy else np.zeros((2, 2))
        rms = math.sqrt(np.mean((y - beta[0] - beta[1] * x) ** 2))
        return SliceFit(q=float(surf.q[idx[0]]), slope=beta[1],
                        intercept=beta[0], slope_err=math.sqrt(cov[1, 1]),
                        intercept_err=math.sqrt(cov[0, 0]), residual_rms=rms,
                        n_points=idx.size)

    pooled = np.mean([fit(idx, math.inf).slope for idx in groups])
    if pooled >= 0.0:
        raise InsufficientDataError(
            "negative slope variance: fitted slopes are non-negative")
    fits = [fit(idx, TAU_WINDOW / -pooled) for idx in groups]
    floor = SLOPE_ERR_FLOOR_REL * (abs(np.mean([f.slope for f in fits]))
                                   or 1.0) + 1e-12
    taus, errs = [], []
    for f in fits:
        if f.slope >= 0.0:
            if f.slope > 2.0 * f.slope_err:
                raise InsufficientDataError(
                    "negative slope variance: slope >= 0 beyond errors "
                    f"at q = {f.q}")
            continue
        taus.append(math.sqrt(-f.slope))
        errs.append(math.hypot(f.slope_err, floor) / (2.0 * taus[-1]))
    if not taus:
        raise InsufficientDataError(
            "negative slope variance: no slice has a negative slope")
    w = 1.0 / np.square(errs)
    return (float(np.sum(w * taus) / np.sum(w)),
            1.0 / math.sqrt(np.sum(w)), fits)


def test_slice_fits_match_one_lstsq_per_slice():
    # the slices are fitted in one array pass from per-slice weighted sums;
    # only the summation order differs from a least-squares solve per slice
    cli_grid = (np.linspace(0.0, 3.0, 61), np.linspace(0.0, 2.0, 9))
    cases = [(case, cli_grid, seed) for case in (A, B, C, D)
             for seed in range(5)]
    cases += [(E, (np.linspace(0.0, 3.0, 151), np.linspace(0.0, 2.0, 51)),
               seed) for seed in range(5)]
    cases += [(D, cli_grid, None)]
    for case, (q, dw), seed in cases:
        noise = None if seed is None else NoiseSpec(10 ** 6, seed)
        surf = surface(case, q, dw, noise=noise)
        tau_hat, tau_err, fits = fit_tau_slices(surf)
        ref_hat, ref_err, ref_fits = reference_tau_slices(surf)
        assert tau_hat == pytest.approx(ref_hat, rel=1e-14)
        assert tau_err == pytest.approx(ref_err, rel=1e-14)
        assert [(f.q, f.n_points) for f in fits] == [
            (f.q, f.n_points) for f in ref_fits]
        for f, ref in zip(fits, ref_fits):
            for field in ("slope", "intercept", "slope_err", "intercept_err",
                          "residual_rms"):
                assert getattr(f, field) == pytest.approx(
                    getattr(ref, field), rel=1e-12, abs=1e-13)
    # the same InsufficientDataError, message and all
    failing = [surface(A, np.linspace(0.0, 2.0, 5), np.linspace(0.0, 1.0, 6),
                       emission=Emission.COHERENT),
               surface(E, np.linspace(0.0, 3.0, 13), np.linspace(0.0, 2.0, 9),
                       r_dot=1.0)]
    for surf in failing:
        with pytest.raises(InsufficientDataError) as ref:
            reference_tau_slices(surf)
        with pytest.raises(InsufficientDataError) as new:
            fit_tau_slices(surf)
        assert str(new.value) == str(ref.value)
    assert "slope >= 0 beyond errors at q = 3.0" in str(new.value)


def test_factorization_score_factorized_cases():
    for case in (A, B, C, D):
        surf = surface(case, (0.5, 1.0, 1.5), np.linspace(0.0, 1.0, 9))
        _, _, fits = fit_tau_slices(surf)
        assert factorization_test(fits) > 0.99


def test_factorization_score_shock_case():
    surf = surface(E, (0.5, 1.0, 1.5), np.linspace(0.0, 1.5, 13))
    _, _, fits = fit_tau_slices(surf)
    assert factorization_test(fits) < 0.01
    # slow shock: the slopes converge and the score recovers
    slow = surface(E, (0.5, 1.0, 1.5), np.linspace(0.0, 1.5, 13),
                   r_dot=REFERENCE_RDOT / 100.0)
    _, _, fits = fit_tau_slices(slow)
    assert factorization_test(fits) > 0.5


def test_factorization_needs_two_slices():
    lone = SliceFit(q=1.0, slope=-1.0, intercept=0.0, slope_err=0.0,
                    intercept_err=0.0, residual_rms=0.0, n_points=6)
    with pytest.raises(InsufficientDataError):
        factorization_test([lone])


# --- curvature and radii ----------------------------------------------------

def test_kappa_gaussian_exact_samples():
    samples = exact_phi_samples(A, np.linspace(0.0, 0.15, 16))
    kappa_hat, err = estimate_kappa(samples)
    assert kappa_hat == pytest.approx(2.0, abs=1e-4)
    assert err >= 0.0


def test_kappa_shell_exact_samples():
    samples = exact_phi_samples(B, np.linspace(0.0, 0.15, 16))
    kappa_hat, _ = estimate_kappa(samples)
    assert kappa_hat == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_kappa_flat_curve_is_zero():
    q = np.linspace(0.0, 1.0, 11)
    samples = FormFactorSamples(q=q, phi_hat=np.ones_like(q),
                                phi_err=np.zeros_like(q))
    kappa_hat, _ = estimate_kappa(samples)
    assert kappa_hat == pytest.approx(0.0, abs=1e-12)


def test_kappa_window_too_narrow():
    samples = exact_phi_samples(A, (0.0, 1.0, 2.0))
    with pytest.raises(InsufficientDataError, match="window too narrow"):
        estimate_kappa(samples)


def test_radii_from_kappa_examples():
    radii = radii_from_kappa(2.0)
    assert radii[A] == pytest.approx(1.0)
    assert radii[B] == pytest.approx(math.sqrt(3.0))
    assert radii[C] == pytest.approx(math.sqrt(5.0))
    assert radii[D] == pytest.approx(0.5)
    radii = radii_from_kappa(8.0)
    assert radii[A] == pytest.approx(2.0)
    assert radii[B] == pytest.approx(2.0 * math.sqrt(3.0))
    assert radii[C] == pytest.approx(2.0 * math.sqrt(5.0))
    assert radii[D] == pytest.approx(1.0)


def test_radii_scale_as_sqrt_kappa():
    base = radii_from_kappa(1.5)
    scaled = radii_from_kappa(6.0)
    for case in (A, B, C, D):
        assert scaled[case] == pytest.approx(2.0 * base[case], rel=1e-14)


def test_radii_reject_nonpositive():
    with pytest.raises(ValueError):
        radii_from_kappa(0.0)


# --- shape discrimination ---------------------------------------------------

def test_shape_ranking_noiseless():
    q = np.linspace(0.0, 1.5, 31)  # X up to 3 for kappa = 8
    samples = exact_phi_samples(D, q)
    ranking = shape_discrimination(samples, kappa_hat=8.0)
    assert ranking.entries[0][0] is D
    assert ranking.entries[0][1] < 1e-6
    assert not ranking.indistinguishable
    assert ranking.max_x == pytest.approx(3.0)


def test_shapes_indistinguishable_near_origin():
    q = np.linspace(0.0, 0.3, 16)  # X <= 0.3 for kappa = 2
    samples = exact_phi_samples(A, q)
    ranking = shape_discrimination(samples, kappa_hat=2.0)
    assert ranking.indistinguishable
    assert ranking.max_x < 1.0


def test_shape_separation_under_percent_noise():
    rng = np.random.default_rng(11)
    q = np.linspace(0.0, 3.0 * math.sqrt(5.0), 61)  # X up to 3 for kappa=2/5
    phi = np.array([form_factor(C, 1.0, qi) for qi in q])
    err = np.full_like(q, 0.01)
    noisy = phi + rng.normal(0.0, 0.01, size=q.size)
    samples = FormFactorSamples(q=q, phi_hat=noisy, phi_err=err)
    ranking = shape_discrimination(samples, kappa_hat=0.4)
    assert ranking.entries[0][0] is C
    assert ranking.entries[1][1] - ranking.entries[0][1] > 3.0
    assert not ranking.indistinguishable


# --- chaoticity -------------------------------------------------------------

def test_chaotic_verdict():
    surf = surface(A, np.linspace(0.0, 2.0, 5), np.linspace(0.0, 1.0, 4),
                   noise=NoiseSpec(pairs_per_bin=10 ** 6, seed=3))
    verdict, significance = chaoticity_test(surf)
    assert verdict is Chaoticity.CHAOTIC
    assert significance > 5.0


def test_coherent_verdict():
    surf = surface(A, np.linspace(0.0, 2.0, 5), np.linspace(0.0, 1.0, 4),
                   noise=NoiseSpec(pairs_per_bin=10 ** 6, seed=3),
                   emission=Emission.COHERENT)
    verdict, _ = chaoticity_test(surf)
    assert verdict is Chaoticity.COHERENT


def test_heavy_smearing_is_indeterminate():
    surf = surface(A, np.linspace(0.0, 2.0, 5), np.linspace(0.0, 1.0, 4),
                   smear_dw=10.0)
    verdict, _ = chaoticity_test(surf)
    assert verdict is Chaoticity.INDETERMINATE


def test_no_origin_coverage_error():
    surf = surface(A, np.linspace(1.0, 2.0, 5), np.linspace(0.0, 1.0, 4))
    with pytest.raises(InsufficientDataError, match="origin"):
        chaoticity_test(surf)


def test_no_coherent_false_positives():
    # a coherent source must never be flagged chaotic at the 5 sigma gate
    grid_q = np.linspace(0.0, 2.0, 3)
    grid_dw = (0.0, 0.5)
    for seed in range(100):
        surf = surface(A, grid_q, grid_dw, emission=Emission.COHERENT,
                       noise=NoiseSpec(pairs_per_bin=10 ** 4, seed=seed))
        verdict, _ = chaoticity_test(surf)
        assert verdict is not Chaoticity.CHAOTIC


# --- full pipeline ----------------------------------------------------------

def test_round_trip_noiseless():
    # every static case: tau, kappa, R under the true shape, and the top
    # ranking all come back within 1e-3 relative from noiseless data
    for case in (A, B, C, D):
        kappa = kappa_analytic(case, 1.0)
        scale = math.sqrt(kappa / 2.0)
        q = np.linspace(0.0, 3.0 / scale, 41)
        dw = np.linspace(0.0, 0.12, 7)
        report = fit_surface(surface(case, q, dw))
        assert report.chaoticity is Chaoticity.CHAOTIC
        assert report.tau_hat == pytest.approx(1.0, rel=1e-3)
        assert report.kappa_hat == pytest.approx(kappa, rel=1e-3)
        assert report.radius_by_shape[case] == pytest.approx(1.0, rel=1e-3)
        assert report.shape_ranking.entries[0][0] is case
        assert report.factorization_score > 0.99


def test_scale_equivariance():
    # relabeling q -> q/2 describes a source twice as large: kappa picks up
    # a factor 4, every radius a factor 2, rankings and verdicts unchanged
    q = np.linspace(0.0, 3.0, 41)
    dw = np.linspace(0.0, 0.12, 7)
    small = fit_surface(surface(A, q, dw, R=1.0))
    large = fit_surface(surface(A, q / 2.0, dw, R=2.0))
    assert large.kappa_hat == pytest.approx(4.0 * small.kappa_hat, rel=1e-9)
    for case in (A, B, C, D):
        assert large.radius_by_shape[case] == pytest.approx(
            2.0 * small.radius_by_shape[case], rel=1e-9)
    assert ([c for c, _ in large.shape_ranking.entries]
            == [c for c, _ in small.shape_ranking.entries])
    assert large.chaoticity is small.chaoticity


def test_pipeline_noisy_recovery():
    surf = surface(A, np.linspace(0.0, 3.0, 31), np.linspace(0.0, 2.0, 9),
                   noise=NoiseSpec(pairs_per_bin=10 ** 6, seed=7))
    report = fit_surface(surf)
    assert report.chaoticity is Chaoticity.CHAOTIC
    assert abs(report.tau_hat - 1.0) < 5.0 * report.tau_err
    assert abs(report.kappa_hat - 2.0) < 5.0 * report.kappa_err
    assert report.shape_ranking.entries[0][0] is A


def test_pipeline_coherent_stops_early():
    surf = surface(A, np.linspace(0.0, 2.0, 5), (0.0, 0.5),
                   emission=Emission.COHERENT)
    report = fit_surface(surf)
    assert report.chaoticity is Chaoticity.COHERENT
    assert report.tau_hat is None
    assert report.kappa_hat is None


def test_intercept_route_agrees_with_renormalization():
    # two independent routes to the form factor: slice intercepts vs direct
    # renormalization at the origin slice
    surf = surface(A, np.linspace(0.0, 2.0, 41), np.linspace(0.0, 1.0, 6))
    report = fit_surface(surf)
    direct = report.form_factor
    via_intercepts = report.form_factor_by_intercept
    common = np.isin(direct.q, via_intercepts.q)
    np.testing.assert_allclose(direct.phi_hat[common],
                               via_intercepts.phi_hat, rtol=1e-8)


def test_report_serialization():
    surf = surface(A, np.linspace(0.0, 3.0, 41), np.linspace(0.0, 1.0, 6))
    text = report_to_text(fit_surface(surf))
    assert "chaoticity = chaotic" in text
    assert "tau_hat_ps = " in text
    assert "kappa_hat = " in text
    assert "shape_rank_1 = A" in text
