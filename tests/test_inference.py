"""Inversion pipeline: slice fits, factorization score, curvature, shape
ranking, chaoticity verdicts, and full round trips on synthetic surfaces."""

import math
from collections import namedtuple

import numpy as np
import pytest

from bubblehbt.correlators import form_factor, kappa_analytic
from bubblehbt.inference import (SLOPE_ERR_FLOOR_REL, TAU_WINDOW,
                                 Chaoticity, FormFactorSamples,
                                 InsufficientDataError, SliceFits,
                                 chaoticity_test, estimate_kappa,
                                 factorization_test, fit_surface,
                                 fit_tau_slices, origin_slice,
                                 renormalize_at_origin, report_to_text,
                                 shape_discrimination)
from bubblehbt.kinematics import C_UM_PER_PS
from bubblehbt.sources import Emission, SourceCase, SourceSpec
from bubblehbt.synth import CorrelationSurface, GridSpec, NoiseSpec, generate

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
    assert fits.slope == pytest.approx(-1.0, rel=1e-10)
    assert (fits.residual_rms < 1e-10).all()
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


def observed_surface(dw_values, excess_of_dw):
    """A noiseless surface with q = 0 and 0.5 whose two slices both observe
    1 + excess_of_dw(d_omega): an observation that no source gives."""
    grid = GridSpec(q_values=(0.0, 0.5), d_omega_values=tuple(dw_values))
    q, dw = grid.points()
    c_obs = 1.0 + excess_of_dw(dw)
    return CorrelationSurface(q=q, d_omega=dw, c_true=c_obs, c_obs=c_obs,
                              sigma=np.zeros_like(c_obs),
                              spec=SourceSpec(case=A, tau=1.0, R=1.0),
                              grid=grid)


def test_rising_excess_has_no_tau():
    # the full-range pass pools a positive slope: no window can follow
    rising = observed_surface((0.0, 0.5, 1.0),
                              lambda dw: 0.1 * np.exp(dw * dw))
    with pytest.raises(InsufficientDataError,
                       match="fitted slopes are non-negative"):
        fit_tau_slices(rising)


def test_flat_window_has_no_tau():
    # a far point falls, so the pooled slope is about -1, but the three
    # points inside the window tau^2 (d_omega)^2 <= 1/2 are flat: log 1 = 0
    # gives every refitted slope exactly 0, which is not beyond its zero
    # noiseless error, and no slice is left with a negative slope
    flat = observed_surface((0.0, 0.1, 0.2, 3.0),
                            lambda dw: np.where(dw < 1.0, 1.0, 1e-4))
    with pytest.raises(InsufficientDataError,
                       match="no slice has a negative slope"):
        fit_tau_slices(flat)


def reference_tau_slices(surf):
    """fit_tau_slices with one np.linalg.lstsq per slice and pass, the error
    of each count n = N c_obs taken as sqrt(max(n, 1))."""
    excess = surf.c_obs - 1.0
    if surf.noise is None:
        sigma = np.zeros_like(excess)
    else:
        pairs = surf.noise.pairs_per_bin
        sigma = np.sqrt(np.maximum(surf.c_obs * pairs, 1.0)) / pairs
    usable = excess > 3.0 * sigma
    Fit = namedtuple("Fit", "q slope intercept slope_err residual_rms n_points")
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
        sig = sigma[idx] / excess[idx]
        noisy = bool((sig > 0.0).any())
        w = 1.0 / sig if noisy else np.ones_like(sig)
        a = np.column_stack([np.ones_like(x), x]) * w[:, None]
        beta = np.linalg.lstsq(a, y * w, rcond=None)[0]
        cov = np.linalg.inv(a.T @ a) if noisy else np.zeros((2, 2))
        rms = math.sqrt(np.mean((y - beta[0] - beta[1] * x) ** 2))
        return Fit(q=float(surf.q[idx[0]]), slope=beta[1], intercept=beta[0],
                   slope_err=math.sqrt(cov[1, 1]), residual_rms=rms,
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
    # the slices, rows of the grid, are fitted in one array pass from
    # weighted sums; only the summation order differs from a least-squares
    # solve per slice
    cli_q, cli_dw = np.linspace(0.0, 3.0, 61), np.linspace(0.0, 2.0, 9)
    pairs = 10 ** 6
    cases = [(case, (cli_q, cli_dw), seed, pairs) for case in (A, B, C, D)
             for seed in range(5)]
    cases += [(E, (np.linspace(0.0, 3.0, 151), np.linspace(0.0, 2.0, 51)),
               seed, pairs) for seed in range(5)]
    cases += [(D, (cli_q, cli_dw), None, None)]
    # d_omega symmetric about 0 without 0: two points share each x
    cases += [(case, (cli_q, np.linspace(-2.0, 2.0, 8)), seed, pairs)
              for case in (A, D) for seed in range(3)]
    cases += [(A, (cli_q, np.linspace(-2.0, 2.0, 8)), None, None)]
    # at 1000 pairs per bin rows have unusable bins among usable ones, and
    # rows with only 1 or 2 usable bins, which are no slice
    sparse = [(case, (cli_q, cli_dw), seed, 1000) for case in (A, B, C, D)
              for seed in range(3)]
    cases += sparse
    cases += [(case, (np.linspace(0.5, 3.0, 26), cli_dw), seed, pairs)
              for case in (A, C) for seed in range(3)]
    gaps = dropped = 0
    for case, (q, dw), seed, n in cases:
        noise = None if seed is None else NoiseSpec(n, seed)
        surf = surface(case, q, dw, noise=noise)
        if n == 1000:
            usable = (surf.c_obs - 1.0 > 3.0 * np.sqrt(surf.c_obs / n)
                      ).reshape(len(q), len(dw))
            count = usable.sum(axis=1)
            dropped += np.count_nonzero((count > 0) & (count < 3))
            last = len(dw) - np.argmax(usable[:, ::-1], axis=1)
            gaps += np.count_nonzero((count > 0) & (count < last))
        tau_hat, tau_err, fits = fit_tau_slices(surf)
        ref_hat, ref_err, ref_fits = reference_tau_slices(surf)
        assert tau_hat == pytest.approx(ref_hat, rel=1e-14)
        assert tau_err == pytest.approx(ref_err, rel=1e-14)
        assert len(fits) == len(ref_fits)
        assert fits.q.tolist() == [f.q for f in ref_fits]
        assert fits.n_points.tolist() == [f.n_points for f in ref_fits]
        for field in ("slope", "intercept", "slope_err", "residual_rms"):
            assert getattr(fits, field) == pytest.approx(
                np.array([getattr(f, field) for f in ref_fits]),
                rel=1e-12, abs=1e-13)
    assert gaps > 0 and dropped > 0
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


def test_origin_slice_is_the_column_of_smallest_abs_d_omega():
    # row-major indices of the bins at the smallest |d_omega|, q by q
    q = (0.0, 1.0, 2.0)
    assert origin_slice(surface(A, q, (-1.0, 0.0, 0.5, 1.0))).tolist() == [
        1, 5, 9]
    # symmetric about 0 without 0: both columns
    assert origin_slice(surface(A, q, (-1.5, -0.5, 0.5, 1.5))).tolist() == [
        1, 2, 5, 6, 9, 10]


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
    lone = SliceFits(q=np.array([1.0]), slope=np.array([-1.0]),
                     intercept=np.zeros(1), slope_err=np.zeros(1),
                     residual_rms=np.zeros(1), n_points=np.array([6]))
    assert len(lone) == 1
    with pytest.raises(InsufficientDataError):
        factorization_test(lone)


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
    with pytest.raises(InsufficientDataError, match="window too narrow: "
                       "3 distinct q points, the fit needs 4"):
        estimate_kappa(samples)


def test_kappa_window_widens_to_fourth_q_up_to_half():
    # case A has kappa = 2, so X = q: the noiseless window 0.25 holds three
    # of these q and widens to the fourth only while X <= 0.5
    kappa_hat, _ = estimate_kappa(exact_phi_samples(A, (0.0, 0.1, 0.2, 0.3)))
    assert kappa_hat == pytest.approx(2.0, rel=1e-3)
    # X = 0.594: the rough first-pass kappa is 1.96
    with pytest.raises(InsufficientDataError,
                       match="window too narrow: fourth q at X = 0.594 > 0.5"):
        estimate_kappa(exact_phi_samples(A, (0.0, 0.1, 0.2, 0.6)))


def test_kappa_window_follows_noise():
    # noiseless samples take the window 0.25, noisy ones 0.5: a point at
    # X = 0.4 enters the fit only when the samples carry errors
    q = np.linspace(0.0, 0.4, 9)
    exact = exact_phi_samples(A, q)
    noisy = FormFactorSamples(q=q, phi_hat=exact.phi_hat,
                              phi_err=np.full_like(q, 1e-3))
    inner = exact_phi_samples(A, q[:6])
    assert estimate_kappa(exact) == estimate_kappa(inner)
    assert estimate_kappa(noisy)[0] != estimate_kappa(exact)[0]


def reference_fit_even_poly(q, y, sigma):
    """estimate_kappa's weighted fit of y = a q^2 + b q^4 by
    np.linalg.lstsq, its covariance by np.linalg.inv."""
    design = np.column_stack([q * q, q ** 4])
    noisy = np.any(sigma > 0.0)
    if noisy:
        w = 1.0 / np.where(sigma > 0.0, sigma, sigma[sigma > 0.0].min())
        a_mat = design * w[:, None]
        b_vec = y * w
    else:
        a_mat = design
        b_vec = y
    beta, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)
    cov = np.linalg.inv(a_mat.T @ a_mat)
    if not noisy:
        resid = y - design @ beta
        dof = len(q) - 2
        s2 = float(resid @ resid) / dof if dof > 0 else 0.0
        cov = cov * s2
    return beta, cov


def reference_estimate_kappa(samples):
    """estimate_kappa with np.unique for the distinct q, np.median for the
    rough first pass and the least-squares solve above."""
    q = np.asarray(samples.q, dtype=float)
    phi = np.asarray(samples.phi_hat, dtype=float)
    err = np.asarray(samples.phi_err, dtype=float)
    pos = q > 0.0
    distinct = np.unique(q)
    if distinct.size < 4 or pos.sum() < 3:
        raise InsufficientDataError(f"window too narrow: {distinct.size} "
                                    "distinct q points, the fit needs 4")
    window = 0.5 if np.any(err > 0.0) else 0.25
    kappa = max(0.0, float(np.median(2.0 * (1.0 - phi[pos][:3])
                                     / q[pos][:3] ** 2)))
    for _ in range(2):
        scale = math.sqrt(kappa / 2.0)  # kappa = 0 selects every q
        x_fourth = float(distinct[3]) * scale
        if x_fourth > 0.5:
            raise InsufficientDataError(
                f"window too narrow: fourth q at X = {x_fourth:.3g} > 0.5")
        sel = q * scale <= max(window, x_fourth)
        beta, cov = reference_fit_even_poly(q[sel], phi[sel] - 1.0, err[sel])
        kappa_hat = -2.0 * float(beta[0])
        kappa = max(0.0, kappa_hat)
    return kappa_hat, 2.0 * math.sqrt(max(0.0, cov[0, 0]))


def test_kappa_matches_the_least_squares_fit():
    # the closed-form solve of the normal equations differs from a
    # least-squares solve by rounding only: kappa_hat and kappa_err within
    # 1e-10 relative (absolute for 0), the same exception and message
    cli_q, cli_dw = np.linspace(0.0, 3.0, 61), np.linspace(0.0, 2.0, 9)
    grids = [(cli_q, cli_dw),
             # d_omega symmetric about 0 without 0: each q twice
             (cli_q, np.linspace(-1.0, 1.0, 2))]
    samples = []
    for case in (A, B, C, D):
        for q, dw in grids:
            samples.append(renormalize_at_origin(surface(case, q, dw)))
            for pairs in (10 ** 3, 10 ** 6):
                for seed in range(6):
                    samples.append(renormalize_at_origin(surface(
                        case, q, dw, noise=NoiseSpec(pairs, seed))))
    # q out of order, each q once or twice: case A noiseless and at 10^6
    # pairs (seed 0) on both grids
    rng = np.random.default_rng(3)
    for base in samples[0], samples[7], samples[13], samples[20]:
        order = rng.permutation(base.q.size)
        samples.append(FormFactorSamples(q=base.q[order],
                                         phi_hat=base.phi_hat[order],
                                         phi_err=base.phi_err[order]))
    flat_q = np.linspace(0.0, 1.0, 11)
    samples.append(FormFactorSamples(q=flat_q, phi_hat=np.ones_like(flat_q),
                                     phi_err=np.zeros_like(flat_q)))
    samples += [exact_phi_samples(A, (0.0, 1.0, 2.0)),
                exact_phi_samples(A, (0.0, 0.1, 0.2, 0.6))]
    fitted, failures = 0, []
    for sample in samples:
        try:
            ref = reference_estimate_kappa(sample)
        except InsufficientDataError as exc:
            with pytest.raises(InsufficientDataError) as new:
                estimate_kappa(sample)
            assert str(new.value) == str(exc)
            failures.append(str(exc))
            continue
        for value, expected in zip(estimate_kappa(sample), ref):
            assert abs(value - expected) <= 1e-10 * (abs(expected) or 1.0)
        fitted += 1
    assert fitted > 80
    assert sum("fourth q at X" in f for f in failures) > 10
    assert sum("distinct q points" in f for f in failures) == 1


def test_fit_calls_no_linalg_unique_or_median(monkeypatch):
    # every fit is solved in closed form from weighted sums
    surfaces = [surface(case, np.linspace(0.0, 3.0, 61), dw, noise=noise)
                for case in (A, D) for dw in (np.linspace(0.0, 2.0, 9),
                                              np.linspace(-2.0, 2.0, 8))
                for noise in (None, NoiseSpec(10 ** 6, 1))]

    def forbidden(*args, **kwargs):
        raise AssertionError("inference called a forbidden numpy function")
    for name in ("lstsq", "inv", "solve", "pinv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for name in ("unique", "median"):
        monkeypatch.setattr(np, name, forbidden)
    for surf in surfaces:
        report = fit_surface(surf)
        assert report.tau_per_q and report.shape_ranking is not None


# --- renormalization at the origin ------------------------------------------

def test_renormalization_cancels_smearing():
    q = np.linspace(0.0, 2.5, 11)
    for case in (A, D):
        surf = surface(case, q, (0.0,), smear_dw=3.0)
        samples = renormalize_at_origin(surf)
        expected = np.array([form_factor(case, 1.0, qi) for qi in q])
        np.testing.assert_allclose(samples.phi_hat, expected, rtol=1e-12)
        assert samples.phi_hat[0] == 1.0


def test_renormalization_rejects_coherent():
    surf = surface(A, (0.0, 0.5, 1.0, 2.0), (0.0, 0.5, 1.0),
                   emission=Emission.COHERENT)
    with pytest.raises(InsufficientDataError, match="cannot renormalize"):
        renormalize_at_origin(surf)


def test_renormalization_error_propagation():
    surf = surface(A, (0.0, 0.5, 1.0, 2.0), (0.0, 0.5, 1.0),
                   noise=NoiseSpec(pairs_per_bin=10 ** 6, seed=9))
    samples = renormalize_at_origin(surf)
    assert samples.phi_err[0] == 0.0
    assert np.all(samples.phi_err[1:] > 0.0)


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
    # any recorded window: with tau unknown, the data fix only lambda <T>,
    # even where W tau < 1
    for smear_dw in (10.0, 0.5):
        surf = surface(A, np.linspace(0.0, 2.0, 5), np.linspace(0.0, 1.0, 4),
                       smear_dw=smear_dw)
        verdict, _ = chaoticity_test(surf)
        assert verdict is Chaoticity.INDETERMINATE


def test_no_origin_coverage_error():
    # an excess off the origin still proves bunching, but without q = 0
    # no Phi_hat, so no kappa, radius or shape, is drawn from it
    surf = surface(A, np.linspace(1.0, 2.0, 5), np.linspace(0.0, 1.0, 4))
    assert chaoticity_test(surf)[0] is Chaoticity.CHAOTIC
    for inversion in (renormalize_at_origin, fit_surface):
        with pytest.raises(InsufficientDataError, match="origin"):
            inversion(surf)
    # a null excess decides nothing without the origin bin, whatever the
    # source: chaotic far out in q or d_omega, or coherent
    noise = NoiseSpec(pairs_per_bin=10 ** 6, seed=4)
    for q, dw, emission in [
            (np.linspace(5.0, 6.0, 5), np.linspace(0.0, 1.0, 4),
             Emission.CHAOTIC),
            (np.linspace(0.0, 1.0, 5), np.linspace(3.0, 4.0, 4),
             Emission.CHAOTIC),
            (np.linspace(1.0, 2.0, 5), np.linspace(0.0, 1.0, 4),
             Emission.COHERENT)]:
        surf = surface(A, q, dw, noise=noise, emission=emission)
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


def fit_or_message(surf):
    try:
        return fit_surface(surf)
    except InsufficientDataError as exc:
        return str(exc)


def test_fit_scales_with_units():
    # tau and R times s on a grid divided by s is the same observation in
    # other units: c_obs is bit-identical (s a power of 2), tau and its
    # error scale by s, kappa and its error by s^2.  The bound leaves room
    # for the absolute 1e-12 in the slope-error floor, which does not scale
    # (3.1e-12 relative on tau_err at most, on A-E and seeds 0-9)
    q, dw = np.linspace(0.0, 3.0, 61), np.linspace(0.0, 2.0, 9)
    for case in (A, B, C, D, E):
        for seed in range(10):
            noise = NoiseSpec(10 ** 6, seed)
            base_surf = surface(case, q, dw, noise=noise)
            base = fit_or_message(base_surf)
            for s in (2.0 ** -3, 2.0 ** 4, 2.0 ** 20):
                # case E keeps r_dot: its radius r_dot t scales with tau
                surf = surface(case, q / s, dw / s, R=s, tau=s, noise=noise)
                assert np.array_equal(surf.c_obs, base_surf.c_obs)
                report = fit_or_message(surf)
                if isinstance(base, str):
                    assert report == base
                    continue
                assert report.chaoticity is base.chaoticity
                for field, power in (("tau_hat", 1), ("tau_err", 1),
                                     ("kappa_hat", 2), ("kappa_err", 2)):
                    value, ref = getattr(report, field), getattr(base, field)
                    assert value == (None if ref is None else pytest.approx(
                        s ** power * ref, rel=1e-10))
                # no ranking for a non-positive curvature (case E here)
                ranking, ref = report.shape_ranking, base.shape_ranking
                assert (ranking is None) is (ref is None)
                if ref is not None:
                    assert ([c for c, _ in ranking.entries]
                            == [c for c, _ in ref.entries])
                    assert ranking.indistinguishable is ref.indistinguishable


def mirrored_in_d_omega(surf):
    """The same observation on the grid with d_omega -> -d_omega: each
    row's values reversed, so the arrays stay row-major over the grid."""
    grid = GridSpec(q_values=surf.grid.q_values,
                    d_omega_values=tuple(-w for w in
                                         reversed(surf.grid.d_omega_values)))
    shape = (len(grid.q_values), len(grid.d_omega_values))
    q, dw = grid.points()
    flip = {name: getattr(surf, name).reshape(shape)[:, ::-1].ravel()
            for name in ("c_true", "c_obs", "sigma")}
    return CorrelationSurface(q=q, d_omega=dw, spec=surf.spec, grid=grid,
                              noise=surf.noise, smear_dw=surf.smear_dw,
                              **flip)


def test_fit_is_unchanged_when_the_grid_is_mirrored_in_d_omega():
    # C depends on d_omega^2 for A-D and is even in d_omega for E, so the
    # mirrored surface is the same observation.  A regenerated one would
    # draw its noise in another order, so the counts are moved instead;
    # the slice sums then run in the other order, hence the 1e-12
    q, dw = np.linspace(0.0, 3.0, 61), np.linspace(0.0, 2.0, 9)
    for case in (A, B, C, D, E):
        for seed in range(20):
            surf = surface(case, q, dw, noise=NoiseSpec(10 ** 6, seed))
            base = fit_or_message(surf)
            report = fit_or_message(mirrored_in_d_omega(surf))
            if isinstance(base, str):
                assert report == base
                continue
            assert report.chaoticity is base.chaoticity
            for field in ("tau_hat", "tau_err", "kappa_hat", "kappa_err",
                          "factorization_score"):
                value, ref = getattr(report, field), getattr(base, field)
                assert value == (None if ref is None else pytest.approx(
                    ref, rel=1e-12)), (case, seed, field)
            ranking, ref = report.shape_ranking, base.shape_ranking
            assert (ranking is None) is (ref is None)
            if ref is not None:
                assert ([c for c, _ in ranking.entries]
                        == [c for c, _ in ref.entries])


def test_pipeline_noisy_recovery():
    surf = surface(A, np.linspace(0.0, 3.0, 31), np.linspace(0.0, 2.0, 9),
                   noise=NoiseSpec(pairs_per_bin=10 ** 6, seed=7))
    report = fit_surface(surf)
    assert report.chaoticity is Chaoticity.CHAOTIC
    assert abs(report.tau_hat - 1.0) < 5.0 * report.tau_err
    assert abs(report.kappa_hat - 2.0) < 5.0 * report.kappa_err
    assert report.shape_ranking.entries[0][0] is A


@pytest.mark.xfail(strict=True, reason="case D's tau is biased by the linear "
                   "slice chain; ROADMAP item 1 replaces it with one fit")
def test_case_d_tau_pull_on_the_cli_default_grid():
    # `synth --case D --pairs-per-bin 1000000 --seed S` then `fit`: both
    # seeds give tau_hat = 1.029 +- 0.0014 ps, a pull of about 20
    pulls = []
    for seed in (2468462032, 347497613):
        report = fit_surface(surface(
            D, np.linspace(0.0, 3.0, 61), np.linspace(0.0, 2.0, 9),
            noise=NoiseSpec(pairs_per_bin=10 ** 6, seed=seed)))
        pulls.append(abs(report.tau_hat - 1.0) / report.tau_err)
    # fit_ensemble's bound on a pull (PULL_LIMIT in perfbench/workloads.py)
    assert max(pulls) <= 10.0, pulls


def test_pipeline_coherent_stops_early():
    surf = surface(A, np.linspace(0.0, 2.0, 5), (0.0, 0.5),
                   emission=Emission.COHERENT)
    report = fit_surface(surf)
    assert report.chaoticity is Chaoticity.COHERENT
    assert report.tau_hat is None
    assert report.kappa_hat is None


def test_report_serialization():
    surf = surface(A, np.linspace(0.0, 3.0, 41), np.linspace(0.0, 1.0, 6))
    text = report_to_text(fit_surface(surf))
    assert "chaoticity = chaotic" in text
    assert "tau_hat_ps = " in text
    assert "kappa_hat = " in text
    assert "shape_rank_1 = A" in text
    # one `slice` line per fitted slice, in q order, and %.17g gives every
    # float back exactly.  On the noisy CLI-default surface the rows at
    # large q hold no significant excess, so the slices are a subset of q
    noisy = surface(A, np.linspace(0.0, 3.0, 61), np.linspace(0.0, 2.0, 9),
                    noise=NoiseSpec(10 ** 6, 5))
    for surf in (surf, noisy):
        report = fit_surface(surf)
        fits = report.tau_per_q
        lines = [line.split()[1:] for line in
                 report_to_text(report).splitlines()
                 if line.startswith("slice ")]
        assert len(lines) == len(fits)
        for i, line in enumerate(lines):
            fields = dict(field.split("=") for field in line)
            assert list(fields) == ["q", "slope", "slope_err", "intercept",
                                    "residual_rms", "n"]
            for key in ("q", "slope", "slope_err", "intercept",
                        "residual_rms"):
                assert float(fields[key]) == getattr(fits, key)[i]
            assert fields["n"].isdigit()
            assert int(fields["n"]) == fits.n_points[i]
    assert len(fits) < 61 and (fits.slope_err > 0.0).all()
