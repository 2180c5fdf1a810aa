"""Acceptance gate: the ten release criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test enforces the stated tolerance and runtime budget.
"""

import functools
import math
import time

import numpy as np
import pytest

from bubblehbt.cli import main
from bubblehbt.correlators import (correlation, form_factor, kappa_to_radius,
                                   small_q_coefficient)
from bubblehbt.inference import (Chaoticity, chaoticity_test,
                                 factorization_test, fit_surface,
                                 fit_tau_slices)
from bubblehbt.kinematics import C_UM_PER_PS, resolution_ratio
from bubblehbt.oracle import numeric_correlation, numeric_curvature
from bubblehbt.sources import Emission, SourceCase, SourceSpec
from bubblehbt.special_functions import chi2_survival, faddeeva
from bubblehbt.synth import CorrelationSurface, GridSpec, NoiseSpec, generate

A, B, C, D, E = (SourceCase.A_GAUSSIAN, SourceCase.B_SHELL,
                 SourceCase.C_SPHERE, SourceCase.D_EXPONENTIAL,
                 SourceCase.E_EXPANDING_SHOCK)

REFERENCE_RDOT = 2e-4 * C_UM_PER_PS


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {label}")
                raise
            print(f"PASS criterion {number}: {label}")
        return run
    return wrap


@criterion(1, "oracle equivalence, static cases, 20x20 grid, 1e-6 relative")
def test_criterion_1():
    start = time.time()
    qs = np.linspace(0.0, 6.0, 20)
    dws = np.linspace(0.0, 6.0, 20)
    for case in (A, B, C, D):
        spec = SourceSpec(case=case, tau=1.0, R=1.0)
        for q in qs:
            for dw in dws:
                assert correlation(spec, q, dw).c == pytest.approx(
                    numeric_correlation(spec, q, dw).c, rel=1e-6)
    assert time.time() - start < 30.0


@criterion(2, "expanding-shock equivalence, 10x10 grid, 1e-4 relative")
def test_criterion_2():
    start = time.time()
    spec = SourceSpec(case=E, tau=1.0, r_dot=REFERENCE_RDOT)
    for q in np.linspace(0.2, 2.0, 10):
        for dw in np.linspace(0.0, 2.0, 10):
            assert correlation(spec, q, dw).c == pytest.approx(
                numeric_correlation(spec, q, dw).c, rel=1e-4)
    assert time.time() - start < 120.0


@criterion(3, "small-q expansion coefficients, 1e-5 relative")
def test_criterion_3():
    expected = {A: 1.0, B: 1.0 / 3.0, C: 0.2, D: 4.0}
    q = 1e-3
    for case, coeff in expected.items():
        assert small_q_coefficient(case, 1.0) == pytest.approx(coeff,
                                                               rel=1e-12)
        est = (1.0 - form_factor(case, q)) / (q * q)
        assert est == pytest.approx(coeff, rel=1e-5)


@criterion(4, "curvature -> radius round trip, 1e-4")
def test_criterion_4():
    for case in (A, B, C, D):
        kappa, _ = numeric_curvature(
            lambda q: form_factor(case, q), h=1e-2)
        assert kappa_to_radius(case, kappa) == pytest.approx(1.0, abs=1e-4)


def _figure1_rows(tmp_path, rdot_fraction):
    path = tmp_path / f"fig1_{rdot_fraction:g}.csv"
    assert main(["figure1", "--rdot", f"{rdot_fraction:g}",
                 "--out", str(path)]) == 0
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("case"):
                continue
            case, q, dw2, log10_excess = line.split(",")
            rows.append((case, float(q), float(dw2), float(log10_excess)))
    return rows


def _shock_surface_from_rows(rows, rdot_fraction):
    sel = [r for r in rows if r[0] == "E"]
    q = np.array([r[1] for r in sel])
    d_omega = np.sqrt([r[2] for r in sel])
    c = 1.0 + 10.0 ** np.array([r[3] for r in sel])
    spec = SourceSpec(case=E, tau=1.0, r_dot=rdot_fraction * C_UM_PER_PS)
    grid = GridSpec(q_values=tuple(sorted(set(q))),
                    d_omega_values=tuple(sorted(set(d_omega))))
    return CorrelationSurface(q=q, d_omega=d_omega, c_true=c, c_obs=c,
                              sigma=np.zeros_like(c), spec=spec, grid=grid,
                              noise=None, smear_dw=None)


@criterion(5, "figure 1 properties: slopes, origin derivative, parallelism")
def test_criterion_5(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fig1")
    rows = _figure1_rows(tmp_path, 2e-4)
    ln10 = math.log(10.0)
    # Gaussian case: straight parallel lines of slope -1 ps^2
    slopes = []
    for q in sorted({r[1] for r in rows if r[0] == "A"}):
        pts = [(r[2], r[3]) for r in rows if r[0] == "A" and r[1] == q]
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts]) * ln10
        slopes.append(np.polyfit(x, y, 1)[0])
    for s in slopes:
        assert abs(s + 1.0) < 1e-6
    assert max(slopes) - min(slopes) < 1e-9
    # flat-lapse case: curved lines sharing the origin derivative -1 ps^2
    # within 2%, read from the near-origin points (dw^2 <= 0.1)
    for q in sorted({r[1] for r in rows if r[0] == "D"}):
        pts = [(r[2], r[3]) for r in rows
               if r[0] == "D" and r[1] == q and r[2] <= 0.1]
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts]) * ln10
        assert np.polyfit(x, y, 1)[0] == pytest.approx(-1.0, rel=0.02)
    # expanding shock: non-parallel lines, recovering when 100x slower
    _, _, fits = fit_tau_slices(_shock_surface_from_rows(rows, 2e-4))
    assert factorization_test(fits) < 0.01
    slow_rows = _figure1_rows(tmp_path, 2e-6)
    _, _, fits = fit_tau_slices(_shock_surface_from_rows(slow_rows, 2e-6))
    assert factorization_test(fits) > 0.5


@criterion(6, "figure 2 properties: expansion, Gaussian curve, separability")
def test_criterion_6(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fig2")
    path = tmp_path / "fig2.csv"
    assert main(["figure2", "--out", str(path)]) == 0
    curves = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("case"):
                continue
            case, x, phi = line.split(",")
            curves.setdefault(case, []).append((float(x), float(phi)))
    xs = np.array([p[0] for p in curves["A"]])
    for case, pts in curves.items():
        np.testing.assert_array_equal([p[0] for p in pts], xs)
        phi = np.array([p[1] for p in pts])
        # universal small-X expansion
        at = phi[np.argmin(np.abs(xs - 0.01))]
        assert abs(at - (1.0 - 0.01 ** 2)) < 1e-4
        curves[case] = phi
    np.testing.assert_allclose(curves["A"], np.exp(-xs ** 2), rtol=1e-12,
                               atol=1e-12)
    # pairwise chi-square per point at 1% noise: separable over the full
    # range, indistinguishable near the origin
    labels = sorted(curves)
    near = xs <= 0.3
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            diff = (curves[a] - curves[b]) / 0.01
            assert np.mean(diff ** 2) > 3.0
            assert np.mean(diff[near] ** 2) < 1.0


@criterion(7, "end-to-end recovery within 5 standard errors, true shape first")
def test_criterion_7():
    from bubblehbt.correlators import kappa_analytic
    grids = {A: (3.0, 2.0), B: (3.0 * math.sqrt(3), 2.0),
             C: (3.0 * math.sqrt(5), 2.0), D: (1.5, 0.35)}
    for case, (q_max, dw_max) in grids.items():
        start = time.time()
        spec = SourceSpec(case=case, tau=1.0, R=1.0)
        grid = GridSpec(q_values=tuple(np.linspace(0.0, q_max, 31)),
                        d_omega_values=tuple(np.linspace(0.0, dw_max, 9)))
        surf = generate(spec, grid, noise=NoiseSpec(pairs_per_bin=10 ** 6,
                                                    seed=7))
        report = fit_surface(surf)
        assert abs(report.tau_hat - 1.0) < 5.0 * report.tau_err
        r_hat = report.radius_by_shape[case]
        r_err = report.kappa_err / (2.0 * report.kappa_hat) * r_hat
        assert abs(r_hat - 1.0) < 5.0 * r_err
        assert report.shape_ranking.entries[0][0] is case
        assert report.kappa_hat == pytest.approx(kappa_analytic(case, 1.0),
                                                 abs=5.0 * report.kappa_err)
        assert time.time() - start < 60.0


@criterion(8, "chaotic/coherent discrimination and false-positive rate")
def test_criterion_8():
    grid = GridSpec(q_values=(0.0, 0.5, 1.0), d_omega_values=(0.0, 0.5))
    noise = NoiseSpec(pairs_per_bin=10 ** 6, seed=0)
    chaotic = generate(SourceSpec(case=A, tau=1.0, R=1.0), grid, noise=noise)
    verdict, significance = chaoticity_test(chaotic)
    assert verdict is Chaoticity.CHAOTIC
    assert significance > 5.0
    coherent_spec = SourceSpec(case=A, tau=1.0, R=1.0,
                               emission=Emission.COHERENT)
    verdict, _ = chaoticity_test(generate(coherent_spec, grid, noise=noise))
    assert verdict is Chaoticity.COHERENT
    smeared = generate(SourceSpec(case=A, tau=1.0, R=1.0), grid, noise=noise,
                       smear_dw=10.0)
    verdict, _ = chaoticity_test(smeared)
    assert verdict is Chaoticity.INDETERMINATE
    false_positives = 0
    for seed in range(1000):
        surf = generate(coherent_spec, grid,
                        noise=NoiseSpec(pairs_per_bin=10 ** 6, seed=seed))
        verdict, _ = chaoticity_test(surf)
        if verdict is Chaoticity.CHAOTIC:
            false_positives += 1
    assert false_positives == 0


@criterion(9, "energy-resolution ratio below 1e-4 at tau=1 ps, k=40 1/um")
def test_criterion_9():
    assert resolution_ratio(1.0, 40.0) < 1e-4


@criterion(10, "special-function identities and oracle spot checks")
def test_criterion_10():
    for x in np.linspace(0.0, 10.0, 101):
        assert faddeeva(complex(x, 0.0)).real == pytest.approx(
            math.exp(-x * x), rel=1e-10, abs=1e-300)
    rng = np.random.default_rng(17)
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(0, 10))
        lhs = faddeeva(-z) + faddeeva(z)
        rhs = 2.0 * np.exp(-z * z)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs) + 1e-12
    # erfc(x) = Q(1/2, x^2), the chi-square survival at k = 1 and 2 x^2
    assert chi2_survival(1, 0.0) == 1.0
    assert chi2_survival(1, 2.0) == pytest.approx(0.15729921, abs=1e-8)
    w1 = faddeeva(complex(1.0, 0.0))
    assert w1.real == pytest.approx(0.3678794, abs=1e-7)
    assert w1.imag == pytest.approx(0.6071577, abs=1e-7)
    assert faddeeva(complex(0.0, 1.0)).real == pytest.approx(0.4275836,
                                                             abs=1e-7)
