"""Inversion of correlation data.

Every extraction here is linear after a transformation, so plain weighted
linear least squares does all the work:

  * tau from the slope of log(C - 1) vs (d_omega)^2 at fixed q, restricted
    to the origin regime tau^2 (d_omega)^2 <= 0.5 so non-Gaussian time
    factors are read through their origin derivative; every q slice is
    fitted in one array pass, from per-slice weighted sums (np.bincount)
    and the closed-form solution of the 2x2 normal equations;
  * factorization from the chi-square probability that all slice slopes
    share one value;
  * kappa from an even-polynomial fit of Phi_hat near q = 0, R from the
    shape-dependent kappa -> R maps;
  * the shape from chi-square ranking of Phi_hat against the four
    rescaled form-factor curves Phi(X);
  * chaotic vs coherent from the significance of the origin excess, with
    heavy energy smearing (delta_omega * tau >= 1) downgrading the verdict
    to indeterminate.

Noiseless data carry zero statistical errors; chi-square style scores then
use small floors (1e-6 relative on slopes, 1e-3 absolute on Phi_hat) so
that exact agreement scores as agreement instead of 0/0.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import special

from .correlators import FACTORIZED_CASES, kappa_to_radius, phi_of_X
from .sources import SourceCase
from .synth import (CorrelationSurface, FormFactorSamples, origin_slice,
                    renormalize_at_origin)

__all__ = [
    "SliceFit",
    "ShapeRanking",
    "Chaoticity",
    "FitReport",
    "InsufficientDataError",
    "fit_tau_slices",
    "factorization_test",
    "estimate_kappa",
    "radii_from_kappa",
    "shape_discrimination",
    "chaoticity_test",
    "fit_surface",
    "report_to_text",
]

# Origin-derivative fitting window in tau^2 (d_omega)^2; keeps the quartic
# bias of the sinc^2 time factor under 2% in tau.
TAU_WINDOW = 0.5

# Floors applied to zero statistical errors on noiseless data.
SLOPE_ERR_FLOOR_REL = 1e-6
PHI_ERR_FLOOR = 1e-3


class InsufficientDataError(ValueError):
    pass


class Chaoticity(str, Enum):
    CHAOTIC = "chaotic"
    COHERENT = "coherent"
    INDETERMINATE = "indeterminate"


@dataclass
class SliceFit:
    """Weighted linear fit of log(C - 1) against (d_omega)^2 at fixed q."""

    q: float
    slope: float
    intercept: float
    slope_err: float
    intercept_err: float
    residual_rms: float
    n_points: int


@dataclass
class ShapeRanking:
    """Cases ranked by chi-square per point of Phi_hat against Phi(X)."""

    entries: List[Tuple[SourceCase, float]]
    indistinguishable: bool
    max_x: float


@dataclass
class FitReport:
    chaoticity: Chaoticity
    significance: float
    tau_hat: Optional[float] = None
    tau_err: Optional[float] = None
    tau_per_q: Optional[List[SliceFit]] = None
    factorization_score: Optional[float] = None
    kappa_hat: Optional[float] = None
    kappa_err: Optional[float] = None
    radius_by_shape: Optional[Dict[SourceCase, float]] = None
    shape_ranking: Optional[ShapeRanking] = None
    form_factor: Optional[FormFactorSamples] = None
    form_factor_by_intercept: Optional[FormFactorSamples] = None


def _fit_even_poly(q: np.ndarray, y: np.ndarray, sigma: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted fit of y = a q^2 + b q^4 (no constant term)."""
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


def _line_fits(x: np.ndarray, y: np.ndarray, w: np.ndarray,
               noisy: np.ndarray, g: np.ndarray, n: int
               ) -> Tuple[np.ndarray, ...]:
    """Weighted least squares of y = intercept + slope x in each of the n
    groups that g labels, solved in closed form from each group's centered
    weighted sums.

    Returns slope, intercept, their errors, the unweighted residual RMS and
    the point count per group.  The errors are from the unscaled
    (X' W X)^-1, and zero for a noiseless group (unit weights): residual-
    scaled errors would conflate model curvature with statistical scatter,
    which is exactly what the parallelism test must not do.
    """
    sw = np.bincount(g, w, n)
    x_mean = np.bincount(g, w * x, n) / sw
    y_mean = np.bincount(g, w * y, n) / sw
    dx = x - x_mean[g]
    sxx = np.bincount(g, w * dx * dx, n)
    slope = np.bincount(g, w * dx * (y - y_mean[g]), n) / sxx
    intercept = y_mean - slope * x_mean
    count = np.bincount(g, minlength=n)
    resid = y - (intercept[g] + slope[g] * x)
    rms = np.sqrt(np.bincount(g, resid * resid, n) / count)
    slope_err = np.sqrt(np.where(noisy, 1.0 / sxx, 0.0))
    intercept_err = np.sqrt(np.where(noisy, 1.0 / sw + x_mean ** 2 / sxx, 0.0))
    return slope, intercept, slope_err, intercept_err, rms, count


def _floored_slope_err(slope_err: np.ndarray, scale: float) -> np.ndarray:
    floor = SLOPE_ERR_FLOOR_REL * scale + 1e-12
    return np.hypot(slope_err, floor)


def fit_tau_slices(surface: CorrelationSurface
                   ) -> Tuple[float, float, List[SliceFit]]:
    """(tau_hat, tau_err, per-slice fits) from the log-slope extraction.

    Two passes: a full-range fit pools a rough tau, then each slice is
    refitted over the window tau^2 (d_omega)^2 <= 0.5 so curved (non-
    Gaussian) time factors are read at the origin.  A slice is a q value
    with at least 3 points whose excess is significant at 3 sigma; a slice
    with fewer than 3 of them inside the window keeps them all.  Each pass
    fits every slice at once.
    """
    excess = surface.c_obs - 1.0
    usable = excess > 3.0 * surface.sigma
    _, g, count = np.unique(surface.q[usable], return_inverse=True,
                            return_counts=True)
    usable[usable] = count[g] >= 3
    q_values, g = np.unique(surface.q[usable], return_inverse=True)
    n = q_values.size
    if n < 2:
        raise InsufficientDataError("insufficient significant points")
    excess = excess[usable]
    x = np.square(surface.d_omega[usable])
    y = np.log(excess)
    sig = surface.sigma[usable] / excess
    noisy = np.bincount(g, sig > 0.0, n) > 0
    w = np.divide(1.0, np.square(sig), out=np.ones_like(sig), where=sig > 0.0)
    pooled = float(np.mean(_line_fits(x, y, w, noisy, g, n)[0]))
    if pooled >= 0.0:
        raise InsufficientDataError(
            "negative slope variance: fitted slopes are non-negative")
    inside = x <= TAU_WINDOW / (-pooled)
    keep = inside | (np.bincount(g, inside, n) < 3)[g]
    columns = _line_fits(x[keep], y[keep], w[keep], noisy, g[keep], n)
    slope, _, slope_err = columns[:3]
    fits = [SliceFit(*row) for row in zip(
        q_values.tolist(), *(c.tolist() for c in columns))]
    rising = slope >= 0.0
    beyond = rising & (slope > 2.0 * slope_err)
    if beyond.any():
        raise InsufficientDataError(
            "negative slope variance: slope >= 0 beyond errors "
            f"at q = {fits[np.argmax(beyond)].q}")
    if rising.all():
        raise InsufficientDataError(
            "negative slope variance: no slice has a negative slope")
    slope_scale = abs(float(np.mean(slope))) or 1.0
    # a slope >= 0 within its errors carries no tau information
    taus = np.sqrt(-slope[~rising])
    errs = _floored_slope_err(slope_err[~rising], slope_scale) / (2.0 * taus)
    w = 1.0 / errs ** 2
    tau_hat = float(np.sum(w * taus) / np.sum(w))
    tau_err = float(1.0 / math.sqrt(np.sum(w)))
    return tau_hat, tau_err, fits


def factorization_test(tau_per_q: List[SliceFit]) -> float:
    """Chi-square probability that all slice slopes share one value: near 1
    for factorized sources, near 0 for a non-factorized one."""
    if len(tau_per_q) < 2:
        raise InsufficientDataError("need at least 2 slices")
    slopes = np.asarray([f.slope for f in tau_per_q])
    scale = abs(float(np.mean(slopes))) or 1.0
    errs = _floored_slope_err(np.asarray([f.slope_err for f in tau_per_q]),
                              scale)
    w = 1.0 / errs ** 2
    mean = np.sum(w * slopes) / np.sum(w)
    chi2 = float(np.sum(((slopes - mean) / errs) ** 2))
    return float(special.chdtrc(len(tau_per_q) - 1, chi2))


def estimate_kappa(samples: FormFactorSamples,
                   window: float = 0.5) -> Tuple[float, float]:
    """kappa = -Phi''(0) from a weighted fit of Phi_hat = 1 - (kappa/2) q^2
    + c4 q^4 over points with sqrt(kappa/2) q <= window, iterated once."""
    q = np.asarray(samples.q, dtype=float)
    phi = np.asarray(samples.phi_hat, dtype=float)
    err = np.asarray(samples.phi_err, dtype=float)
    pos = q > 0.0
    if pos.sum() < 3:
        raise InsufficientDataError("window too narrow: too few q points")
    qp = q[pos][:3]
    rough = np.median(2.0 * (1.0 - phi[pos][:3]) / qp ** 2)
    kappa = max(0.0, float(rough))
    result = (0.0, 0.0)
    for _ in range(2):
        if kappa > 0.0:
            sel = q * math.sqrt(kappa / 2.0) <= window
        else:
            sel = np.ones_like(q, dtype=bool)
        if sel.sum() < 4:
            raise InsufficientDataError("window too narrow")
        beta, cov = _fit_even_poly(q[sel], phi[sel] - 1.0, err[sel])
        kappa_hat = -2.0 * float(beta[0])
        kappa_err = 2.0 * math.sqrt(max(0.0, cov[0, 0]))
        result = (kappa_hat, kappa_err)
        kappa = max(0.0, kappa_hat)
    return result


def radii_from_kappa(kappa_hat: float) -> Dict[SourceCase, float]:
    """R under each of the four shape hypotheses."""
    if not kappa_hat > 0.0:
        raise ValueError("kappa must be positive")
    return {case: kappa_to_radius(case, kappa_hat)
            for case in FACTORIZED_CASES}


def shape_discrimination(samples: FormFactorSamples,
                         kappa_hat: Optional[float] = None) -> ShapeRanking:
    """Rank the four shapes by chi-square per point of Phi_hat against
    Phi(X), X = sqrt(kappa/2) q with the fitted curvature."""
    if kappa_hat is None:
        kappa_hat, _ = estimate_kappa(samples)
    if not kappa_hat > 0.0:
        raise InsufficientDataError("cannot rescale: non-positive curvature")
    x = np.asarray(samples.q) * math.sqrt(kappa_hat / 2.0)
    phi = np.asarray(samples.phi_hat)
    err = np.maximum(np.asarray(samples.phi_err), PHI_ERR_FLOOR)
    entries = []
    for case in FACTORIZED_CASES:
        chi2 = float(np.mean(((phi - phi_of_X(case, x)) / err) ** 2))
        entries.append((case, chi2))
    entries.sort(key=lambda e: (e[1], e[0].value))
    chis = [c for _, c in entries]
    max_x = float(x.max())
    # shapes only separate with a wide X range; near the origin all four
    # curves coincide through O(X^2)
    indistinct = (max_x < 1.0) or (chis[-1] - chis[0] < 1.0)
    return ShapeRanking(entries=entries, indistinguishable=indistinct,
                        max_x=max_x)


def chaoticity_test(surface: CorrelationSurface) -> Tuple[Chaoticity, float]:
    """Verdict on the emission mechanism from the origin excess.

    Chaotic needs > 5 sigma excess; coherent needs the excess within 3 sigma
    of zero; heavy recorded smearing (delta_omega * tau >= 1) makes any
    verdict indeterminate since <T> can suppress a chaotic excess below the
    discrimination floor.
    """
    spec = surface.spec
    if spec.R is not None and surface.q.min() * spec.R > 0.5:
        raise InsufficientDataError("no origin coverage")
    idx = origin_slice(surface)[0]
    excess = float(surface.c_obs[idx] - 1.0)
    sig = float(surface.sigma[idx])
    if sig > 0.0:
        significance = excess / sig
    else:
        significance = math.inf if excess > 0.0 else 0.0
    smear = surface.smear_dw or 0.0
    if smear * spec.tau >= 1.0:
        return Chaoticity.INDETERMINATE, significance
    if significance > 5.0:
        return Chaoticity.CHAOTIC, significance
    if abs(excess) <= 3.0 * sig:
        return Chaoticity.COHERENT, significance
    return Chaoticity.INDETERMINATE, significance


def _phi_from_intercepts(fits: List[SliceFit]) -> FormFactorSamples:
    """Cross-check route: Phi from the slice intercepts log((1/2) <T> Phi),
    normalized to the smallest-q slice."""
    fits = sorted(fits, key=lambda f: f.q)
    q = np.asarray([f.q for f in fits])
    logphi = np.asarray([f.intercept for f in fits])
    errs = np.asarray([f.intercept_err for f in fits])
    phi = np.exp(logphi - logphi[0])
    err = phi * np.hypot(errs, errs[0])
    err[0] = 0.0
    return FormFactorSamples(q=q, phi_hat=phi, phi_err=err)


def fit_surface(surface: CorrelationSurface) -> FitReport:
    """Full inversion pipeline: chaoticity, tau slices, factorization,
    renormalized form factor, curvature, radii, shape ranking."""
    verdict, significance = chaoticity_test(surface)
    report = FitReport(chaoticity=verdict, significance=significance)
    if verdict is Chaoticity.COHERENT:
        return report
    try:
        tau_hat, tau_err, fits = fit_tau_slices(surface)
    except InsufficientDataError:
        fits = None
    else:
        report.tau_hat = tau_hat
        report.tau_err = tau_err
        report.tau_per_q = fits
        report.factorization_score = factorization_test(fits)
        report.form_factor_by_intercept = _phi_from_intercepts(fits)
    samples = renormalize_at_origin(surface)
    report.form_factor = samples
    # noiseless data is bias-limited: shrink the curvature window so the
    # neglected q^6 term stays below the statistical floors; noisy data is
    # variance-limited and keeps the default window
    window = 0.5 if np.any(surface.sigma > 0.0) else 0.25
    kappa_hat, kappa_err = estimate_kappa(samples, window=window)
    report.kappa_hat = kappa_hat
    report.kappa_err = kappa_err
    if kappa_hat > 0.0:
        report.radius_by_shape = radii_from_kappa(kappa_hat)
        report.shape_ranking = shape_discrimination(samples, kappa_hat)
    return report


def report_to_text(report: FitReport) -> str:
    """key = value serialization of a FitReport."""
    lines = [
        f"chaoticity = {report.chaoticity.value}",
        f"significance = {report.significance:.6g}",
    ]
    if report.tau_hat is not None:
        lines.append(f"tau_hat_ps = {report.tau_hat:.17g}")
        lines.append(f"tau_err_ps = {report.tau_err:.17g}")
    if report.factorization_score is not None:
        lines.append(f"factorization_score = {report.factorization_score:.17g}")
    if report.tau_per_q:
        for f in report.tau_per_q:
            lines.append(
                f"slice q={f.q:.17g} slope={f.slope:.17g} "
                f"slope_err={f.slope_err:.17g} intercept={f.intercept:.17g} "
                f"residual_rms={f.residual_rms:.17g} n={f.n_points}")
    if report.kappa_hat is not None:
        lines.append(f"kappa_hat = {report.kappa_hat:.17g}")
        lines.append(f"kappa_err = {report.kappa_err:.17g}")
    if report.radius_by_shape:
        for case, radius in report.radius_by_shape.items():
            lines.append(f"radius_{case.value}_um = {radius:.17g}")
    if report.shape_ranking:
        for rank, (case, chi2) in enumerate(report.shape_ranking.entries, 1):
            lines.append(f"shape_rank_{rank} = {case.value} "
                         f"chi2_per_point = {chi2:.6g}")
        lines.append("shape_indistinguishable = "
                     f"{str(report.shape_ranking.indistinguishable).lower()}")
        lines.append(f"shape_max_X = {report.shape_ranking.max_x:.6g}")
    return "\n".join(lines) + "\n"
