"""Inversion of correlation data.

Every extraction here is linear after a transformation, so plain weighted
linear least squares does all the work, and every fit is solved in closed
form from weighted sums; inference calls no `np.linalg`:

  * tau from the slope of log(C - 1) vs (d_omega)^2 at fixed q, restricted
    to the origin regime tau^2 (d_omega)^2 <= 0.5 so non-Gaussian time
    factors are read through their origin derivative; a q slice is a row
    of the grid's (nq, nw) c_obs matrix, and every slice is fitted in one
    array pass, from each row's weighted sums and the closed-form solution
    of the 2x2 normal equations, returned as the columns of a `SliceFits`;
  * factorization from the chi-square probability that all slice slopes
    share one value (`special_functions.chi2_survival`, so a fit loads no
    scipy of its own);
  * the form factor Phi_hat(q) from the origin slice renormalized to its
    q = 0 point, which cancels the q-independent <T> of a smeared surface;
  * kappa from an even-polynomial fit of Phi_hat near q = 0, solved like
    the slice fits from its five weighted sums and the closed-form solution
    of the 2x2 normal equations; R from the shape-dependent kappa -> R maps;
  * the shape from chi-square ranking of Phi_hat against the four
    rescaled form-factor curves Phi(X);
  * chaotic vs coherent from the significance of the excess at the
    smallest q and |d_omega|; a recorded energy-smearing window makes the
    verdict indeterminate, and a coherent call needs the origin bin.

The inversion reads only what an instrument records: the grid, c_obs, the
pairs per bin N and the smearing window W, never the source's truth.  It
reads c_obs as the grid's (nq, nw) matrix, the layout a CorrelationSurface
guarantees.  The errors of c_obs come from the data,
sqrt(max(c_obs, 1/N)/N), computed only for the bins a stage reads.
Noiseless data carry zero statistical errors; chi-square style scores then
use small floors (1e-6 relative on slopes, 1e-3 absolute on Phi_hat) so
that exact agreement scores as agreement instead of 0/0.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from .correlators import FACTORIZED_CASES, kappa_to_radius, phi_of_X
from .sources import SourceCase
from .special_functions import chi2_survival
from .synth import CorrelationSurface

__all__ = [
    "SliceFits",
    "ShapeRanking",
    "Chaoticity",
    "FitReport",
    "FormFactorSamples",
    "InsufficientDataError",
    "fit_tau_slices",
    "factorization_test",
    "renormalize_at_origin",
    "estimate_kappa",
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
    """Too few usable points to invert, or no origin excess to divide by."""


class Chaoticity(str, Enum):
    CHAOTIC = "chaotic"
    COHERENT = "coherent"
    INDETERMINATE = "indeterminate"


@dataclass
class SliceFits:
    """Weighted linear fits of log(C - 1) against (d_omega)^2 at fixed q,
    as columns: each field holds one entry per slice, in q order."""

    q: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray
    slope_err: np.ndarray
    residual_rms: np.ndarray
    n_points: np.ndarray

    def __len__(self) -> int:
        return self.q.size


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
    tau_per_q: Optional[SliceFits] = None
    factorization_score: Optional[float] = None
    kappa_hat: Optional[float] = None
    kappa_err: Optional[float] = None
    radius_by_shape: Optional[Dict[SourceCase, float]] = None
    shape_ranking: Optional[ShapeRanking] = None


@dataclass
class FormFactorSamples:
    """Renormalized form-factor points Phi_hat(q) with uncertainties."""

    q: np.ndarray
    phi_hat: np.ndarray
    phi_err: np.ndarray


def _fit_even_poly(q: np.ndarray, y: np.ndarray, sigma: np.ndarray
                   ) -> Tuple[float, float]:
    """Weighted fit of y = a q^2 + b q^4 (no constant term): a and var(a),
    solved in closed form from the 2x2 normal equations' weighted sums of
    u = q^2, v = q^4 and y.  Zero errors take the smallest positive one;
    all of them zero give unit weights and var(a) scaled by the residual
    variance over n - 2."""
    u = q * q
    basis = np.array((u, u * u, y))
    noisy = (sigma > 0.0).any()
    if noisy:
        sig = np.where(sigma > 0.0, sigma, sigma[sigma > 0.0].min())
        weighted = basis[:2] / np.square(sig)
    else:
        weighted = basis[:2]
    (suu, suv, suy), (_, svv, svy) = (weighted @ basis.T).tolist()
    det = suu * svv - suv * suv
    a = (svv * suy - suv * svy) / det
    var_a = svv / det
    if not noisy:
        b = (suu * svy - suv * suy) / det
        resid = y - a * u - b * basis[1]
        var_a *= float(resid @ resid) / (q.size - 2)
    return a, var_a


def _errors(c_obs: np.ndarray, surface: CorrelationSurface) -> np.ndarray:
    """Poisson errors of these c_obs values of `surface` from the data,
    sqrt(max(c_obs, 1/N)/N), with an empty bin taken as one pair (in the
    spirit of Baker & Cousins, NIM 221 (1984) 437); zeros without noise."""
    if surface.noise is None:
        return np.zeros_like(c_obs)
    pairs = surface.noise.pairs_per_bin
    return np.sqrt(np.maximum(c_obs, 1.0 / pairs) / pairs)


def _line_fits(x: np.ndarray, y: np.ndarray, w: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted least squares of y = intercept + slope x down each column
    of the (nw, n) y, x the (nw,) abscissae and w the weights, zero off the
    points fitted; solved in closed form from each column's centered
    weighted sums.  Returns slope, intercept and the weighted sum of
    squares of x about its mean, per column.

    Each sum over axis 0 of a C-ordered array, by `sum` or `einsum`, adds
    a column's terms one after another, in d_omega order.
    """
    sw = w.sum(axis=0)
    x_mean = np.einsum("ij,i->j", w, x) / sw
    y_mean = np.einsum("ij,ij->j", w, y) / sw
    dx = x[:, None] - x_mean
    w_dx = w * dx
    sxx = np.einsum("ij,ij->j", w_dx, dx)
    slope = np.einsum("ij,ij->j", w_dx, y - y_mean) / sxx
    return slope, y_mean - slope * x_mean, sxx


def _floored_slope_err(slope: np.ndarray, slope_err: np.ndarray
                       ) -> np.ndarray:
    """slope_err with the floor SLOPE_ERR_FLOOR_REL |mean slope| (or 1 for
    a zero mean) added in quadrature."""
    floor = SLOPE_ERR_FLOOR_REL * (abs(float(slope.mean())) or 1.0) + 1e-12
    return np.hypot(slope_err, floor)


def fit_tau_slices(surface: CorrelationSurface
                   ) -> Tuple[float, float, SliceFits]:
    """(tau_hat, tau_err, per-slice fits) from the log-slope extraction.

    Two passes: a full-range fit pools a rough tau, then each slice is
    refitted over the window tau^2 (d_omega)^2 <= 0.5 so curved (non-
    Gaussian) time factors are read at the origin.  A slice is a row of the
    grid, a q value with at least 3 points whose excess is significant at
    3 sigma; a slice with fewer than 3 of them inside the window keeps them
    all.  The points a slice keeps are one mask, which gives its fit and
    its `n_points` alike.  Each pass fits every slice at once, from sums
    down the columns of the grid's transposed c_obs matrix.
    """
    x = np.square(surface.grid.d_omega_axis)
    # the transpose of the grid's (nq, nw) c_obs matrix, one column per
    # slice, in C order (`compress` keeps it), so that each sum over axis 0
    # adds a slice's points one after another in d_omega order, as a loop
    # over them would
    c_obs = surface.c_obs.reshape(-1, x.size).T.copy()
    excess = c_obs - 1.0
    sig = _errors(c_obs, surface)
    usable = excess > 3.0 * sig
    slices = usable.sum(axis=0) >= 3
    if slices.sum() < 2:
        raise InsufficientDataError("insufficient significant points")
    excess, sig, usable = (a.compress(slices, axis=1)
                           for a in (excess, sig, usable))
    y = np.log(excess, out=np.zeros_like(excess), where=usable)
    noisy = surface.noise is not None
    w = np.where(usable, np.square(excess / sig) if noisy else 1.0, 0.0)
    pooled = float(np.mean(_line_fits(x, y, w)[0]))
    if pooled >= 0.0:
        raise InsufficientDataError(
            "negative slope variance: fitted slopes are non-negative")
    inside = usable & (x <= TAU_WINDOW / (-pooled))[:, None]
    keep = np.where(inside.sum(axis=0) < 3, usable, inside)
    count = keep.sum(axis=0)
    slope, intercept, sxx = _line_fits(x, y, np.where(keep, w, 0.0))
    # the slope error is from the unscaled (X' W X)^-1, and zero for
    # noiseless data (unit weights): a residual-scaled error would conflate
    # model curvature with statistical scatter, which is exactly what the
    # parallelism test must not do
    slope_err = np.sqrt(1.0 / sxx) if noisy else np.zeros_like(slope)
    resid = np.where(keep, y - (intercept + slope * x[:, None]), 0.0)
    rms = np.sqrt(np.einsum("ij,ij->j", resid, resid) / count)
    fits = SliceFits(np.compress(slices, surface.grid.q_axis), slope,
                     intercept, slope_err, rms, count)
    rising = slope >= 0.0
    beyond = rising & (slope > 2.0 * slope_err)
    if beyond.any():
        raise InsufficientDataError(
            "negative slope variance: slope >= 0 beyond errors "
            f"at q = {fits.q[np.argmax(beyond)]}")
    if rising.all():
        raise InsufficientDataError(
            "negative slope variance: no slice has a negative slope")
    # a slope >= 0 within its errors carries no tau information
    taus = np.sqrt(-slope[~rising])
    errs = _floored_slope_err(slope, slope_err)[~rising] / (2.0 * taus)
    w = 1.0 / errs ** 2
    tau_hat = float(np.sum(w * taus) / np.sum(w))
    tau_err = float(1.0 / math.sqrt(np.sum(w)))
    return tau_hat, tau_err, fits


def factorization_test(fits: SliceFits) -> float:
    """Chi-square probability that all slice slopes share one value: near 1
    for factorized sources, near 0 for a non-factorized one."""
    if len(fits) < 2:
        raise InsufficientDataError("need at least 2 slices")
    errs = _floored_slope_err(fits.slope, fits.slope_err)
    w = 1.0 / errs ** 2
    mean = (w * fits.slope).sum() / w.sum()
    chi2 = float((((fits.slope - mean) / errs) ** 2).sum())
    return chi2_survival(len(fits) - 1, chi2)


def origin_slice(surface: CorrelationSurface) -> np.ndarray:
    """Row-major indices of the bins in the grid's column(s) of smallest
    |d_omega|, in q order: both columns on a grid symmetric about 0
    without 0."""
    dw_abs = np.abs(surface.grid.d_omega_axis)
    columns = np.flatnonzero(dw_abs == dw_abs.min())
    rows = np.arange(0, surface.c_obs.size, dw_abs.size)
    return (rows[:, None] + columns).ravel()


def renormalize_at_origin(surface: CorrelationSurface) -> FormFactorSamples:
    """Phi_hat(q) = (c_obs(q) - 1) / (c_obs(0) - 1) along the smallest
    |d_omega| slice; the q-independent <T> (and the 1/2) cancel in the
    ratio.  Phi(0) = 1 is what makes the ratio Phi, so a grid without
    q = 0 raises InsufficientDataError."""
    idx = origin_slice(surface)
    q = surface.q[idx]
    if q[0] != 0.0:
        raise InsufficientDataError("no origin coverage: the grid lacks q = 0")
    c_obs = surface.c_obs[idx]
    excess = c_obs - 1.0
    sig = _errors(c_obs, surface)
    e0, s0 = excess[0], sig[0]
    if e0 <= 3.0 * s0:
        raise InsufficientDataError(
            "cannot renormalize: no significant correlation at origin")
    phi_hat = excess / e0
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(excess != 0.0, sig / excess, 0.0)
    phi_err = np.abs(phi_hat) * np.sqrt(rel ** 2 + (s0 / e0) ** 2)
    phi_err[0] = 0.0  # Phi_hat(q0) = 1 by construction
    return FormFactorSamples(q=q, phi_hat=phi_hat, phi_err=phi_err)


def estimate_kappa(samples: FormFactorSamples) -> Tuple[float, float]:
    """kappa = -Phi''(0) from a weighted fit of Phi_hat = 1 - (kappa/2) q^2
    + c4 q^4 over q with X = sqrt(kappa/2) q <= window, iterated once.
    Noiseless samples (all phi_err zero) are bias-limited: window = 0.25
    keeps the neglected q^6 term below the statistical floors.  Noisy ones
    are variance-limited: window = 0.5.  The window widens to the fourth
    distinct q while that stays within X <= 0.5, and fails past it.  The
    first pass takes kappa from the middle of 2 (1 - Phi_hat) / q^2 at the
    first three positive q; the fit holds at least four distinct q."""
    q, phi, err = samples.q, samples.phi_hat, samples.phi_err
    first = np.flatnonzero(q > 0.0)[:3]
    # the smallest q, then each q that differs from the one below it
    ordered = np.sort(q)
    distinct = (ordered[:1].tolist()
                + ordered[1:][ordered[1:] != ordered[:-1]].tolist())
    if len(distinct) < 4 or first.size < 3:
        raise InsufficientDataError(f"window too narrow: {len(distinct)} "
                                    "distinct q points, the fit needs 4")
    window = 0.5 if (err > 0.0).any() else 0.25
    rough = (2.0 * (1.0 - phi[first]) / q[first] ** 2).tolist()
    kappa = max(0.0, sorted(rough)[1])
    for _ in range(2):
        scale = math.sqrt(kappa / 2.0)  # kappa = 0 selects every q
        x_fourth = distinct[3] * scale
        if x_fourth > 0.5:
            raise InsufficientDataError(
                f"window too narrow: fourth q at X = {x_fourth:.3g} > 0.5")
        sel = q * scale <= max(window, x_fourth)
        a, var_a = _fit_even_poly(q[sel], phi[sel] - 1.0, err[sel])
        kappa_hat = -2.0 * a
        kappa = max(0.0, kappa_hat)
    return kappa_hat, 2.0 * math.sqrt(max(0.0, var_a))


def shape_discrimination(samples: FormFactorSamples,
                         kappa_hat: float) -> ShapeRanking:
    """Rank the four shapes by chi-square per point of Phi_hat against
    Phi(X), X = sqrt(kappa/2) q with the fitted curvature."""
    if not kappa_hat > 0.0:
        raise InsufficientDataError("cannot rescale: non-positive curvature")
    x = samples.q * math.sqrt(kappa_hat / 2.0)
    phi = samples.phi_hat
    err = np.maximum(samples.phi_err, PHI_ERR_FLOOR)
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
    """Verdict on the emission mechanism from the excess at the smallest q
    and |d_omega|.

    A recorded smearing window makes any verdict indeterminate, whatever
    the excess: it is then lambda <T>, and with tau unknown the data fix
    only that product, so no verdict is drawn from a smeared surface.
    Without a window, chaotic needs > 5 sigma excess, which proves
    bunching wherever it is seen.  Coherent needs the excess within 3 sigma
    of zero at the origin bin, q = 0 and d_omega = 0, since a chaotic
    excess can fade to nothing away from it; without that bin a null
    excess raises InsufficientDataError.
    """
    idx = origin_slice(surface)[0]
    c_obs = surface.c_obs[idx]
    excess = float(c_obs - 1.0)
    sig = float(_errors(c_obs, surface))
    if sig > 0.0:
        significance = excess / sig
    else:
        significance = math.inf if excess > 0.0 else 0.0
    if surface.smear_dw is not None:
        return Chaoticity.INDETERMINATE, significance
    if significance > 5.0:
        return Chaoticity.CHAOTIC, significance
    if abs(excess) > 3.0 * sig:
        return Chaoticity.INDETERMINATE, significance
    if surface.q[idx] != 0.0 or surface.d_omega[idx] != 0.0:
        raise InsufficientDataError("no origin coverage")
    return Chaoticity.COHERENT, significance


def fit_surface(surface: CorrelationSurface) -> FitReport:
    """Full inversion pipeline: chaoticity, tau slices, factorization,
    renormalized form factor, curvature, radii, shape ranking.

    A smeared surface gives no tau slices and so no tau or factorization
    score: its excess is (lambda/2) <T> Phi(q) in every column, whose
    d_omega^2 slopes are zero and whose columns are replicas by
    construction, so a slope fitted there is noise."""
    verdict, significance = chaoticity_test(surface)
    report = FitReport(chaoticity=verdict, significance=significance)
    if verdict is Chaoticity.COHERENT:
        return report
    if surface.smear_dw is None:
        try:
            tau_hat, tau_err, fits = fit_tau_slices(surface)
        except InsufficientDataError:
            pass
        else:
            report.tau_hat = tau_hat
            report.tau_err = tau_err
            report.tau_per_q = fits
            report.factorization_score = factorization_test(fits)
    samples = renormalize_at_origin(surface)
    kappa_hat, kappa_err = estimate_kappa(samples)
    report.kappa_hat = kappa_hat
    report.kappa_err = kappa_err
    if kappa_hat > 0.0:
        report.radius_by_shape = {case: kappa_to_radius(case, kappa_hat)
                                  for case in FACTORIZED_CASES}
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
    fits = report.tau_per_q
    if fits is not None:
        lines.extend(
            f"slice q={q:.17g} slope={s:.17g} slope_err={e:.17g} "
            f"intercept={i:.17g} residual_rms={r:.17g} n={n}"
            for q, s, e, i, r, n in zip(*(c.tolist() for c in (
                fits.q, fits.slope, fits.slope_err, fits.intercept,
                fits.residual_rms, fits.n_points))))
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
