"""Calibration of `fit` over seed ensembles (ROADMAP item 3).

Each ensemble is one truth on the CLI-default 61 x 9 grid (q on 0:3:61,
d_omega on 0:2:9), R = 1 um, drawn by `generate` with seeds 1000-1199
and fitted by `fit_surface`.  Its checks, with bounds fixed before any
ensemble was run:

- `raises`: no fit raises InsufficientDataError, since a surface drawn
  from the model the fit assumes must give a report;
- `misses_called_distinct`: a wrong shape ranks first while the report
  calls the shapes distinguishable on at most 21 of 200 surfaces, the
  binomial 99.9% upper limit for a nominal 5% rate;
- each pull, (estimate - truth) / error over the fits that give the
  estimate: |mean| below 0.23, about z(0.9995) / sqrt(200), and sd in
  [0.838, 1.168], the 99.9% interval of sqrt(chi2 / 199) for 199 dof.
  tau is checked on unsmeared surfaces only, where the fit reports it.

A fit that raises counts against `raises`, is no "true shape first" and
gives no pull.  How often the true shape ranks first is reported, not
bounded: it measures power, which has no nominal rate.  A check that
today's fit fails is a strict xfail whose reason names the ROADMAP item
that mends it.  Run as a script, this module prints every ensemble's
numbers: `PYTHONPATH=src python tests/test_calibration.py`.
"""

import functools
from typing import NamedTuple, Optional

import numpy as np
import pytest

from bubblehbt.correlators import kappa_analytic
from bubblehbt.inference import InsufficientDataError, fit_surface
from bubblehbt.sources import SourceSpec
from bubblehbt.synth import GridSpec, NoiseSpec, generate

SEEDS = range(1000, 1200)
GRID = GridSpec(np.linspace(0.0, 3.0, 61), np.linspace(0.0, 2.0, 9))
PULL_MEAN_LIMIT = 0.23
PULL_SD_RANGE = (0.838, 1.168)
MISSES_CALLED_DISTINCT_LIMIT = 21


class Ensemble(NamedTuple):
    case: str
    pairs: int
    smear_dw: Optional[float] = None
    tau: float = 1.0

    def __str__(self):
        name = f"{self.case}-1e{len(str(self.pairs)) - 1}"
        if self.smear_dw is not None:
            name += f"-W{self.smear_dw:g}"
        return name if self.tau == 1.0 else f"{name}-tau{self.tau:g}"


ENSEMBLES = [Ensemble(case, pairs, smear_dw)
             for pairs in (10 ** 6, 10 ** 3) for smear_dw in (None, 20.0)
             for case in "ABCD"] + [Ensemble("D", 10 ** 6, tau=2.0)]


class Outcome(NamedTuple):
    true_shape_first: int
    misses_called_distinct: int
    raised: int
    tau_pulls: np.ndarray
    kappa_pulls: np.ndarray


@functools.lru_cache(maxsize=None)
def outcome(ensemble: Ensemble) -> Outcome:
    spec = SourceSpec(ensemble.case, tau=ensemble.tau, R=1.0)
    kappa = kappa_analytic(spec.case, 1.0)
    first = distinct = raised = 0
    tau_pulls, kappa_pulls = [], []
    for seed in SEEDS:
        surface = generate(spec, GRID, NoiseSpec(ensemble.pairs, seed),
                           ensemble.smear_dw)
        try:
            report = fit_surface(surface)
        except InsufficientDataError:
            raised += 1
            continue
        if report.tau_hat is not None:
            tau_pulls.append((report.tau_hat - spec.tau) / report.tau_err)
        if report.kappa_hat is not None:
            kappa_pulls.append((report.kappa_hat - kappa) / report.kappa_err)
        ranking = report.shape_ranking
        if ranking is not None:
            if ranking.entries[0][0] is spec.case:
                first += 1
            elif not ranking.indistinguishable:
                distinct += 1
    return Outcome(first, distinct, raised, np.array(tau_pulls),
                   np.array(kappa_pulls))


def pull_mean(pulls):
    return pulls.size > 1 and abs(pulls.mean()) < PULL_MEAN_LIMIT


def pull_sd(pulls):
    low, high = PULL_SD_RANGE
    return pulls.size > 1 and low <= pulls.std(ddof=1) <= high


CHECKS = {
    "raises": lambda o: o.raised == 0,
    "misses_called_distinct":
        lambda o: o.misses_called_distinct <= MISSES_CALLED_DISTINCT_LIMIT,
    "tau_pull_mean": lambda o: pull_mean(o.tau_pulls),
    "tau_pull_sd": lambda o: pull_sd(o.tau_pulls),
    "kappa_pull_mean": lambda o: pull_mean(o.kappa_pulls),
    "kappa_pull_sd": lambda o: pull_sd(o.kappa_pulls),
}

def failing(reason, ensembles, checks):
    return {f"{ensemble}-{check}": reason for ensemble in ensembles.split()
            for check in checks.split()}


# today's failures, by test id, each with the ROADMAP item that mends it
FAILING = {
    **failing("item 20: kappa's error from the linear chain's curvature fit",
              "A-1e6 B-1e6 C-1e6 D-1e6 D-1e6-tau2", "kappa_pull_sd"),
    **failing("item 20: the shape ranked by the chain's Phi_hat",
              "B-1e6 C-1e6", "misses_called_distinct"),
    **failing("item 20: the slice chain reads sinc^2's curvature as tau",
              "D-1e6 D-1e6-tau2", "tau_pull_mean"),
    **failing("item 20: past sinc^2's first zero the slice fit takes in "
              "the side lobe", "D-1e6-tau2", "tau_pull_sd"),
    **failing("item 20: 'window too narrow' from a noisy first-pass kappa, "
              "and the chain's biased tau and kappa", "A-1e3 B-1e3 C-1e3 "
              "D-1e3", "raises tau_pull_mean kappa_pull_mean kappa_pull_sd"),
    **failing("item 20: the chain's tau error at 10^3 pairs",
              "A-1e3 B-1e3 C-1e3", "tau_pull_sd"),
    **failing("items 20 and 2: the chain's ranking, called distinct by the "
              "shape_indistinguishable heuristic", "A-1e3 B-1e3 C-1e3 D-1e3",
              "misses_called_distinct"),
    **failing("item 17: a smeared surface renormalized at its one origin "
              "bin, not fitted as its q profile", "A-1e6-W20 B-1e6-W20 "
              "C-1e6-W20 D-1e6-W20", "raises misses_called_distinct "
              "kappa_pull_sd"),
    **failing("item 17: a smeared surface renormalized at its one origin "
              "bin, not fitted as its q profile", "B-1e6-W20 C-1e6-W20 "
              "D-1e6-W20", "kappa_pull_mean"),
    **failing("item 17: 'cannot renormalize' with one origin bin below "
              "3 sigma", "A-1e3-W20 B-1e3-W20 C-1e3-W20 D-1e3-W20",
              "raises kappa_pull_mean kappa_pull_sd"),
}


def cases():
    for ensemble in ENSEMBLES:
        for check in CHECKS:
            if check.startswith("tau") and ensemble.smear_dw is not None:
                continue
            name = f"{ensemble}-{check}"
            marks = [pytest.mark.xfail(reason=FAILING[name], strict=True)
                     ] if name in FAILING else []
            yield pytest.param(ensemble, check, id=name, marks=marks)


def summary(o: Outcome) -> str:
    def pulls(p):
        return (f"{p.mean():+.2f} / {p.std(ddof=1):.2f} ({p.size})"
                if p.size > 1 else "none")
    return (f"first {o.true_shape_first}, misses called distinct "
            f"{o.misses_called_distinct}, raised {o.raised}, tau pull "
            f"{pulls(o.tau_pulls)}, kappa pull {pulls(o.kappa_pulls)}")


@pytest.mark.parametrize("ensemble, check", cases())
def test_calibration(ensemble, check):
    o = outcome(ensemble)
    assert CHECKS[check](o), summary(o)


if __name__ == "__main__":
    for ensemble in ENSEMBLES:
        print(f"{ensemble}: {summary(outcome(ensemble))}")
