"""The table of mpmath references that tier-1 tests the closed forms
against, and a report of each case E branch's error on it.

    python tools/mpmath_references.py write
    python tools/mpmath_references.py report

`write` computes every reference at 100 digits, checks it against the same
value at 130 digits, and writes tests/data/mpmath_references.csv.  Its rows
are `form,arg0,arg1,value`; each argument is the float the kernel of
`correlators` takes, the value is rounded to 17 significant digits, and a
form of one argument leaves arg1 empty.  The forms:

  - `case_e_excess` at mu = r_dot tau q and y = d_omega tau: a mu grid
    over (0, 1] and mu = 0, against |y| <= 10, and the three points where
    both branches of case E lose every digit (ROADMAP item 6), at
    tau = 1 ps and r_dot = 2e-4 c;
  - `form_factor_A` to `form_factor_D` at x = q R, on a log grid of x up
    to 10 and x = 0, with points on both sides of x = 1e-4 (where sinc
    took a Taylor polynomial before it was one quotient) and of C's series
    switch at 0.5 (and of 1e-2, its former switch);
  - `time_factor_D` at y = d_omega tau, on the same grid with points on
    both sides of sqrt(3) y = 1e-4;
  - `mean_time_factor_A` (the closed form of A-C) and `mean_time_factor_D`
    at t = tau W, on a log grid of t up to 1e3 and t = 0, with points on
    both sides of each Taylor switch (t/2 and sqrt(3) t/2 = 1e-3).

`report` reads the table and prints the worst relative error of
`case_e_excess`, of its direct form and of its series on each band of mu
and |y|, then that of `case_e_excess` with other branch bounds.  Last it
prints each A-D kernel's worst relative error, one line per form: Phi from
`form_factor`, and T and <T> through `excess` at q = 0 and tau = R = 1,
where Phi(0) = 1.  Both run offline; the tests read only the table,
through `read`.
"""

import csv
import math
import os
import sys

import mpmath
import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, os.pardir, "tests", "data",
                     "mpmath_references.csv")
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

from bubblehbt.kinematics import C_UM_PER_PS  # noqa: E402

REFERENCE_RDOT = 2e-4 * C_UM_PER_PS
# mu and |y| of the case E grid.  mu takes a log grid, both sides of 0.01
# (the series switch until ROADMAP item 18) and a step of 0.01 over
# [0.3, 0.7], where the direct form's eps / mu^3 loss meets the series'
# truncation
CASE_E_MU = sorted({*np.geomspace(1e-4, 1.0, 33).tolist(), 1e-8, 1e-6,
                    0.0099, 0.0101,
                    *np.round(np.arange(0.3, 0.7001, 0.01), 2).tolist()})
CASE_E_Y = [0.0, 1e-3, 0.1, *(0.25 * k for k in range(1, 41))]
# (q, d_omega) of the points where both branches cancel, at tau = 1 ps
CASE_E_ONSET = [(0.1, 1e6), (0.0, 1e8), (0.0101 / REFERENCE_RDOT, 1e4)]
# x = q R of the form factors and y = d_omega tau of D's time factor, and
# t = tau W of the box averages: log grids, 0, and both sides of each switch
# (C's at 0.5, and at 1e-2, where it was until its series reached x^12) and
# of sinc's argument 1e-4, where sinc took a Taylor polynomial until it was
# one quotient
SINC_FORMER_SWITCH = 1e-4
X_GRID = sorted({0.0, *np.geomspace(1e-6, 10.0, 71).tolist(),
                 *(f * SINC_FORMER_SWITCH for f in (0.99, 1.0, 1.01)),
                 *(f * 1e-2 for f in (0.99, 1.0, 1.01, 1.07)),
                 *(f * 0.5 for f in (0.99, 1.0, 1.01))})
Y_GRID = sorted({*X_GRID, *(f * SINC_FORMER_SWITCH / math.sqrt(3.0)
                            for f in (0.99, 1.0, 1.01))})
T_GRID = sorted({0.0, *np.geomspace(1e-6, 1e3, 91).tolist(),
                 *(f * 2e-3 for f in (0.99, 1.0, 1.01)),
                 *(f * 2e-3 / math.sqrt(3.0) for f in (0.99, 1.0, 1.01))})


def case_e_excess(mu, y):
    """(1/2) |F/F(0,0)|^2 at mpmath's precision: for mu > 0 the direct
    form 9 |I|^2 / (8 mu^6) with w(x) = exp(-x^2) (1 + i erfi(x)) on the
    real axis; at mu = 0 its limit (1/2) |2 M_3|^2, with M_n from the
    recurrence on M_0 = (sqrt(pi)/2) exp(-y^2/4) (1 + i erfi(y/2))."""
    mu, y = mpmath.mpf(mu), mpmath.mpf(y)
    if mu == 0:
        m = [mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-y * y / 4)
             * mpmath.mpc(1, mpmath.erfi(y / 2))]
        m.append((1j * y * m[0] + 1) / 2)
        for n in (2, 3):
            m.append((1j * y * m[n - 1] + (n - 1) * m[n - 2]) / 2)
        return abs(2 * m[3]) ** 2 / 2

    def w(x):
        return mpmath.exp(-x * x) * mpmath.mpc(1, mpmath.erfi(x))

    z_plus, z_minus = (y + mu) / 2, (y - mu) / 2
    i_value = (-1j * mpmath.sqrt(mpmath.pi)
               * ((1 + mu * z_plus) * w(z_plus)
                  - (1 - mu * z_minus) * w(z_minus)) - 2 * mu)
    return 9 * abs(i_value) ** 2 / (8 * mu ** 6)


def case_e_points():
    """(mu, y) of every case E row, each the float the closed form sees."""
    points = [(mu, y) for mu in [0.0, *CASE_E_MU] for y in CASE_E_Y]
    # excess computes mu = (r_dot tau) q, here with tau = 1
    points += [(REFERENCE_RDOT * 1.0 * q, d_omega)
               for q, d_omega in CASE_E_ONSET]
    return points


def sinc(x):
    return mpmath.sin(x) / x if x else mpmath.mpf(1)


def sphere(x):
    """3 (sin x - x cos x) / x^3, 1 at x = 0."""
    if not x:
        return mpmath.mpf(1)
    return 3 * (mpmath.sin(x) - x * mpmath.cos(x)) / x ** 3


def mean_gaussian(t):
    """sqrt(pi) erf(x) / (2 x) at x = t/2, 1 at t = 0."""
    x = mpmath.mpf(t) / 2
    if not x:
        return mpmath.mpf(1)
    return mpmath.sqrt(mpmath.pi) * mpmath.erf(x) / (2 * x)


def mean_sinc2(t):
    """(Si(2y) - sin^2(y) / y) / y at y = sqrt(3) t / 2, 1 at t = 0."""
    y = mpmath.sqrt(3) * mpmath.mpf(t) / 2
    if not y:
        return mpmath.mpf(1)
    return (mpmath.si(2 * y) - mpmath.sin(y) ** 2 / y) / y


# the one-argument forms: the closed form at mpmath's precision, and the
# arguments of its rows
KERNELS = {
    "form_factor_A": (lambda x: mpmath.exp(-mpmath.mpf(x) ** 2), X_GRID),
    "form_factor_B": (lambda x: sinc(mpmath.mpf(x)) ** 2, X_GRID),
    "form_factor_C": (lambda x: sphere(mpmath.mpf(x)) ** 2, X_GRID),
    "form_factor_D": (lambda x: (1 + mpmath.mpf(x) ** 2) ** -4, X_GRID),
    "time_factor_D": (lambda y: sinc(mpmath.sqrt(3) * mpmath.mpf(y)) ** 2,
                      Y_GRID),
    "mean_time_factor_A": (mean_gaussian, T_GRID),
    "mean_time_factor_D": (mean_sinc2, T_GRID),
}


def reference(form, *args):
    # case E's direct form loses about 3 log10(1/mu) digits, its
    # recurrence at mu = 0 about 6 log10|y|, and C's form factor about
    # 2 log10(1/x), to cancellation
    with mpmath.workdps(100):
        value = form(*args)
    with mpmath.workdps(130):
        check = form(*args)
    assert abs(value - check) <= mpmath.mpf(10) ** -30 * abs(check), args
    return mpmath.nstr(value, 17, min_fixed=1, max_fixed=0)


def write():
    os.makedirs(os.path.dirname(TABLE), exist_ok=True)
    with open(TABLE, "w", newline="") as fh:
        fh.write("# mpmath references at 100 digits (130 agree to 1e-30),\n"
                 "# written by tools/mpmath_references.py\n")
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["form", "arg0", "arg1", "value"])
        for mu, y in case_e_points():
            out.writerow(["case_e_excess", repr(mu), repr(y),
                          reference(case_e_excess, mu, y)])
        for name, (form, grid) in KERNELS.items():
            for arg in grid:
                out.writerow([name, repr(arg), "", reference(form, arg)])


def read(form):
    """The (arg0, arg1, value) arrays of the table's rows of `form`; an
    empty arg1 reads as NaN."""
    with open(TABLE) as fh:
        rows = [row for row in csv.DictReader(
            line for line in fh if not line.startswith("#"))
            if row["form"] == form]
    return tuple(np.array([float(row[key] or "nan") for row in rows])
                 for key in ("arg0", "arg1", "value"))


def report():
    from bubblehbt import correlators
    from bubblehbt.sources import SourceCase, SourceSpec

    mu, y, value = read("case_e_excess")
    keep = np.abs(y) <= 10.0
    mu, y, value = mu[keep], y[keep], value[keep]
    with np.errstate(all="ignore"):
        columns = {
            "case_e_excess": correlators.case_e_excess(mu, y),
            "direct": np.where(mu > 0.0,
                               correlators._case_e_direct(y, mu), np.nan),
            "series": correlators._case_e_series(y, mu),
        }
    mu_edges = [0.0, 1e-4, 0.0101, 0.1, 0.2, 0.3, 0.4, 0.5, 0.55, 0.6, 0.7,
                1.0]
    y_edges = [0.0, 2.0, 5.0, 7.5, 10.0]
    print("worst relative error against the table; rows: mu band, "
          "columns: |y| band")
    for name, got in columns.items():
        rel = np.abs(got - value) / value
        print(f"\n{name}")
        print(" " * 20 + "".join(f"  |y|<={hi:<6g}" for hi in y_edges[1:]))
        for lo, hi in zip(mu_edges, mu_edges[1:]):
            in_mu = (mu > lo) & (mu <= hi) if lo else mu <= hi
            cells = []
            for y_lo, y_hi in zip(y_edges, y_edges[1:]):
                band = in_mu & (np.abs(y) <= y_hi) & (
                    (np.abs(y) > y_lo) if y_lo else True)
                worst = np.nanmax(rel[band]) if np.isfinite(
                    rel[band]).any() else math.nan
                cells.append(f"  {worst:<10.2g}")
            print(f"mu in ({lo:g}, {hi:g}]".ljust(20) + "".join(cells))
    print("\nworst relative error of case_e_excess with other bounds")
    series_max, product_max = (correlators.MU_SERIES_MAX,
                               correlators.MU_Y_SERIES_MAX)
    for correlators.MU_SERIES_MAX in (0.45, 0.5, 0.55, 0.6):
        for correlators.MU_Y_SERIES_MAX in (2.0, 2.5, 3.0, 4.0, 5.0):
            with np.errstate(all="ignore"):
                got = correlators.case_e_excess(mu, y)
            rel = np.abs(got - value) / value
            print(f"MU_SERIES_MAX = {correlators.MU_SERIES_MAX:<5g}"
                  f"MU_Y_SERIES_MAX = {correlators.MU_Y_SERIES_MAX:<4g}"
                  f"|y| <= 5: {rel[np.abs(y) <= 5.0].max():.2g}, "
                  f"|y| <= 10: {rel.max():.2g}")
    correlators.MU_SERIES_MAX, correlators.MU_Y_SERIES_MAX = (series_max,
                                                              product_max)
    print("\nworst relative error of each A-D kernel, point by point")
    for name in KERNELS:
        # form_factor_A is Phi of SourceCase("A"); T and <T> are twice the
        # excess at q = 0 and unit scale, and a window of width 0 is none
        case = SourceCase(name[-1])
        unit = SourceSpec(case=case, tau=1.0, R=1.0)
        kernel = {
            "form": lambda a: correlators.form_factor(case, a),
            "time": lambda a: 2.0 * correlators.excess(unit, 0.0, a),
            "mean": lambda a: 2.0 * correlators.excess(
                unit, 0.0, 0.0, smear_dw=a or None),
        }[name.split("_")[0]]
        arg, _, value = read(name)
        got = np.array([kernel(a) for a in arg.tolist()])
        rel = np.abs(got - value) / value
        worst = int(np.argmax(rel))
        print(f"{name:<20}{rel[worst]:.2g} at {arg[worst]:.6g}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["write"]:
        write()
    elif sys.argv[1:2] == ["report"]:
        report()
    else:
        sys.exit(__doc__)
