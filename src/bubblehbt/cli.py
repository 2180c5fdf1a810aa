"""Command-line front end.

Subcommands:

    eval     print C for one (case, q, d_omega)
    check    analytic vs quadrature-oracle values over a grid
    synth    write a synthetic correlation surface CSV
    fit      invert a surface CSV into a fit report
    figure1  plot data: log10(C - 1) vs (d_omega)^2 for cases A, D, E
             at q in {0.5, 1.0, 1.5} 1/um (tau = 1 ps, R = 1 um,
             Rdot = 2e-4 c by default)
    figure2  plot data: the four rescaled form factors Phi(X), X in [0, 3]

All quantities use fixed units: q in 1/um, d_omega in 1/ps, R in um, tau in
ps; --rdot is a fraction of c.  CSV outputs start with '#'-prefixed
key = value metadata lines sufficient to regenerate them.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

import argparse
import io
import math
import sys
from typing import List, Optional

import numpy as np

from .correlators import FACTORIZED_CASES, correlation, phi_of_X
from .inference import InsufficientDataError, fit_surface, report_to_text
from .kinematics import C_UM_PER_PS
from .sources import Emission, SourceCase, SourceSpec
from .synth import (UNITS, GridSpec, NoiseSpec, format_value, generate,
                    not_finite_error, read_surface_csv, spec_metadata,
                    write_metadata, write_surface_csv)

__all__ = ["main"]

FIGURE1_Q_VALUES = (0.5, 1.0, 1.5)
FIGURE1_DW_MAX = 2.5
FIGURE1_DW_POINTS = 51
FIGURE2_X_MAX = 3.0
FIGURE2_X_POINTS = 301
DEFAULT_CASE = "A"
DEFAULT_RDOT_FRACTION = 2e-4
# `check` compares the excess where the oracle's is above this floor
CHECK_EXCESS_FLOOR = 1e-12
# the options that take a number or a grid, whose value may start with '-'
VALUE_OPTIONS = ("--q", "--dw", "--R", "--tau", "--rdot", "--smear-dw",
                 "--pairs-per-bin", "--seed", "--q-grid", "--dw-grid")


class _Parser(argparse.ArgumentParser):
    """Every option has one spelling: with abbreviations off, '--d' is not
    '--dw', so `_attach_option_values` sees each option by its whole
    name.  Subparsers are made by this class too.  A usage error is a
    ValueError, which `main` reports with exit code 1."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _finite_float(text: str) -> float:
    """The parser of every float option and grid bound: NaN and +-inf are
    rejected, since no source parameter or grid point can take them."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got '{text}'")
    return value


def _add_parameter_args(p: argparse.ArgumentParser):
    p.add_argument("--R", type=_finite_float, default=1.0,
                   help="spatial extension in um (cases A-D)")
    p.add_argument("--tau", type=_finite_float, default=1.0,
                   help="time span in ps")
    p.add_argument("--rdot", type=_finite_float,
                   default=DEFAULT_RDOT_FRACTION,
                   help="shock-front speed as a fraction of c (case E)")


def _add_source_args(p: argparse.ArgumentParser):
    p.add_argument("--case", choices=["A", "B", "C", "D", "E"],
                   default=DEFAULT_CASE, help="source case (Table of shapes)")
    _add_parameter_args(p)
    p.add_argument("--coherent", action="store_true",
                   help="coherent emission (C identically 1)")


def _spec_from_args(args) -> SourceSpec:
    case = SourceCase(args.case)
    emission = Emission.COHERENT if args.coherent else Emission.CHAOTIC
    if case is SourceCase.E_EXPANDING_SHOCK:
        return SourceSpec(case=case, tau=args.tau,
                          r_dot=args.rdot * C_UM_PER_PS, emission=emission)
    return SourceSpec(case=case, tau=args.tau, R=args.R, emission=emission)


def _attach_option_values(argv: List[str]) -> List[str]:
    """'--dw -1e-3' as '--dw=-1e-3', '--dw-grid -1:1:2' as
    '--dw-grid=-1:1:2': argparse reads a separate value that starts with
    '-' and is not a plain decimal as an option."""
    joined: List[str] = []
    for token in argv:
        if joined and joined[-1] in VALUE_OPTIONS:
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = _finite_float(lo_s), _finite_float(hi_s), int(n_s)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"bad grid '{text}': {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"bad grid '{text}', expected min:max:n") from exc
    # one point has one value: min:max:1 with min != max would drop max
    if n < 1 or hi < lo or (n == 1 and hi != lo):
        raise ValueError(f"bad grid '{text}'")
    return np.linspace(lo, hi, n)


def _cmd_eval(args) -> int:
    spec = _spec_from_args(args)
    c = correlation(spec, args.q, args.dw).c
    if not math.isfinite(c):
        raise not_finite_error(args.q, args.dw)
    print(f"C = {format_value(c)}")
    return 0


def _cmd_check(args) -> int:
    # the oracle, and the scipy.integrate it needs, load only here
    from .oracle import numeric_correlation

    spec = _spec_from_args(args)
    if spec.emission is Emission.COHERENT:
        raise ValueError("check compares chaotic closed forms to the oracle")
    q_values = _parse_grid(args.q_grid)
    dw_values = _parse_grid(args.dw_grid)
    # every row is computed before --out is opened, so an oracle failure
    # mid-grid leaves no partial file behind
    text = io.StringIO()
    write_metadata(text, {**spec_metadata(spec), "units": UNITS})
    text.write("q,d_omega,c_analytic,c_oracle,rel_deviation\n")
    analytic = correlation(spec, q_values[:, None], dw_values)
    finite = np.isfinite(analytic.c)
    if not finite.all():
        # the first non-finite point in row-major order
        i, j = np.unravel_index(np.argmin(finite), finite.shape)
        raise not_finite_error(q_values[i], dw_values[j])
    # (relative deviation of C, q, d_omega) per point, and the relative
    # deviation of the excess where the oracle's is above the floor
    deviations, excess_deviations = [], []
    for q, ca_row, ea_row in zip(q_values, analytic.c, analytic.excess):
        for dw, ca, ea in zip(dw_values, ca_row, ea_row):
            num = numeric_correlation(spec, q, dw)
            rel = abs(ca - num.c) / abs(num.c)
            deviations.append((rel, q, dw))
            if num.excess > CHECK_EXCESS_FLOOR:
                excess_deviations.append(abs(ea - num.excess) / num.excess)
            text.write(f"{format_value(q)},{format_value(dw)},"
                       f"{format_value(ca)},{format_value(num.c)},"
                       f"{rel:.3e}\n")
    # the first point of the largest deviation; nan when no excess is
    # above the floor
    worst, worst_q, worst_dw = max(deviations, key=lambda d: d[0])
    worst_excess = max(excess_deviations, default=math.nan)
    write_metadata(text, {
        "max_relative_deviation": f"{worst:.6e}",
        "max_deviation_q_per_um": format_value(worst_q),
        "max_deviation_d_omega_per_ps": format_value(worst_dw),
        "max_relative_excess_deviation": f"{worst_excess:.6e}"})
    summary = f"max relative deviation = {worst:.6e}"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text.getvalue())
        print(summary, file=sys.stderr)
    else:
        print(text.getvalue() + summary)
    return 0


def _cmd_synth(args) -> int:
    spec = _spec_from_args(args)
    grid = GridSpec(q_values=_parse_grid(args.q_grid),
                    d_omega_values=_parse_grid(args.dw_grid))
    noise = None
    if args.pairs_per_bin is not None:
        noise = NoiseSpec(pairs_per_bin=args.pairs_per_bin, seed=args.seed)
    surface = generate(spec, grid, noise=noise, smear_dw=args.smear_dw)
    write_surface_csv(surface, args.out)
    return 0


def _cmd_fit(args) -> int:
    surface = read_surface_csv(args.surface)
    report = fit_surface(surface)
    text = report_to_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _cmd_figure1(args) -> int:
    dw = np.linspace(0.0, FIGURE1_DW_MAX, FIGURE1_DW_POINTS)
    specs = {
        "A": SourceSpec(case=SourceCase.A_GAUSSIAN, tau=args.tau, R=args.R),
        "D": SourceSpec(case=SourceCase.D_EXPONENTIAL, tau=args.tau, R=args.R),
        "E": SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=args.tau,
                        r_dot=args.rdot * C_UM_PER_PS),
    }
    meta = {"artifact": "figure1",
            "tau_ps": format_value(args.tau),
            "R_um": format_value(args.R),
            "rdot_um_per_ps": format_value(args.rdot * C_UM_PER_PS),
            "q_values_per_um": " ".join(format_value(q)
                                        for q in FIGURE1_Q_VALUES),
            "units": UNITS}
    q_column = np.array(FIGURE1_Q_VALUES)[:, None]
    curves = [(label, q, excess)
              for label, spec in specs.items()
              for q, excess in zip(FIGURE1_Q_VALUES,
                                   correlation(spec, q_column, dw).excess)]
    for label, q, excess in curves:
        if (excess == 0.0).any():
            raise ValueError(f"case {label} excess is 0 at q = "
                             f"{format_value(q)} 1/um; log10 of a zero "
                             f"excess is undefined")
    with open(args.out, "w") as fh:
        write_metadata(fh, meta)
        fh.write("case,q,dw_squared,log10_excess\n")
        for label, q, excess in curves:
            for w, e in zip(dw, excess):
                fh.write(f"{label},{format_value(q)},"
                         f"{format_value(w * w)},"
                         f"{format_value(math.log10(e))}\n")
    return 0


def _cmd_figure2(args) -> int:
    xs = np.linspace(0.0, FIGURE2_X_MAX, FIGURE2_X_POINTS)
    with open(args.out, "w") as fh:
        write_metadata(fh, {"artifact": "figure2",
                            "X": "sqrt(kappa/2) q, dimensionless"})
        fh.write("case,X,phi\n")
        for case in FACTORIZED_CASES:
            for x, phi in zip(xs, phi_of_X(case, xs)):
                fh.write(f"{case.value},{format_value(x)},"
                         f"{format_value(phi)}\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="bubblehbt",
                     description="Two-photon HBT correlations for micron-"
                                 "scale chaotic sources. Units: q in 1/um, "
                                 "d_omega in 1/ps, R in um, tau in ps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate C at one point")
    _add_source_args(p)
    p.add_argument("--q", type=_finite_float, required=True)
    p.add_argument("--dw", type=_finite_float, default=0.0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="analytic vs oracle over a grid")
    _add_source_args(p)
    p.add_argument("--q-grid", default="0:6:10")
    p.add_argument("--dw-grid", default="0:6:10")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("synth", help="write a synthetic surface CSV")
    _add_source_args(p)
    p.add_argument("--q-grid", default="0:3:61")
    p.add_argument("--dw-grid", default="0:2:9")
    p.add_argument("--pairs-per-bin", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smear-dw", type=_finite_float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="invert a surface CSV")
    p.add_argument("surface", help="path to a synth output CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("figure1", help="log10(C-1) vs (d_omega)^2 plot data")
    _add_parameter_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("figure2", help="Phi(X) plot data for the four shapes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_figure2)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_option_values(
            sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except (InsufficientDataError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
