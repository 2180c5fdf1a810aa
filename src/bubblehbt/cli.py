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

Every source is built from the options by `_spec_from_args`, and the
grids of `check` and `synth` are checked by the same `GridSpec`.  `eval`
(on a one-point grid), `check` and `figure1` tabulate the closed forms
with `synth.tabulate`, which reports a C that is not finite.  `check`
leaves the chaotic-only rule to the oracle, and computes every point
before it opens --out, so a coherent source exits 1 and writes no file.
Every CSV is written by `synth.write_table`, and its source keys come
from `synth.spec_metadata`.  A grid too large to allocate is a usage
error.  A value that starts with '-' may follow a numeric, grid or
--out option after a space; `fit` takes such a path after '--'.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

import argparse
import io
import math
import sys
from itertools import chain, repeat
from typing import List, Optional

import numpy as np

from .correlators import FACTORIZED_CASES, phi_of_X
from .inference import InsufficientDataError, fit_surface, report_to_text
from .kinematics import C_UM_PER_PS
from .sources import Emission, SourceCase, SourceSpec
from .synth import (UNITS, VALUE_FORMAT, GridSpec, NoiseSpec, format_value,
                    generate, read_surface_csv, spec_metadata, tabulate,
                    write_metadata, write_surface_csv, write_table)

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
# the options that take a number, a grid or a path, whose value may start
# with '-'
VALUE_OPTIONS = ("--q", "--dw", "--R", "--tau", "--rdot", "--smear-dw",
                 "--pairs-per-bin", "--seed", "--q-grid", "--dw-grid",
                 "--out")


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


def _spec_from_args(args, case: str) -> SourceSpec:
    """The source of case `case` with the parameters and emission in
    `args`."""
    case = SourceCase(case)
    emission = Emission.COHERENT if args.coherent else Emission.CHAOTIC
    if case is SourceCase.E_EXPANDING_SHOCK:
        return SourceSpec(case=case, tau=args.tau,
                          r_dot=args.rdot * C_UM_PER_PS, emission=emission)
    return SourceSpec(case=case, tau=args.tau, R=args.R, emission=emission)


def _attach_option_values(argv: List[str]) -> List[str]:
    """'--dw -1e-3' as '--dw=-1e-3', '--dw-grid -1:1:2' as
    '--dw-grid=-1:1:2', '--out -a.csv' as '--out=-a.csv': argparse reads a
    separate value that starts with '-' and is not a plain decimal as an
    option.  A token that starts with '--' stays an option, so '--out
    --coherent' lacks its path and writes no file named '--coherent'."""
    joined: List[str] = []
    for token in argv:
        if (joined and joined[-1] in VALUE_OPTIONS
                and not token.startswith("--")):
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def _parse_grid(text: str) -> np.ndarray:
    """The n points of 'min:max:n'; GridSpec checks their order."""
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = _finite_float(lo_s), _finite_float(hi_s), int(n_s)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"bad grid '{text}': {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"bad grid '{text}', expected min:max:n") from exc
    # one point has one value: min:max:1 with min != max would drop max
    if n < 1 or (n == 1 and hi != lo):
        raise ValueError(f"bad grid '{text}'")
    if math.isinf(hi - lo):  # halving, then doubling, is exact for these
        return 2.0 * np.linspace(0.5 * lo, 0.5 * hi, n)
    return np.linspace(lo, hi, n)


def _grid_from_args(args) -> GridSpec:
    return GridSpec(q_values=_parse_grid(args.q_grid),
                    d_omega_values=_parse_grid(args.dw_grid))


def _cmd_eval(args) -> int:
    spec = _spec_from_args(args, args.case)
    grid = GridSpec(q_values=(args.q,), d_omega_values=(args.dw,))
    print(f"C = {format_value(1.0 + tabulate(spec, grid)[0, 0])}")
    return 0


def _cmd_check(args) -> int:
    # the oracle, and the scipy.integrate it needs, load only here
    from .oracle import numeric_correlation

    spec = _spec_from_args(args, args.case)
    grid = _grid_from_args(args)
    analytic = tabulate(spec, grid).ravel()
    q, dw = grid.points()
    # every point is computed before --out is opened, so an oracle failure
    # mid-grid, or its rejection of a coherent source, leaves no file
    oracle = np.array([numeric_correlation(spec, *point).excess
                       for point in zip(q, dw)])
    c_analytic, c_oracle = 1.0 + analytic, 1.0 + oracle
    rel = np.abs(c_analytic - c_oracle) / np.abs(c_oracle)
    # the relative deviation of the excess where the oracle's is above the
    # floor; nan when none is
    above = oracle > CHECK_EXCESS_FLOOR
    worst_excess = max(np.abs(analytic - oracle)[above] / oracle[above],
                       default=math.nan)
    worst = np.argmax(rel)  # the first point of the largest deviation
    text = io.StringIO()
    write_table(text, {**spec_metadata(spec), "units": UNITS},
                "q,d_omega,c_analytic,c_oracle,rel_deviation",
                [VALUE_FORMAT] * 4 + ["%.3e"],
                np.column_stack((q, dw, c_analytic, c_oracle, rel))
                .ravel().tolist())
    write_metadata(text, {
        "max_relative_deviation": f"{rel[worst]:.6e}",
        "max_deviation_q_per_um": format_value(q[worst]),
        "max_deviation_d_omega_per_ps": format_value(dw[worst]),
        "max_relative_excess_deviation": f"{worst_excess:.6e}"})
    summary = f"max relative deviation = {rel[worst]:.6e}"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text.getvalue())
        print(summary, file=sys.stderr)
    else:
        print(text.getvalue() + summary)
    return 0


def _cmd_synth(args) -> int:
    spec = _spec_from_args(args, args.case)
    grid = _grid_from_args(args)
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
    grid = GridSpec(q_values=FIGURE1_Q_VALUES,
                    d_omega_values=np.linspace(0.0, FIGURE1_DW_MAX,
                                               FIGURE1_DW_POINTS))
    specs = {label: _spec_from_args(args, label) for label in "ADE"}
    # the parameters of the sources: A's and D's are one R and tau, E's its
    # r_dot and tau; each curve names its own case, and all are chaotic
    source = {**spec_metadata(specs["A"]), **spec_metadata(specs["E"])}
    del source["case"], source["emission"]
    meta = {"artifact": "figure1", **source,
            "q_values_per_um": " ".join(map(format_value, grid.q_values)),
            "units": UNITS}
    dw_squared = (grid.d_omega_axis * grid.d_omega_axis).tolist()
    rows = []
    for label, spec in specs.items():
        for q, excess in zip(grid.q_values, tabulate(spec, grid)):
            if (excess == 0.0).any():
                raise ValueError(f"case {label} excess is 0 at q = "
                                 f"{format_value(q)} 1/um; log10 of a zero "
                                 f"excess is undefined")
            rows += zip(repeat(label), repeat(q), dw_squared,
                        map(math.log10, excess.tolist()))
    with open(args.out, "w") as fh:
        write_table(fh, meta, "case,q,dw_squared,log10_excess",
                    ["%s"] + [VALUE_FORMAT] * 3,
                    list(chain.from_iterable(rows)))
    return 0


def _cmd_figure2(args) -> int:
    xs = np.linspace(0.0, FIGURE2_X_MAX, FIGURE2_X_POINTS)
    rows = [row for case in FACTORIZED_CASES
            for row in zip(repeat(case.value), xs.tolist(),
                           phi_of_X(case, xs).tolist())]
    with open(args.out, "w") as fh:
        write_table(fh, {"artifact": "figure2",
                         "X": "sqrt(kappa/2) q, dimensionless"},
                    "case,X,phi", ["%s", VALUE_FORMAT, VALUE_FORMAT],
                    list(chain.from_iterable(rows)))
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
    p.set_defaults(func=_cmd_figure1, coherent=False)

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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
