"""Command-line interface: subcommand outputs, exit codes, artifacts."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import bubblehbt
from bubblehbt import oracle
from bubblehbt.cli import main
from bubblehbt.correlators import kappa_analytic
from bubblehbt.sources import SourceCase
from bubblehbt.synth import read_surface_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_columns(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return header, rows


def test_eval_origin(capsys):
    code, out, _ = run(capsys, "eval", "--case", "A", "--q", "0", "--dw", "0")
    assert code == 0
    assert out.strip() == "C = 1.5"


def test_eval_coherent(capsys):
    code, out, _ = run(capsys, "eval", "--case", "B", "--q", "2.0",
                       "--coherent")
    assert code == 0
    assert out.strip() == "C = 1"


def test_check_exponential_matches_oracle(capsys, tmp_path):
    out_path = tmp_path / "check.csv"
    code, _, err = run(capsys, "check", "--case", "D",
                       "--q-grid", "0:6:10", "--dw-grid", "0:6:10",
                       "--out", str(out_path))
    assert code == 0
    worst = float(err.split("=")[1])
    assert worst < 1e-6
    assert f"# max_relative_deviation" in out_path.read_text()


def check_metadata(text):
    return dict(line[2:].split(" = ") for line in text.splitlines()
                if line.startswith("# "))


def test_check_locates_its_worst_deviation(capsys, tmp_path):
    # the q and d_omega of the largest relative deviation of C (the first
    # such row), and the largest of the excess where the oracle's is
    # above 1e-12
    path = tmp_path / "check.csv"
    code, _, _ = run(capsys, "check", "--case", "C", "--q-grid", "0:6:5",
                     "--dw-grid", "0:6:4", "--out", str(path))
    assert code == 0
    meta = check_metadata(path.read_text())
    _, rows = read_csv_columns(path)
    rel = [abs(float(ca) - float(co)) / float(co)
           for _, _, ca, co, _ in rows]
    worst = rows[int(np.argmax(rel))]
    assert meta["max_relative_deviation"] == f"{max(rel):.6e}"
    assert (meta["max_deviation_q_per_um"],
            meta["max_deviation_d_omega_per_ps"]) == (worst[0], worst[1])
    assert 0.0 < float(meta["max_relative_excess_deviation"]) < 1e-6


def test_check_without_excess_above_floor(capsys):
    # far from the origin every oracle excess is below 1e-12: the excess
    # deviation is undefined, and C's is located at the first point
    code, out, _ = run(capsys, "check", "--case", "A", "--q-grid", "50:60:2",
                       "--dw-grid", "50:60:2")
    assert code == 0
    meta = check_metadata(out)
    assert meta["max_relative_excess_deviation"] == "nan"
    assert (meta["max_deviation_q_per_um"],
            meta["max_deviation_d_omega_per_ps"]) == ("50", "50")


def test_check_names_an_origin_transform_that_underflows(capsys):
    # at tau = 1e-100 ps the shock's F(0,0) underflows to 0, which every C
    # divides by: one line naming it, exit 2, not a ZeroDivisionError's
    code, out, err = run(capsys, "check", "--case", "E", "--tau", "1e-100",
                         "--q-grid", "0:1:2", "--dw-grid", "0:1:2")
    assert code == 2
    assert out == ""
    assert err == "error: F(0,0) underflows to 0 at tau = 1e-100 ps\n"


@pytest.mark.filterwarnings("error")
def test_check_reports_a_non_finite_closed_form(capsys, monkeypatch,
                                                tmp_path):
    # case E's series is NaN at d_omega = 1e60: check names the first such
    # point in row-major order before it calls the oracle, and writes no
    # file, where a NaN deviation would otherwise pass unseen by the maximum
    def no_oracle(*args):
        raise AssertionError("the oracle was called")

    monkeypatch.setattr(oracle, "numeric_correlation", no_oracle)
    path = tmp_path / "check.csv"
    code, out, err = run(capsys, "check", "--case", "E", "--q-grid",
                         "0:0.1:2", "--dw-grid", "0:1e60:2", "--out",
                         str(path))
    assert (code, out) == (2, "")
    assert err == ("error: C is not finite at q = 0, "
                   "d_omega = 9.9999999999999995e+59\n")
    assert not path.exists()


def test_synth_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "synth", "--case", "A",
                         "--pairs-per-bin", "10000", "--seed", "42",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_negative_grid_value_after_a_space(capsys, tmp_path):
    # '--dw-grid -1:1:2' reads the value as '--dw-grid=-1:1:2' does
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    code, _, err = run(capsys, "synth", "--case", "A", "--dw-grid", "-1:1:2",
                       "--out", str(spaced))
    assert (code, err) == (0, "")
    code, _, _ = run(capsys, "synth", "--case", "A", "--dw-grid=-1:1:2",
                     "--out", str(joined))
    assert code == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert "# d_omega_values_per_ps = -1 1\n" in spaced.read_text()


def test_negative_exponent_value_after_a_space(capsys):
    # argparse takes '-1e-3' for an option; every numeric option reads it
    # as '--dw=-1e-3' does
    spaced = run(capsys, "eval", "--q", "1", "--dw", "-1e-3")
    joined = run(capsys, "eval", "--q", "1", "--dw=-1e-3")
    assert spaced == joined == (0, "C = 1.1839395366460925\n", "")


def test_out_path_that_starts_with_a_dash(capsys, tmp_path, monkeypatch):
    # '--out -a.csv' reads the path as '--out=-a.csv' does, and fit takes
    # such a path after '--'
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "synth", "--case", "A", "--out", "-a.csv") == (0, "",
                                                                      "")
    assert run(capsys, "synth", "--case", "A", "--out=-b.csv")[0] == 0
    assert (tmp_path / "-a.csv").read_bytes() == (
        tmp_path / "-b.csv").read_bytes()
    code, out, err = run(capsys, "fit", "--", "-a.csv")
    assert (code, err) == (0, "")
    assert out.startswith("chaoticity = chaotic\n")
    # an option after --out is not its path
    assert run(capsys, "synth", "--case", "A", "--out", "--coherent") == (
        1, "", "error: argument --out: expected one argument\n")
    assert not (tmp_path / "--coherent").exists()


@pytest.mark.parametrize("argv", [["--d", "-1e-3"]])
def test_abbreviated_option_is_rejected(capsys, argv):
    # every option has one spelling, so '--d' is not '--dw'
    code, out, err = run(capsys, "eval", "--q", "1", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: unrecognized arguments: {' '.join(argv)}\n"


def test_negative_tau_after_a_space_is_a_value_error(capsys):
    code, out, err = run(capsys, "eval", "--q", "1", "--tau", "-1e-3")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "expected one argument" not in err and "usage" not in err


def test_synth_metadata_header(capsys, tmp_path):
    path = tmp_path / "surf.csv"
    code, _, _ = run(capsys, "synth", "--case", "C", "--R", "1.5",
                     "--tau", "2.0", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert "# case = C" in text
    assert "# R_um = 1.5" in text
    assert "# tau_ps = 2" in text
    assert "\nc_obs\n" in text


def test_synth_fit_end_to_end(capsys, tmp_path):
    surf = tmp_path / "surf.csv"
    report = tmp_path / "report.txt"
    code, _, _ = run(capsys, "synth", "--case", "A",
                     "--pairs-per-bin", "1000000", "--seed", "5",
                     "--out", str(surf))
    assert code == 0
    code, out, _ = run(capsys, "fit", str(surf), "--out", str(report))
    assert code == 0
    assert report.read_text() == out
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            values[key] = val
    assert values["chaoticity"] == "chaotic"
    tau_hat = float(values["tau_hat_ps"])
    tau_err = float(values["tau_err_ps"])
    assert abs(tau_hat - 1.0) < 5.0 * tau_err
    assert values["shape_rank_1"].startswith("A")


def test_fit_noiseless_round_trip(capsys, tmp_path):
    surf = tmp_path / "surf.csv"
    run(capsys, "synth", "--case", "B", "--out", str(surf))
    code, out, _ = run(capsys, "fit", str(surf))
    assert code == 0
    for line in out.splitlines():
        if line.startswith("tau_hat_ps"):
            assert float(line.split(" = ")[1]) == pytest.approx(1.0, rel=1e-3)
        if line.startswith("kappa_hat"):
            assert float(line.split(" = ")[1]) == pytest.approx(2.0 / 3.0,
                                                               rel=1e-3)
    assert "shape_rank_1 = B" in out


def test_fit_noiseless_exponential_default_grid(capsys, tmp_path):
    # kappa = 8 leaves three of the default q inside the noiseless
    # curvature window; the window widens to the fourth, at X = 0.3
    surf = tmp_path / "surf.csv"
    run(capsys, "synth", "--case", "D", "--out", str(surf))
    code, out, _ = run(capsys, "fit", str(surf))
    assert code == 0
    assert "shape_rank_1 = D" in out
    kappa_hat = float(out.split("kappa_hat = ")[1].split()[0])
    assert kappa_hat == pytest.approx(
        kappa_analytic(SourceCase.D_EXPONENTIAL, 1.0), rel=1e-2)


def test_figure1_columns_and_slopes(capsys, tmp_path):
    path = tmp_path / "fig1.csv"
    code, _, _ = run(capsys, "figure1", "--out", str(path))
    assert code == 0
    header, rows = read_csv_columns(str(path))
    assert header == ["case", "q", "dw_squared", "log10_excess"]
    # case A rows are exactly linear: log10(C-1) = log10(Phi/2) - dw^2/ln 10
    a_rows = [(float(r[2]), float(r[3])) for r in rows
              if r[0] == "A" and float(r[1]) == 1.0]
    x = np.array([r[0] for r in a_rows])
    y = np.array([r[1] for r in a_rows])
    slope = np.polyfit(x, y, 1)[0]
    assert slope == pytest.approx(-1.0 / math.log(10.0), rel=1e-9)


def test_figure2_values(capsys, tmp_path):
    path = tmp_path / "fig2.csv"
    code, _, _ = run(capsys, "figure2", "--out", str(path))
    assert code == 0
    header, rows = read_csv_columns(str(path))
    assert header == ["case", "X", "phi"]
    cases = {r[0] for r in rows}
    assert cases == {"A", "B", "C", "D"}
    for r in rows:
        if r[0] == "A" and float(r[1]) == 1.0:
            assert float(r[2]) == pytest.approx(0.367879, abs=1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", ["1e200", "1e300"])
def test_eval_case_e_at_huge_q_is_unity(capsys, q):
    # mu = rdot tau q and mu z± overflow there; the excess is at its limit 0
    code, out, err = run(capsys, "eval", "--case", "E", "--q", q)
    assert code == 0
    assert out == "C = 1\n"
    assert err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["--case", "C", "--q", "1e308"],
                                  ["--case", "B", "--R", "2", "--q", "1e308"]])
def test_eval_form_factor_at_huge_q_is_unity(capsys, argv):
    # C: 3 (sin x - x cos x) overflows; B: q R overflows to inf, where
    # sin(x)/x has its limit 0
    code, out, err = run(capsys, "eval", *argv)
    assert (code, out, err) == (0, "C = 1\n", "")


@pytest.mark.filterwarnings("error")
def test_synth_at_huge_d_omega_is_quiet(capsys, tmp_path):
    # (d_omega tau)^2 overflows to inf, so T = exp(-inf) = 0 exactly
    path = tmp_path / "surf.csv"
    code, out, err = run(capsys, "synth", "--case", "A", "--dw-grid",
                         "0:1e200:3", "--out", str(path))
    assert (code, out, err) == (0, "", "")
    # each row holds one q's c_obs in d_omega order, the last at 1e200
    meta = check_metadata(path.read_text())
    assert float(meta["d_omega_values_per_ps"].split()[-1]) == 1e200
    _, rows = read_csv_columns(path)
    assert rows and all(float(row[-1]) == 1.0 for row in rows)


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--case", "Z", "--q", "1")
    assert code == 1
    assert "error" in err
    code, _, _ = run(capsys, "eval", "--case", "A", "--q", "-1")
    assert code == 1
    # a subcommand that writes a file needs --out, which argparse requires
    for command in ("synth", "figure1", "figure2"):
        code, out, err = run(capsys, command)
        assert (code, out) == (1, "")
        assert err == ("error: the following arguments are required: "
                       "--out\n")


@pytest.mark.parametrize("argv", [
    ["eval", "--q", "nan"],
    ["eval", "--q", "1", "--dw", "inf"],
    ["eval", "--q", "1", "--R", "inf"],
    ["synth", "--q-grid", "nan:3:5", "--out", "{out}"],
    ["check", "--q-grid", "0:nan:3", "--out", "{out}"],
    ["eval", "--q", "abc"],
])
def test_non_finite_floats_are_usage_errors(capsys, tmp_path, argv):
    out_path = tmp_path / "out.csv"
    code, out, err = run(capsys, *[a.format(out=out_path) for a in argv])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "finite" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, message", [
    # the oracle's own rule: check computes every point before it opens
    # --out, so no file is written
    (["check", "--case", "A", "--coherent", "--out", "{out}"],
     "error: the oracle applies to chaotic sources\n"),
    # check builds its grid as synth does: min = max over three points is
    # one q three times
    (["check", "--case", "A", "--q-grid", "1:1:3", "--dw-grid", "0:0:2",
      "--out", "{out}"], "error: q_values must be strictly increasing\n"),
    # 10**14 points ask numpy for 728 TiB, which it refuses outright
    (["synth", "--q-grid", "0:1:100000000000000", "--out", "{out}"],
     "error: Unable to allocate 728. TiB for an array with shape "
     "(100000000000000,) and data type float64\n"),
], ids=["coherent-check", "check-repeated-q", "oversized-grid"])
def test_rejected_arguments_exit_1_with_one_line(capsys, tmp_path, argv,
                                                 message):
    out_path = tmp_path / "out.csv"
    code, out, err = run(capsys, *[a.format(out=out_path) for a in argv])
    assert (code, out, err) == (1, "", message)
    assert not out_path.exists()


def test_one_point_grid_needs_min_equal_to_max(capsys, tmp_path):
    # linspace(2, 5, 1) is [2]: a one-point grid would silently drop max
    path = tmp_path / "p.csv"
    code, out, err = run(capsys, "synth", "--case", "A", "--dw-grid", "2:5:1",
                         "--out", str(path))
    assert (code, out, err) == (1, "", "error: bad grid '2:5:1'\n")
    assert not path.exists()
    code, _, _ = run(capsys, "synth", "--case", "A", "--dw-grid", "2:2:1",
                     "--out", str(path))
    assert code == 0
    meta = check_metadata(path.read_text())
    assert meta["d_omega_values_per_ps"] == "2"


@pytest.mark.filterwarnings("error")
def test_smeared_d_where_tau_w_overflows(capsys, tmp_path):
    # <T> is its limit 0 there, as case A's is: every C is 1
    for case in ("A", "D"):
        path = tmp_path / f"{case}.csv"
        code, out, err = run(capsys, "synth", "--case", case, "--smear-dw",
                             "1e308", "--tau", "1e10", "--out", str(path))
        assert (code, out, err) == (0, "", "")
        _, rows = read_csv_columns(path)
        assert {value for row in rows for value in row} == {"1"}


def fit_sparse_surface(capsys, tmp_path, *grid):
    surf = tmp_path / "sparse.csv"
    run(capsys, "synth", "--case", "A", *grid, "--out", str(surf))
    return run(capsys, "fit", str(surf))


def fit_window_too_narrow(capsys, tmp_path):
    # four q, but the fourth lies far outside the curvature window
    return fit_sparse_surface(capsys, tmp_path, "--q-grid", "0:3:4")


def fit_without_q_zero(capsys, tmp_path):
    # a clear chaotic excess, but Phi_hat needs the excess at q = 0
    return fit_sparse_surface(capsys, tmp_path, "--q-grid", "0.6:3:25")


def synth_case_e_at_huge_d_omega(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    result = run(capsys, "synth", "--case", "E", "--q-grid", "0:1:3",
                 "--dw-grid", "0:1e200:3", "--out", str(path))
    assert not path.exists()
    return result


def eval_case_e_at_huge_d_omega(capsys, tmp_path):
    return run(capsys, "eval", "--case", "E", "--q", "0", "--dw", "1e100")


def check_case_e_at_huge_d_omega(capsys, tmp_path):
    path = tmp_path / "n.csv"
    result = run(capsys, "check", "--case", "E", "--q-grid", "0:0.1:2",
                 "--dw-grid", "0:1e60:2", "--out", str(path))
    assert not path.exists()
    return result


NOT_FINITE = ("error: C is not finite at q = 0, "
              "d_omega = 4.9999999999999998e+199\n")


def test_numerical_failure_exit_code(capsys, tmp_path):
    for failing_run, message in [
            (fit_window_too_narrow,
             "error: window too narrow: fourth q at X = "),
            (fit_without_q_zero,
             "error: no origin coverage: the grid lacks q = 0"),
            (synth_case_e_at_huge_d_omega, NOT_FINITE),
            (eval_case_e_at_huge_d_omega,
             "error: C is not finite at q = 0, d_omega = 1e+100\n"),
            (check_case_e_at_huge_d_omega,
             "error: C is not finite at q = 0, "
             "d_omega = 9.9999999999999995e+59\n")]:
        code, out, err = failing_run(capsys, tmp_path)
        assert (code, out) == (2, ""), failing_run.__name__
        assert err.startswith(message)
        assert err.count("\n") == 1


def test_truth_past_the_forward_model_fails_where_it_is_read(capsys,
                                                              tmp_path):
    # a hand-written surface whose metadata grid takes case E's forward
    # model past its range: the fit reads the observation alone and exits
    # 0, and the truth fails when c_true is first read, with the line
    # `synth` gives on that grid
    path = tmp_path / "hand.csv"
    path.write_text("# artifact = correlation_surface\n# case = E\n"
                    "# emission = chaotic\n# tau_ps = 1\n"
                    "# rdot_um_per_ps = 0.06\n# q_values_per_um = 0 0.5 1\n"
                    "# d_omega_values_per_ps = 0 5e199 1e200\n"
                    "c_obs\n" + "1,1,1\n" * 3)
    code, out, err = run(capsys, "fit", str(path))
    assert (code, err) == (0, "") and out
    surface = read_surface_csv(str(path))
    with pytest.raises(ArithmeticError) as raised:
        surface.c_true
    assert f"error: {raised.value}\n" == NOT_FINITE


@pytest.mark.parametrize("grid", [
    ("--q-grid", "0:3:3"),
    # a symmetric d_omega grid lists each q twice in the origin slice
    ("--q-grid", "0:3:3", "--dw-grid=-1:1:2"),
], ids=["three-q", "three-q-symmetric-dw"])
def test_too_few_distinct_q_exit_code(capsys, tmp_path, grid):
    code, _, err = fit_sparse_surface(capsys, tmp_path, *grid)
    assert code == 2
    assert err == ("error: window too narrow: 3 distinct q points, the fit "
                   "needs 4\n")


def test_renormalization_failure_exit_code(capsys, tmp_path):
    # smearing over 1e6 / ps washes the origin excess into the noise
    surf = tmp_path / "smeared.csv"
    code, _, _ = run(capsys, "synth", "--case", "A", "--smear-dw", "1e6",
                     "--pairs-per-bin", "1000000", "--out", str(surf))
    assert code == 0
    code, out, err = run(capsys, "fit", str(surf))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: cannot renormalize")


@pytest.mark.parametrize("case, window, message", [
    ("A", "-1", "smearing window must be positive and finite"),
    ("A", "0", "smearing window must be positive and finite"),
    ("E", "2", "smearing of the non-factorized case E is unsupported"),
], ids=["A-negative", "A-zero", "E"])
def test_synth_checks_the_window_whatever_the_emission(capsys, tmp_path,
                                                       case, window, message):
    # a coherent surface's C is 1 at any window, but a window it could not
    # be smeared over is still an input error
    path = tmp_path / "surf.csv"
    code, out, err = run(capsys, "synth", "--case", case, "--coherent",
                         "--smear-dw", window, "--out", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert not path.exists()


@pytest.mark.parametrize("window", ["nan", "0", "-1"])
def test_fit_checks_the_window_of_a_coherent_surface(capsys, tmp_path,
                                                     window):
    path = tmp_path / "surf.csv"
    code, _, _ = run(capsys, "synth", "--case", "A", "--coherent",
                     "--smear-dw", "2", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert "# smear_dw_per_ps = 2\n" in text
    path.write_text(text.replace("# smear_dw_per_ps = 2\n",
                                 f"# smear_dw_per_ps = {window}\n"))
    assert_rejected(capsys, path,
                    "smearing window must be positive and finite")


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, _ = run(capsys, "fit", str(tmp_path / "absent.csv"))
    assert code == 1


def test_oracle_nonconvergence_exit_code(capsys, oracle_tolerance, tmp_path):
    # quadpack's message runs to several lines, broken mid-sentence; its
    # first sentence reaches stderr, on one line, and no partial CSV is
    # left behind.  At d_omega = 1e300 the time transform meets roundoff;
    # with 6 subdivisions the oracle fails mid-grid, at q = 4 after 8 of
    # the 16 rows
    path = tmp_path / "check.csv"
    for subdivisions, argv, message in [
            (None, ["--case", "A", "--q-grid", "0:1:2",
                    "--dw-grid", "0:1e300:2"],
             "The occurrence of roundoff error is detected, which prevents "
             "the requested tolerance from being achieved."),
            (6, ["--case", "D", "--q-grid", "0:6:4", "--dw-grid", "0:6:4"],
             "The maximum number of subdivisions (6) has been achieved.")]:
        if subdivisions is not None:
            oracle_tolerance("MAX_SUBDIVISIONS", subdivisions)
        code, out, err = run(capsys, "check", *argv, "--out", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not path.exists()


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats, scipy.integrate (with the scipy.optimize it loads) and
    # the oracle are a large share of start-up: the CLI loads the oracle in
    # `check` only, and nothing needs scipy.stats; the package root loads no
    # submodule at all
    package = os.path.dirname(bubblehbt.__file__)
    submodules = [f"bubblehbt.{name[:-3]}" for name in os.listdir(package)
                  if name.endswith(".py") and name != "__init__.py"]
    probes = {
        "bubblehbt.cli": ["scipy.stats", "scipy.integrate", "scipy.optimize",
                          "bubblehbt.oracle"],
        "bubblehbt": submodules + ["numpy"],
    }
    for module, absent in probes.items():
        probe = (f"import sys, {module}; "
                 f"print([m for m in {absent!r} if m in sys.modules])")
        result = subprocess.run([sys.executable, "-c", probe], check=True,
                                capture_output=True, text=True,
                                env={**os.environ,
                                     "PYTHONPATH": os.path.dirname(package)})
        assert result.stdout.strip() == "[]", module


def scipy_after(argv):
    """The exit code of `main(argv)` in a fresh interpreter, and the scipy
    modules loaded when it returns."""
    probe = ("import sys; from bubblehbt.cli import main; "
             f"code = main({argv!r}); "
             "print(code, [m for m in sys.modules if m.startswith('scipy')])")
    package = os.path.dirname(bubblehbt.__file__)
    result = subprocess.run([sys.executable, "-c", probe], check=True,
                            capture_output=True, text=True,
                            env={**os.environ,
                                 "PYTHONPATH": os.path.dirname(package)})
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["eval", "--case", "A", "--q", "1"],
    ["figure2", "--out", "{out}"],
], ids=["eval-A", "figure2"])
def test_numpy_only_subcommands_load_no_scipy(tmp_path, argv):
    # scipy.special loads inside the functions that need it, so a
    # subcommand that calls none of them runs on numpy alone
    argv = [a.format(out=tmp_path / "out.csv") for a in argv]
    assert scipy_after(argv) == "0 []"


@pytest.mark.parametrize("case, window", [("D", []), ("E", []),
                                          ("D", ["--smear-dw", "2"])],
                         ids=["D", "E", "D-smeared"])
def test_fit_loads_no_scipy(capsys, tmp_path, case, window):
    # the factorization p-value is special_functions.chi2_survival, and the
    # reader leaves the truth (case E's dawsn, smeared D's sici) until it
    # is read, which the fit never does: `fit` runs on numpy alone
    path = tmp_path / "surf.csv"
    code, _, _ = run(capsys, "synth", "--case", case, "--pairs-per-bin",
                     "1000000", "--seed", "5", *window, "--out", str(path))
    assert code == 0
    assert scipy_after(["fit", str(path)]) == "0 []"


# --- malformed surface CSVs: exit 1 with one line ---------------------------

def write_default_surface(capsys, path, noisy=True):
    """The metadata and header lines, and the data rows, of a CLI-default
    case A surface: counts at 10^6 pairs per bin, or noiseless c_obs."""
    noise = ["--pairs-per-bin", "1000000", "--seed", "5"] if noisy else []
    code, _, _ = run(capsys, "synth", "--case", "A", *noise, "--out",
                     str(path))
    assert code == 0
    lines = path.read_text().splitlines(keepends=True)
    head = [line for line in lines if line.startswith("#")]
    head.append(lines[len(head)])
    assert head[-1] == ("counts\n" if noisy else "c_obs\n")
    return head, lines[len(head):]


def assert_rejected(capsys, path, message):
    code, out, err = run(capsys, "fit", str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and message in err


def test_fit_rejects_a_figure_csv(capsys, tmp_path):
    path = tmp_path / "figure2.csv"
    assert run(capsys, "figure2", "--out", str(path))[0] == 0
    assert_rejected(capsys, path, "not a correlation surface CSV")


def test_fit_rejects_surface_without_rows(capsys, tmp_path):
    path = tmp_path / "surf.csv"
    head, _ = write_default_surface(capsys, path)
    path.write_text("".join(head))
    assert_rejected(capsys, path, "no data rows")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tail", ["", "\n\n", "   \n\t\n"])
def test_fit_rejects_rowless_surface_quietly(capsys, tmp_path, tail):
    # numpy's "input contained no data" warning must not reach stderr
    path = tmp_path / "surf.csv"
    head, _ = write_default_surface(capsys, path)
    path.write_text("".join(head) + tail)
    assert_rejected(capsys, path, "surface CSV has no data rows")


def test_fit_rejects_comment_among_rows(capsys, tmp_path):
    # '#' lines are metadata only above the header
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    rows.insert(10, "# note = x\n")
    path.write_text("".join(head + rows))
    assert_rejected(capsys, path, f"surface CSV line {len(head) + 11}: "
                    "'#' line among the data rows")


def test_fit_rejects_a_missing_or_an_extra_row(capsys, tmp_path):
    # one row per q of the metadata grid
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    assert len(rows) == 61
    path.write_text("".join(head + rows[:-1]))
    assert_rejected(capsys, path,
                    "surface CSV has 60 rows, its metadata grid 61 q values")
    path.write_text("".join(head + rows + rows[:1]))
    assert_rejected(capsys, path,
                    "surface CSV has 62 rows, its metadata grid 61 q values")


def test_fit_rejects_non_finite_values(capsys, tmp_path):
    # in c_obs rows; in count rows it is not a count (below)
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path, noisy=False)
    rows[10] = "nan," + rows[10].split(",", 1)[1]
    path.write_text("".join(head + rows))
    assert_rejected(capsys, path, "non-finite")


@pytest.mark.parametrize("value", ["1.5", "-3", "inf", "nan", "-0",
                                   "9007199254740992", "5.0", "1e3"])
def test_fit_rejects_a_value_that_is_not_a_count(capsys, tmp_path, value):
    # a noisy file holds counts n = N c_obs: ASCII digits below 2**53, with
    # no sign '-', decimal point or exponent, so an integral float such as
    # 5.0 or 1e3 is not a count either
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    rows[10] = rows[10].rsplit(",", 1)[0] + f",{value}\n"
    path.write_text("".join(head + rows))
    assert_rejected(capsys, path, f"surface CSV line {len(head) + 11}: "
                    f"'{value}' is not a count")


def test_fit_reads_a_count_with_a_plus_sign(capsys, tmp_path):
    # a count may carry a '+', as Python's int() and numpy's integer parser
    # both take it: '+5' is the count 5
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    rows[10] = rows[10].rsplit(",", 1)[0] + ",+5\n"
    path.write_text("".join(head + rows))
    assert read_surface_csv(str(path)).c_obs[11 * 9 - 1] == 5 / 10 ** 6
    assert run(capsys, "fit", str(path))[0] == 0


def test_fit_reads_a_huge_count_without_a_traceback(capsys, tmp_path):
    # a 25-digit count parses to a float past 2**53, which is not a count
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    rows[10] = "1" * 25 + "," + rows[10].split(",", 1)[1]
    path.write_text("".join(head + rows))
    assert_rejected(capsys, path, f"surface CSV line {len(head) + 11}: "
                    f"'{'1' * 25}' is not a count")


@pytest.mark.parametrize("noisy", [True, False], ids=["counts", "c_obs"])
def test_fit_rejects_the_header_its_metadata_does_not_imply(capsys, tmp_path,
                                                           noisy):
    # pairs_per_bin in the metadata makes the rows counts, its absence c_obs
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path, noisy)
    header, wrong = ("counts", "c_obs") if noisy else ("c_obs", "counts")
    path.write_text("".join(head[:-1] + [wrong + "\n"] + rows))
    assert_rejected(capsys, path,
                    f"surface CSV header '{wrong}' is not '{header}'")


def grid_rows(head, rows, fields):
    """One `q,d_omega,...` row per grid point, the earlier surface formats;
    `fields(c)` gives the columns after q and d_omega."""
    meta = check_metadata("".join(head))
    return [f"{q},{dw},{fields(c)}\n"
            for q, row in zip(meta["q_values_per_um"].split(), rows)
            for dw, c in zip(meta["d_omega_values_per_ps"].split(),
                             row.rstrip("\n").split(","))]


def test_fit_rejects_five_column_surface(capsys, tmp_path):
    # the earlier formats, q,d_omega,c_true,c_obs,sigma and then
    # q,d_omega,c_obs, are not read; a noisy file's header is 'counts'
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    for header, fields in [("q,d_omega,c_true,c_obs,sigma",
                            lambda c: f"{c},{c},0.001"),
                           ("q,d_omega,c_obs", lambda c: c)]:
        path.write_text("".join(head[:-1] + [header + "\n"]
                                + grid_rows(head, rows, fields)))
        assert_rejected(capsys, path,
                        f"surface CSV header '{header}' is not 'counts'")


def test_fit_rejects_short_rows(capsys, tmp_path):
    # every row short or one row short; a long row is rejected the same way
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    for edited in ([row.rsplit(",", 1)[0] + "\n" for row in rows],
                   [row.rstrip("\n") + ",1\n" for row in rows]):
        for body in (edited, rows[:10] + edited[10:11] + rows[11:]):
            path.write_text("".join(head + body))
            assert_rejected(capsys, path, "surface CSV rows need 9 values")


def test_fit_rejects_missing_metadata_keys(capsys, tmp_path):
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    for key in ("case", "tau_ps", "emission", "q_values_per_um",
                "d_omega_values_per_ps", "seed"):
        kept = [line for line in head if not line.startswith(f"# {key} =")]
        assert len(kept) == len(head) - 1
        path.write_text("".join(kept + rows))
        assert_rejected(capsys, path, f"metadata lacks {key}")


def test_fit_rejects_negative_seed(capsys, tmp_path):
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    head = ["# seed = -1\n" if line.startswith("# seed =") else line
            for line in head]
    path.write_text("".join(head + rows))
    assert_rejected(capsys, path, "seed must be non-negative")


@pytest.mark.parametrize("key, message", [
    ("R_um", "case A requires a finite R > 0"),
    ("tau_ps", "tau must be positive and finite"),
    ("q_values_per_um", "grid values must be finite"),
    ("d_omega_values_per_ps", "grid values must be finite"),
])
@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_fit_rejects_non_finite_metadata(capsys, tmp_path, key, message,
                                         bad):
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    line = next(i for i, text in enumerate(head)
                if text.startswith(f"# {key} ="))
    values = head[line].split("=")[1].split()
    head[line] = f"# {key} = {' '.join([bad] + values[1:])}\n"
    path.write_text("".join(head + rows))
    assert_rejected(capsys, path, message)


@pytest.mark.parametrize("key, bad, noun", [
    ("tau_ps", "1ps", "a number"),
    ("R_um", "1 2", "a number"),
    ("q_values_per_um", "0x", "a number"),
    ("pairs_per_bin", "1000000.0", "an integer"),
    ("seed", "5.0", "an integer"),
    ("case", "X", "one of A, B, C, D, E"),
    ("emission", "loud", "one of chaotic, coherent"),
])
def test_fit_names_the_metadata_value_that_does_not_parse(capsys, tmp_path,
                                                          key, bad, noun):
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    line = next(i for i, text in enumerate(head)
                if text.startswith(f"# {key} ="))
    values = head[line].split("=")[1].split()
    head[line] = f"# {key} = {' '.join([bad] + values[1:])}\n"
    path.write_text("".join(head + rows))
    assert_rejected(capsys, path, f"surface CSV line {line + 1}: "
                    f"{key} = '{bad}' is not {noun}")


@pytest.mark.parametrize("key", ["pairs_per_bin", "tau_ps",
                                 "q_values_per_um"])
def test_fit_rejects_a_metadata_key_given_twice(capsys, tmp_path, key):
    # a reader that kept the last value would fit with a second
    # pairs_per_bin's errors, or pass a second tau_ps unseen
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    line = next(i for i, text in enumerate(head)
                if text.startswith(f"# {key} ="))
    # the copy goes last among the metadata, just above the header
    head.insert(len(head) - 1, head[line])
    path.write_text("".join(head + rows))
    assert_rejected(capsys, path, f"surface CSV lines {line + 1} and "
                    f"{len(head) - 1}: {key} given twice")


@pytest.mark.parametrize("old, new", [
    # with its window key misspelled, a smeared surface would fit as an
    # unsmeared one and print a tau of 0.046 ps for a true 1 ps
    ("# smear_dw_per_ps = 2\n", "# smear_dw_ps = 2\n"),
    ("# units = ", "# detector = spad\n# units = "),
], ids=["misspelled", "invented"])
def test_fit_rejects_a_metadata_key_it_does_not_write(capsys, tmp_path, old,
                                                      new):
    path = tmp_path / "surf.csv"
    code, _, _ = run(capsys, "synth", "--case", "D", "--smear-dw", "2",
                     "--pairs-per-bin", "1000000", "--seed", "2", "--out",
                     str(path))
    assert code == 0
    text = path.read_text()
    line = text[:text.index(old)].count("\n") + 1
    key = new[2:].split(" =")[0]
    path.write_text(text.replace(old, new))
    assert_rejected(capsys, path, f"surface CSV line {line}: unknown "
                    f"metadata key '{key}'")


def test_fit_reads_a_metadata_line_without_equals_as_a_comment(capsys,
                                                               tmp_path):
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    before = run(capsys, "fit", str(path))
    assert before[0] == 0
    path.write_text("".join(head[:-1] + ["# taken on the bench\n"]
                            + head[-1:] + rows))
    assert run(capsys, "fit", str(path)) == before


@pytest.mark.parametrize("case, edits", [
    ("A", {"tau_ps": "3", "R_um": "2.5"}),
    ("E", {"tau_ps": "2", "rdot_um_per_ps": "0.2"}),
    # a valid source whose truth is not finite on this grid
    ("E", {"tau_ps": "1e200"}),
    # None deletes the line: a file that names no source
    ("A", dict.fromkeys(["case", "emission", "tau_ps", "R_um"])),
    ("E", dict.fromkeys(["case", "emission", "tau_ps", "rdot_um_per_ps"])),
])
def test_fit_reads_no_truth_from_the_metadata(capsys, tmp_path, case, edits):
    # an instrument records the grid, the counts, N and W, not the source:
    # editing the source's parameters, or deleting them, leaves the fit's
    # output unchanged
    path = tmp_path / "surf.csv"
    code, _, _ = run(capsys, "synth", "--case", case, "--pairs-per-bin",
                     "1000000", "--seed", "5", "--out", str(path))
    assert code == 0
    before = run(capsys, "fit", str(path))
    assert before[0] == 0
    text = path.read_text()
    for key, value in edits.items():
        text, count = re.subn(rf"^# {key} = .*\n",
                              "" if value is None else f"# {key} = {value}\n",
                              text, flags=re.M)
        assert count == 1
    path.write_text(text)
    assert run(capsys, "fit", str(path)) == before


@pytest.mark.parametrize("kept, message", [
    (["R_um"], "metadata lacks case, emission, tau_ps"),
    (["case", "emission", "tau_ps"], "case A requires a finite R > 0"),
    (["case", "emission", "R_um"], "metadata lacks tau_ps"),
])
def test_fit_rejects_a_partial_source(capsys, tmp_path, kept, message):
    # the source keys are optional as a group: a file that names part of
    # a source is malformed, whichever part it keeps
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    source = ("# case =", "# emission =", "# tau_ps =", "# R_um =")
    head = [line for line in head if not line.startswith(source)
            or line.split()[1] in kept]
    path.write_text("".join(head + rows))
    assert_rejected(capsys, path, message)


def test_fit_rejects_non_numeric_field(capsys, tmp_path):
    path = tmp_path / "surf.csv"
    head, rows = write_default_surface(capsys, path)
    rows[10] = rows[10].rsplit(",", 1)[0] + ",1.0x\n"
    path.write_text("".join(head + rows))
    # rows[10] is the 11th line after the head
    assert_rejected(capsys, path,
                    f"surface CSV line {len(head) + 11}: '1.0x' is not a number")
