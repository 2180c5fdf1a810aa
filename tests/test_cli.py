"""Command-line interface: what a contract row cannot state, and, under the
ids they had as tests here, the contract rows of exit codes, messages and
files.

A test made by `contract` checks rows as `test_cli_contracts.py` does, a
row of this file or the argv of one of that table's rows; the rows read
the table's surfaces (a5.csv, a.csv, e5.csv, ...).  The other tests
compute their expectations from the package or from the files it writes,
patch it, or read a file in this process.
"""

import math
import re

import numpy as np
import pytest

from bubblehbt import oracle
from bubblehbt.cli import main
from bubblehbt.correlators import kappa_analytic
from bubblehbt.sources import SourceCase
from bubblehbt.synth import read_surface_csv
# `outcome` is the fixture that the tests `contract` makes ask for
from test_cli_contracts import Row, contract, outcome  # noqa: F401


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


def check_metadata(text):
    return dict(line[2:].split(" = ") for line in text.splitlines()
                if line.startswith("# "))


# edits of the table's surfaces: the first or the last value of the 11th
# data row, file line 22 of a5.csv and a.csv; the first value of a metadata
# key; and deleting metadata keys
FIRST = r"^((?:counts|c_obs)\n(?:.*\n){10})[^,\n]+"
LAST = r"^((?:counts|c_obs)\n(?:.*\n){10}.*,)[^,\n]+$"


def meta(key, value):
    return [(rf"^(# {key} = )\S+", rf"\g<1>{value}")]


def drop(*keys):
    return [(rf"^# {key} = .*\n", "") for key in keys]


def rejected(name, message, source="a5.csv", edits=()):
    """`fit name`, a copy of `source` with `edits`, exits 1 with
    `message`."""
    return Row(f"fit {name}", code=1, err=f"error: {message}\n",
               reads={name: source}, edits=edits)


def lacks(*keys):
    """`fit` of a5.csv without `keys` names them."""
    return rejected(f"no_{'-'.join(keys)}.csv", "surface CSV metadata lacks "
                    + ", ".join(keys), edits=drop(*keys))


test_eval_origin = contract([Row("eval --case A --q 0 --dw 0",
                                 out="C = 1.5\n")])
test_eval_coherent = contract([Row("eval --case B --q 2.0 --coherent",
                                   out="C = 1\n")])
test_check_exponential_matches_oracle = contract([Row(
    "check --case D --q-grid 0:6:10 --dw-grid 0:6:10 --out d_check.csv",
    err=1, grep=[("stderr", r"^max relative deviation = (\S+)$", 1, 1e-6),
                 ("d_check.csv", "^# max_relative_deviation = ", 1)])])


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


# far from the origin every oracle excess is below 1e-12: the excess
# deviation is undefined, and C's is located at the first point
test_check_without_excess_above_floor = contract([Row(
    "check --case A --q-grid 50:60:2 --dw-grid 50:60:2",
    grep=[("stdout", "^# max_relative_excess_deviation = nan$", 1),
          ("stdout", "^# max_deviation_q_per_um = 50$", 1),
          ("stdout", "^# max_deviation_d_omega_per_ps = 50$", 1)])])


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


SEED_42 = "synth --case A --pairs-per-bin 10000 --seed 42 --out"
test_synth_is_deterministic = contract([
    Row(f"{SEED_42} s42.csv"),
    Row(f"{SEED_42} t42.csv", same_as=f"{SEED_42} s42.csv")])
# '--dw-grid -1:1:2' reads the value as '--dw-grid=-1:1:2' does
test_negative_grid_value_after_a_space = contract([Row(
    "synth --case A --dw-grid=-1:1:2 --out s2.csv",
    same_as="synth --case A --dw-grid -1:1:2 --out s.csv",
    grep=[("s2.csv", "^# d_omega_values_per_ps = -1 1$", 1)])])
# argparse takes '-1e-3' for an option; every numeric option reads it as
# '--dw=-1e-3' does
test_negative_exponent_value_after_a_space = contract([Row(
    "eval --q 1 --dw=-1e-3", out="C = 1.1839395366460925\n",
    same_as="eval --q 1 --dw -1e-3")])
# '--out -a.csv' reads the path as '--out=-a.csv' does, and fit takes such
# a path after '--'; an option after --out is not its path
test_out_path_that_starts_with_a_dash = contract([
    Row("synth --case A --out -a.csv", out=""),
    Row("synth --case A --out=-b.csv", same_as="synth --case A --out -a.csv"),
    Row("fit -- -a.csv", reads={"-a.csv": "-a.csv"},
        grep=[("stdout", "^chaoticity = chaotic$", 1)]),
    Row("synth --case A --out --coherent", code=1,
        err="error: argument --out: expected one argument\n")])
test_negative_tau_after_a_space_is_a_value_error = contract([Row(
    "eval --q 1 --tau -1e-3", code=1,
    err="error: tau must be positive and finite\n")])
test_synth_metadata_header = contract([Row(
    "synth --case C --R 1.5 --tau 2.0 --out c15.csv",
    grep=[("c15.csv", f"^{line}$", 1) for line in
          ("# case = C", "# R_um = 1.5", "# tau_ps = 2", "c_obs")])])


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


# mu = rdot tau q and mu z± overflow there; the excess is at its limit 0
test_eval_case_e_at_huge_q_is_unity = contract({
    q: [Row(f"eval --case E --q {q}", out="C = 1\n")]
    for q in ("1e200", "1e300")})
# C: 3 (sin x - x cos x) overflows; B: q R overflows to inf, where
# sin(x)/x has its limit 0
test_eval_form_factor_at_huge_q_is_unity = contract({
    f"argv{i}": [Row(f"eval {argv}", out="C = 1\n")] for i, argv in
    enumerate(["--case C --q 1e308", "--case B --R 2 --q 1e308"])})
# (d_omega tau)^2 overflows to inf, so T = exp(-inf) = 0 exactly: the last
# c_obs of each row, at d_omega = 1e200 (17 digits: 9.9999999999999997e+199),
# is 1
test_synth_at_huge_d_omega_is_quiet = contract([Row(
    "synth --case A --dw-grid 0:1e200:3 --out w200.csv", out="",
    grep=[("w200.csv", r"^# d_omega_values_per_ps = 0 \S+ "
           r"9\.9999999999999997e\+199$", 1),
          ("w200.csv", ",1$", 61)])])
test_usage_error_exit_code = contract([
    # argparse quotes the choices differently from Python 3.12 on
    Row("eval --case Z --q 1", code=1, err=1,
        grep=[("stderr", "^error: argument --case: invalid choice: 'Z' ", 1)]),
    Row("eval --case A --q -1", code=1,
        err="error: q_values must be non-negative\n"),
    # a subcommand that writes a file needs --out, which argparse requires
    *(Row(command, code=1,
          err="error: the following arguments are required: --out\n")
      for command in ("synth", "figure1", "figure2"))])
test_non_finite_floats_are_usage_errors = contract({
    f"argv{i}": [Row(argv, code=1, err=f"error: {message}, got '{bad}'\n")]
    for i, (argv, message, bad) in enumerate([
        ("eval --q nan", "argument --q: expected a finite number", "nan"),
        ("eval --q 1 --dw inf", "argument --dw: expected a finite number",
         "inf"),
        ("eval --q 1 --R inf", "argument --R: expected a finite number",
         "inf"),
        ("synth --q-grid nan:3:5 --out n1.csv",
         "bad grid 'nan:3:5': expected a finite number", "nan"),
        ("check --q-grid 0:nan:3 --out n2.csv",
         "bad grid '0:nan:3': expected a finite number", "nan"),
        ("eval --q abc", "argument --q: expected a finite number", "abc")])})
# linspace(2, 5, 1) is [2]: a one-point grid would silently drop max
test_one_point_grid_needs_min_equal_to_max = contract([
    "synth --case A --dw-grid 2:5:1 --out p.csv",
    Row("synth --case A --dw-grid 2:2:1 --out p1.csv",
        grep=[("p1.csv", "^# d_omega_values_per_ps = 2$", 1)])])
# <T> is its limit 0 there, as case A's is: every C is 1
test_smeared_d_where_tau_w_overflows = contract([
    Row("synth --case A --smear-dw 1e308 --tau 1e10 --out sa.csv", out="",
        grep=[("sa.csv", r"^1(,1){8}$", 61)]),
    "synth --case D --smear-dw 1e308 --tau 1e10 --out sd.csv"])
test_numerical_failure_exit_code = contract([
    # four q, but the fourth lies far outside the curvature window
    Row("synth --case A --q-grid 0:3:4 --out q4.csv"),
    Row("fit q4.csv", code=2, reads={"q4.csv": "q4.csv"},
        err="error: window too narrow: fourth q at X = 1.49 > 0.5\n"),
    # a clear chaotic excess, but Phi_hat needs the excess at q = 0
    Row("synth --case A --q-grid 0.6:3:25 --out q06.csv"),
    Row("fit q06.csv", code=2, reads={"q06.csv": "q06.csv"},
        err="error: no origin coverage: the grid lacks q = 0\n"),
    "synth --case E --q-grid 0:1:3 --dw-grid 0:1e200:3 --out bad.csv",
    "eval --case E --q 0 --dw 1e100",
    "check --case E --q-grid 0:0.1:2 --dw-grid 0:1e60:2 --out nan.csv"])


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
    assert f"error: {raised.value}\n" == (
        "error: C is not finite at q = 0, d_omega = 4.9999999999999998e+199\n")


# a symmetric d_omega grid lists each q twice in the origin slice
test_too_few_distinct_q_exit_code = contract({
    name: [Row(f"synth --case A --q-grid 0:3:3{grid} --out {name}.csv"),
           Row(f"fit {name}.csv", code=2, reads={f"{name}.csv": f"{name}.csv"},
               err="error: window too narrow: 3 distinct q points, the fit "
                   "needs 4\n")]
    for name, grid in [("three-q", ""),
                       ("three-q-symmetric-dw", " --dw-grid=-1:1:2")]})
# smearing over 1e6 / ps washes the origin excess into the noise
test_renormalization_failure_exit_code = contract([
    Row("synth --case A --smear-dw 1e6 --pairs-per-bin 1000000 --out w6.csv"),
    Row("fit w6.csv", code=2, reads={"w6.csv": "w6.csv"},
        err="error: cannot renormalize: no significant correlation at "
            "origin\n")])
# a coherent surface's C is 1 at any window, but a window it could not be
# smeared over is still an input error
test_synth_checks_the_window_whatever_the_emission = contract({
    "A-negative": [Row("synth --case A --coherent --smear-dw -1 --out cn.csv",
                       code=1, err="error: smearing window must be positive "
                                   "and finite\n")],
    "E": [Row("synth --case E --coherent --smear-dw 2 --out ce.csv", code=1,
              err="error: smearing of the non-factorized case E is "
                  "unsupported\n")]})
test_fit_checks_the_window_of_a_coherent_surface = contract({
    window: [rejected(f"coh{window}.csv",
                      "smearing window must be positive and finite",
                      "coh2.csv", meta("smear_dw_per_ps", window))]
    for window in ("nan", "0", "-1")})
test_missing_file_exit_code = contract([Row("fit absent.csv", code=1, err=1)])


def test_oracle_nonconvergence_exit_code(capsys, oracle_tolerance, tmp_path):
    # with 6 subdivisions the oracle fails mid-grid, at q = 4 after 8 of
    # the 16 rows: no partial CSV is left behind
    oracle_tolerance("MAX_SUBDIVISIONS", 6)
    path = tmp_path / "check.csv"
    code, out, err = run(capsys, "check", "--case", "D", "--q-grid", "0:6:4",
                         "--dw-grid", "0:6:4", "--out", str(path))
    assert (code, out, err) == (2, "", "error: The maximum number of "
                                "subdivisions (6) has been achieved.\n")
    assert not path.exists()


# scipy.stats, scipy.integrate (with the scipy.optimize it loads) and the
# oracle are a large share of start-up: the CLI loads the oracle in `check`
# only, and nothing needs scipy.stats; the package root loads no submodule
# at all, and not numpy
IMPORTED = r"\| +{}$"
test_cli_import_leaves_out_scipy_stats = contract([
    Row("python -X importtime -c __import__('bubblehbt.cli')", err=None,
        grep=[("stderr", IMPORTED.format(r"bubblehbt\.cli"), 1),
              ("stderr", IMPORTED.format(r"(scipy\.(stats|integrate|optimize)"
                                         r"|bubblehbt\.oracle)"), 0)]),
    Row("python -X importtime -c __import__('bubblehbt')", err=None,
        grep=[("stderr", IMPORTED.format("bubblehbt"), 1),
              ("stderr", IMPORTED.format(r"(bubblehbt\..*|numpy)"), 0)])])
# scipy.special loads inside the functions that need it, so a subcommand
# that calls none of them runs on numpy alone
test_numpy_only_subcommands_load_no_scipy = contract({
    name: [Row(f"python -X importtime -m bubblehbt.cli {argv}", err=None,
               grep=[("stderr", "scipy", 0)])]
    for name, argv in [("eval-A", "eval --case A --q 1"),
                       ("figure2", "figure2 --out f2np.csv")]})
# the factorization p-value is special_functions.chi2_survival, and the
# reader leaves the truth (case E's dawsn, smeared D's sici) until it is
# read, which the fit never does: `fit` runs on numpy alone
test_fit_loads_no_scipy = contract({
    case: [Row(f"python -X importtime -m bubblehbt.cli fit {name}", err=None,
               reads={name: name}, grep=[("stderr", "scipy", 0)])]
    for case, name in [("D", "d5.csv"), ("E", "e5.csv"),
                       ("D-smeared", "ds5.csv")]})

# --- malformed surface CSVs: exit 1 with one line ---------------------------

test_fit_rejects_a_figure_csv = contract([
    Row("figure2 --out f2.csv"),
    rejected("fig.csv", "not a correlation surface CSV", "f2.csv")])
# the rows replaced by nothing, by blank lines or by whitespace: numpy's
# "input contained no data" warning must not reach stderr
ROWLESS = {tail: [rejected(f"rowless{i}.csv", "surface CSV has no data rows",
                           edits=[(r"^counts\n[\s\S]*", "counts\n" + tail)])]
           for i, tail in enumerate(["", "\n\n", "   \n\t\n"])}
test_fit_rejects_surface_without_rows = contract(ROWLESS[""])
test_fit_rejects_rowless_surface_quietly = contract(ROWLESS)
# '#' lines are metadata only above the header
test_fit_rejects_comment_among_rows = contract([rejected(
    "note.csv", "surface CSV line 22: '#' line among the data rows",
    edits=[(r"^(counts\n(?:.*\n){10})", r"\g<1># note = x\n")])])
# one row per q of the metadata grid
test_fit_rejects_a_missing_or_an_extra_row = contract([
    rejected("rows60.csv",
             "surface CSV has 60 rows, its metadata grid 61 q values",
             edits=[(r"^.*\n\Z", "")]),
    rejected("rows62.csv",
             "surface CSV has 62 rows, its metadata grid 61 q values",
             edits=[(r"^(counts\n)(.*\n)", r"\1\2\2")])])
# in c_obs rows; in count rows it is not a count (below)
test_fit_rejects_non_finite_values = contract([rejected(
    "cnan.csv", "surface CSV holds non-finite values", "a.csv",
    [(FIRST, r"\g<1>nan")])])
# a noisy file holds counts n = N c_obs: ASCII digits below 2**53, with no
# sign '-', decimal point or exponent, so an integral float such as 5.0 or
# 1e3 is not a count either
test_fit_rejects_a_value_that_is_not_a_count = contract({
    value: [rejected(f"count{i}.csv",
                     f"surface CSV line 22: '{value}' is not a count",
                     edits=[(LAST, rf"\g<1>{value}")])]
    for i, value in enumerate(["1.5", "-3", "inf", "nan", "-0",
                               "9007199254740992", "5.0", "1e3"])})


def test_fit_reads_a_count_with_a_plus_sign(capsys, tmp_path):
    # a count may carry a '+', as Python's int() and numpy's integer parser
    # both take it: '+5' is the count 5
    path = tmp_path / "surf.csv"
    assert run(capsys, "synth", "--case", "A", "--pairs-per-bin", "1000000",
               "--seed", "5", "--out", str(path))[0] == 0
    path.write_text(re.sub(LAST, r"\g<1>+5", path.read_text(), flags=re.M))
    assert read_surface_csv(str(path)).c_obs[11 * 9 - 1] == 5 / 10 ** 6
    assert run(capsys, "fit", str(path))[0] == 0


# a 25-digit count parses to a float past 2**53, which is not a count
test_fit_reads_a_huge_count_without_a_traceback = contract([rejected(
    "count25.csv", f"surface CSV line 22: '{'1' * 25}' is not a count",
    edits=[(FIRST, rf"\g<1>{'1' * 25}")])])
# pairs_per_bin in the metadata makes the rows counts, its absence c_obs
test_fit_rejects_the_header_its_metadata_does_not_imply = contract({
    "counts": [rejected("hc.csv", "surface CSV header 'c_obs' is not "
                        "'counts'", edits=[("^counts$", "c_obs")])],
    "c_obs": [rejected("hn.csv", "surface CSV header 'counts' is not "
                       "'c_obs'", "a.csv", [("^c_obs$", "counts")])]})
# the earlier formats, q,d_omega,c_true,c_obs,sigma and then q,d_omega,c_obs,
# are not read: the reader checks the header before any row
test_fit_rejects_five_column_surface = contract([
    rejected(f"old{i}.csv", f"surface CSV header '{header}' is not 'counts'",
             edits=[("^counts$", header)])
    for i, header in enumerate(["q,d_omega,c_true,c_obs,sigma",
                                "q,d_omega,c_obs"])])
# every row short or one row short; a long row is rejected the same way
test_fit_rejects_short_rows = contract([
    rejected(f"width{i}.csv", "surface CSV rows need 9 values", edits=[edit])
    for i, edit in enumerate([
        (r",\d+$", "", 61), (r"^(counts\n(?:.*\n){10}.*),\d+$", r"\1"),
        (r"^\d.*$", r"\g<0>,1", 61),
        (r"^(counts\n(?:.*\n){10}.*)$", r"\1,1")])])
test_fit_rejects_missing_metadata_keys = contract([
    lacks(key) for key in ("case", "emission", "tau_ps", "q_values_per_um",
                           "d_omega_values_per_ps", "seed")])
test_fit_rejects_negative_seed = contract([rejected(
    "seed-1.csv", "seed must be non-negative", edits=meta("seed", -1))])
test_fit_rejects_non_finite_metadata = contract({
    f"{bad}-{key}-{message}": [rejected(f"{key}_{bad}.csv", prefix + message,
                                        edits=meta(key, bad))]
    for bad in ("inf", "nan")
    for key, prefix, message in [
        ("R_um", "", "case A requires a finite R > 0"),
        ("tau_ps", "", "tau must be positive and finite"),
        ("q_values_per_um", "surface CSV line 6: q_values_per_um: ",
         "grid values must be finite"),
        ("d_omega_values_per_ps", "surface CSV line 7: "
         "d_omega_values_per_ps: ", "grid values must be finite")]})
test_fit_names_the_metadata_value_that_does_not_parse = contract({
    f"{key}-{bad}-{noun}": [rejected(
        f"{key}_bad.csv",
        f"surface CSV line {line}: {key} = '{bad}' is not {noun}",
        edits=meta(key, bad))]
    for key, line, bad, noun in [
        ("tau_ps", 4, "1ps", "a number"), ("R_um", 5, "1 2", "a number"),
        ("q_values_per_um", 6, "0x", "a number"),
        ("pairs_per_bin", 8, "1000000.0", "an integer"),
        ("seed", 9, "5.0", "an integer"),
        ("case", 2, "X", "one of A, B, C, D, E"),
        ("emission", 3, "loud", "one of chaotic, coherent")]})
# a reader that kept the last value would fit with a second pairs_per_bin's
# errors, or pass a second tau_ps unseen; the copy goes last among the
# metadata, on line 11, just above the header
test_fit_rejects_a_metadata_key_given_twice = contract({
    key: [rejected(f"twice_{key}.csv",
                   f"surface CSV lines {line} and 11: {key} given twice",
                   edits=[(rf"^(# {key} = .*\n)([\s\S]*\n)(?=counts$)",
                           r"\1\2\1")])]
    for key, line in [("pairs_per_bin", 8), ("tau_ps", 4),
                      ("q_values_per_um", 6)]})
test_fit_rejects_a_metadata_key_it_does_not_write = contract({
    "misspelled": ["fit ds2bad.csv"],
    "invented": [rejected(
        "ds2det.csv", "surface CSV line 11: unknown metadata key 'detector'",
        "ds2.csv", [("^# units = ", "# detector = spad\n# units = ")])]})
test_fit_reads_a_metadata_line_without_equals_as_a_comment = contract([Row(
    "fit bench.csv", reads={"bench.csv": "a5.csv"},
    edits=[("^counts$", "# taken on the bench\ncounts")],
    same_as="fit a5.csv")])
# an instrument records the grid, the counts, N and W, not the source:
# editing the source's parameters, even to a truth that is not finite on
# this grid, or deleting them, leaves the fit's output unchanged
test_fit_reads_no_truth_from_the_metadata = contract({
    f"{source[0].upper()}-edits{i}": [Row(
        f"fit truth{i}.csv", reads={f"truth{i}.csv": source}, edits=edits,
        same_as=f"fit {source}")]
    for i, (source, edits) in enumerate([
        ("a5.csv", meta("tau_ps", 3) + meta("R_um", 2.5)),
        ("e5.csv", meta("tau_ps", 2) + meta("rdot_um_per_ps", 0.2)),
        ("e5.csv", meta("tau_ps", "1e200")),
        ("a5.csv", drop("case", "emission", "tau_ps", "R_um")),
        ("e5.csv", drop("case", "emission", "tau_ps", "rdot_um_per_ps"))])})
# the source keys are optional as a group: a file that names part of a
# source is malformed, whichever part it keeps
test_fit_rejects_a_partial_source = contract({
    "kept0-metadata lacks case, emission, tau_ps": [
        lacks("case", "emission", "tau_ps")],
    "kept1-case A requires a finite R > 0": [rejected(
        "no_R_um.csv", "case A requires a finite R > 0", edits=drop("R_um"))],
    "kept2-metadata lacks tau_ps": [lacks("tau_ps")]})
test_fit_rejects_non_numeric_field = contract([rejected(
    "field.csv", "surface CSV line 22: '1.0x' is not a number",
    edits=[(LAST, r"\g<1>1.0x")])])
