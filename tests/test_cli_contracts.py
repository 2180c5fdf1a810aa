"""The command-line contracts, one row per command line, run against
whichever `bubblehbt` Python imports: `src/` when PYTHONPATH names it, the
installed package otherwise.

A row's arguments, as typed after `bubblehbt`, run through `main` in this
process; a row that starts with `python` runs in a fresh interpreter that
imports the same package.  Each row runs once, in a directory of its own
holding only the files it reads, which earlier rows wrote.  A row checks its
exit code, that a failing command prints nothing on stdout, its stderr (and
stdout, where given) as a line count or the exact text, and that it leaves
the files it read and, if it exits 0, its --out file.  `grep` asks for
exactly n lines of stdout, stderr or a file to match, each with the number
it captures below the bound where one is given; `same_as` for the stdout
and stderr of another row.
"""

import io
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

import pytest

import bubblehbt
from bubblehbt.cli import main


class Row(NamedTuple):
    argv: str
    code: int = 0
    err: Union[int, str, None] = ""  # a line count, the text, or unchecked
    out: Union[int, str, None] = None
    reads: Dict[str, str] = {}  # name here: an earlier row's --out file
    edits: Sequence[Tuple[str, str]] = ()  # (regex, new), each matches once
    grep: Sequence[tuple] = ()  # (stdout, stderr or file, regex, n[, bound])
    same_as: Optional[str] = None


ROWS = [
    Row("eval --q 1 --dw 0.5"),
    Row("eval --q 1 --dw -1e-3"),
    # case E's series takes d_omega tau and mu alone: no power of tau under-
    # or overflows, and q = 1 at tau = 1e-80 ps is the origin limit
    Row("eval --case E --tau 1e-80 --q 1", out="C = 1.5\n"),
    # at tau = 30 ps the Gaussian time factor underflows to 0 in the range
    Row("figure1 --tau 30 --out fig1.csv", code=1, err="error: case A excess "
        "is 0 at q = 0.5 1/um; log10 of a zero excess is undefined\n"),
    Row("check --case A --q-grid 0:1:2 --dw-grid 0:1:2"),
    *(Row(f"check --case {case} --q-grid 0:6:5 --dw-grid 0:6:5")
      for case in "BCD"),
    Row("check --case E --q-grid 0.2:2:4 --dw-grid 0:2:4"),
    # through case E's q = 0 integrand and negative QAWO frequencies, on its
    # small-mu series (mu <= 0.12 and mu <= 0.0096 at the default r_dot),
    # and on the series from mu = 0.0102, just above its old switch at 0.01,
    # to 0.546, just below MU_SERIES_MAX: against mpmath the oracle's excess
    # is within 3e-9 there out to |d_omega tau| = 8 (1e-8 to 3e-8 at 10)
    *(Row(f"check --case E {grid} --out {name}", err=1,
          grep=[(name, r"^# max_relative_(?:excess_)?deviation = (\S+)$", 2,
                 1e-8)])
      for grid, name in [("--q-grid 0:2:5 --dw-grid -2:2:5", "e_check.csv"),
                         ("--q-grid 0:0.16:5 --dw-grid -5:5:11", "es.csv"),
                         ("--q-grid 0.17:9.1:5 --dw-grid -8:8:9",
                          "em.csv")]),
    # the oracle integrates in d_omega tau and q r_dot tau, so it keeps its
    # accuracy at any tau: each grid is one of tau = 1 scaled by 1/tau
    *(Row(f"check --case E --tau {tau} --q-grid 0:{q}:3 --dw-grid 0:{dw}:3",
          grep=[("stdout", r"^# max_relative_deviation = (\S+)$", 1, 1e-10)])
      for tau, q, dw in [("1e-100", "1e100", "1e100"),
                         ("1e-3", "1300", "700")]),
    # q r_dot t overflows in case E's integrand, where sin(inf) is no number
    Row("check --case E --tau 10 --q-grid 0:1e308:2 --dw-grid 0:0:1", code=2,
        err="error: mu s overflows in case E's integrand at mu = "
        "5.99585e+307\n"),
    # every option has one spelling, so '--d' is not '--dw' after a space
    # or an '=' alike
    Row("eval --q 1 --d -1e-3", code=1,
        err="error: unrecognized arguments: --d -1e-3\n"),
    Row("eval --q 1 --d=-1e-3", code=1,
        err="error: unrecognized arguments: --d=-1e-3\n"),
    # at q = 0 case E takes its series whatever d_omega, and past
    # d_omega tau = 2.5e19 its powers of y^2 overflow: C is NaN; check says
    # so before any oracle call
    Row("eval --case E --q 0 --dw 1e100", code=2,
        err="error: C is not finite at q = 0, d_omega = 1e+100\n"),
    Row("check --case E --q-grid 0:0.1:2 --dw-grid 0:1e60:2 --out nan.csv",
        code=2, err="error: C is not finite at q = 0, "
        "d_omega = 9.9999999999999995e+59\n"),
    Row("synth --case E --q-grid 0:0:1 --dw-grid 1e100:1e100:1 --out x.csv",
        code=2, err=1, same_as="eval --case E --q 0 --dw 1e100"),
    Row("synth --case E --q-grid 0:1:3 --dw-grid 0:1e200:3 --out bad.csv",
        code=2, err="error: C is not finite at q = 0, "
        "d_omega = 4.9999999999999998e+199\n"),
    # the oracle's own rule: check computes every point before it opens
    # --out, so no file is written
    Row("check --case A --coherent --q-grid 0:1:2 --dw-grid 0:1:2 "
        "--out coh.csv", code=1,
        err="error: the oracle applies to chaotic sources\n"),
    # check builds its grid as synth does: min = max over three points is
    # one q three times
    *(Row(f"{command} --case A --q-grid 1:1:3 --dw-grid 0:0:2 --out {name}",
          code=1, err="error: q_values must be strictly increasing\n")
      for command, name in [("check", "g.csv"), ("synth", "gs.csv")]),
    Row("synth --q-grid 0:3 --out g3.csv", code=1,
        err="error: bad grid '0:3', expected min:max:n\n"),
    # 10**14 points ask numpy for 728 TiB, which it refuses outright
    Row("synth --q-grid 0:1:100000000000000 --out h.csv", code=1,
        err="error: Unable to allocate 728. TiB for an array with shape "
        "(100000000000000,) and data type float64\n"),
    # bounds whose difference overflows give their finite points
    Row("synth --case A --dw-grid -1e308:1e308:3 --out o.csv", out="",
        grep=[("o.csv", r"^# d_omega_values_per_ps = -1e\+308 0 1e\+308$",
               1)]),
    # E far out on both axes is not finite; C far out in q R is its form
    # factor's limit 0, as smeared D where tau W overflows is <T>'s
    Row("synth --case E --q-grid 0:1e300:3 --dw-grid 0:1e300:3 "
        "--out e300.csv", code=2, err=1),
    Row("synth --case C --R 1e300 --q-grid 0:1e300:3 --out c300.csv"),
    Row("synth --case D --smear-dw 1e308 --tau 1e10 --out sd.csv"),
    # a noiseless file holds c_obs, a noisy one its integer counts
    Row("synth --case D --out d.csv", grep=[("d.csv", "^c_obs$", 1)]),
    Row("fit d.csv", reads={"d.csv": "d.csv"}),
    # the origin slice is both d_omega columns, each q twice
    Row("synth --case A --dw-grid -1:1:2 --out s.csv"),
    Row("fit s.csv", reads={"s.csv": "s.csv"},
        grep=[("stdout", "^kappa_hat = ", 1)]),
    Row("synth --case B --smear-dw 2 --out b.csv"),
    Row("fit b.csv", reads={"b.csv": "b.csv"}),
    Row("synth --case D --smear-dw 2 --out ds.csv"),
    Row("fit ds.csv", reads={"ds.csv": "ds.csv"}),
    # a smeared excess has zero d_omega^2 slopes by construction, so its
    # fit prints no tau (the slice chain read 0.046 ps here); with its
    # window key misspelled, the file would fit unsmeared
    Row("synth --case D --smear-dw 2 --pairs-per-bin 1000000 --seed 2 "
        "--out ds2.csv"),
    Row("fit ds2.csv", reads={"ds2.csv": "ds2.csv"},
        grep=[("stdout", "^tau_hat_ps = ", 0)]),
    Row("fit ds2bad.csv", code=1, err=1, reads={"ds2bad.csv": "ds2.csv"},
        edits=[("^# smear_dw_per_ps = ", "# smear_dw_ps = ")]),
    Row("synth --case A --coherent --smear-dw 0 --out c0.csv", code=1,
        err="error: smearing window must be positive and finite\n"),
    Row("synth --case A --dw-grid 0:0:1 --out w.csv"),
    Row("fit w.csv", reads={"w.csv": "w.csv"}),
    Row("synth --case A --dw-grid 2:5:1 --out p.csv", code=1,
        err="error: bad grid '2:5:1'\n"),
    Row("synth --case E --pairs-per-bin 1000000 --out e.csv",
        grep=[("e.csv", "^counts$", 1)]),
    Row("fit e.csv", reads={"e.csv": "e.csv"}),
    # the fit reads the observation, not the source: editing tau_ps, even
    # to a truth that is not finite, or deleting the source leaves its
    # output as it was
    Row("fit e3.csv", reads={"e3.csv": "e.csv"},
        edits=[("^# tau_ps = .*", "# tau_ps = 3")], same_as="fit e.csv"),
    Row("fit e200.csv", reads={"e200.csv": "e.csv"},
        edits=[("^# tau_ps = .*", "# tau_ps = 1e200")], same_as="fit e.csv"),
    Row("fit e0.csv", reads={"e0.csv": "e.csv"},
        edits=[(rf"^# {key} = .*\n", "")
               for key in ("case", "emission", "tau_ps", "rdot_um_per_ps")],
        same_as="fit e.csv"),
    # fit loads no scipy, leaving E's dawsn and smeared D's sici uncomputed
    *(Row(f"python -X importtime -m bubblehbt.cli fit {name}", err=None,
          reads={name: name}, grep=[("stderr", "scipy", 0),
                                    ("stderr", r"\| +bubblehbt\.synth$", 1)])
      for name in ("d.csv", "e.csv", "ds.csv")),
    Row("fit eps.csv", code=1, err=1, reads={"eps.csv": "e.csv"},
        edits=[("^# tau_ps = .*", "# tau_ps = 1ps")]),
    Row("fit e2seed.csv", code=1, err=1, reads={"e2seed.csv": "e.csv"},
        edits=[(r"^(# seed = .*\n)", r"\1\1")]),
    # counts are exact up to N = 2**49 pairs per bin, and a count is digits
    # below 2**53: no sign, decimal point or exponent
    Row("synth --case A --pairs-per-bin 562949953421313 --out N.csv",
        code=1, err="error: pairs_per_bin must be at most 2**49\n"),
    Row("synth --pairs-per-bin 1000 --seed -1 --out n.csv", code=1,
        err="error: seed must be non-negative\n"),
    *(Row(f"fit {name}", code=1, err=1, reads={name: "e.csv"},
          edits=[(r"^\d+(?=.*\n\Z)", value)])  # the last row's first count
      for name, value in [("e15.csv", "1.5"), ("e53.csv", "9007199254740992"),
                          ("e1e3.csv", "1e3"), ("em0.csv", "-0")]),
]


def out_file(argv):
    words = argv.split()
    return words[words.index("--out") + 1] if "--out" in words else None


def run(argv, where):
    """The exit code, stdout and stderr of `argv` run in `where`."""
    if argv[0] == "python":
        package = os.path.dirname(os.path.dirname(bubblehbt.__file__))
        done = subprocess.run([sys.executable, *argv[1:]], cwd=where,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": package})
        return done.returncode, done.stdout, done.stderr
    out, err = io.StringIO(), io.StringIO()
    # a warning, which a fresh interpreter would print on stderr, raises
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(), \
            redirect_stdout(out), redirect_stderr(err):
        patch.chdir(where)
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    """`outcome(argv)`: the exit code, stdout, stderr and directory of the
    row `argv`, which runs on the first call."""
    rows = {row.argv: row for row in ROWS}
    writers = {out_file(argv): argv for argv in rows}
    done = {}

    def outcome(argv):
        if argv not in done:
            row, where = rows[argv], tmp_path_factory.mktemp("row")
            for name, source in row.reads.items():
                text = (outcome(writers[source])[3] / source).read_text()
                for pattern, new in row.edits:
                    text, count = re.subn(pattern, new, text, flags=re.M)
                    assert count == 1, (pattern, count)
                (where / name).write_text(text)
            done[argv] = (*run(argv.split(), where), where)
        return done[argv]

    return outcome


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.argv)
def test_contract(outcome, row):
    code, out, err, where = outcome(row.argv)
    assert code == row.code, err
    assert code == 0 or out == ""
    for text, expected in [(out, row.out), (err, row.err)]:
        if isinstance(expected, int):
            assert text.count("\n") == expected, text
        elif expected is not None:
            assert text == expected
    files = {path.name: path.read_text() for path in where.iterdir()}
    written = [out_file(row.argv)] if code == 0 and "--out" in row.argv else []
    assert sorted(files) == sorted([*row.reads, *written])
    texts = {"stdout": out, "stderr": err, **files}
    for target, pattern, n, *bound in row.grep:
        found = [match for match in map(re.compile(pattern).search,
                                        texts[target].splitlines()) if match]
        assert len(found) == n, (target, pattern)
        assert all(float(match[1]) < b for match in found for b in bound)
    if row.same_as:
        assert (out, err) == outcome(row.same_as)[1:3]
