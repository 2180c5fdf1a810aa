"""Property tests of the closed-form correlators over random sources and
points, and fuzzing of the input boundary (hypothesis, derandomized so
every run draws the same examples)."""

import contextlib
import functools
import io
import math
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bubblehbt.cli import main
from bubblehbt.correlators import (CHAOTICITY, FACTORIZED_CASES,
                                   MU_SERIES_MAX, correlation, excess)
from bubblehbt.kinematics import C_UM_PER_PS
from bubblehbt.sources import Emission, SourceCase, SourceSpec
from bubblehbt.synth import (GridSpec, NoiseSpec, generate,
                             read_surface_csv, tabulate, write_surface_csv)

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                             max_examples=50)

scale = st.floats(min_value=0.05, max_value=20.0)
q_values = st.floats(min_value=0.0, max_value=30.0)
d_omega_rows = st.lists(st.floats(min_value=-30.0, max_value=30.0),
                        min_size=1, max_size=8)


@st.composite
def sources(draw, cases=tuple(SourceCase), emission=Emission.CHAOTIC):
    case = draw(st.sampled_from(cases))
    tau = draw(scale)
    if case is SourceCase.E_EXPANDING_SHOCK:
        r_dot = draw(st.floats(min_value=1e-4, max_value=0.0099)) * C_UM_PER_PS
        return SourceSpec(case=case, tau=tau, r_dot=r_dot, emission=emission)
    return SourceSpec(case=case, tau=tau, R=draw(scale), emission=emission)


@PROPERTY_SETTINGS
@given(sources(), q_values, d_omega_rows)
def test_excess_between_zero_and_chaoticity(spec, q, d_omega):
    excess = correlation(spec, q, np.array(d_omega)).excess
    # case E's series branch rounds to 0.5000000000000004 near q = 0
    slack = 1e-14 if spec.case is SourceCase.E_EXPANDING_SHOCK else 0.0
    assert ((0.0 <= excess) & (excess <= CHAOTICITY * (1.0 + slack))).all()


@PROPERTY_SETTINGS
@given(sources(cases=FACTORIZED_CASES), q_values, d_omega_rows)
def test_factorized_excess_is_even_in_d_omega(spec, q, d_omega):
    d_omega = np.array(d_omega)
    assert np.array_equal(correlation(spec, q, -d_omega).excess,
                          correlation(spec, q, d_omega).excess)


@PROPERTY_SETTINGS
@given(sources(emission=Emission.COHERENT), q_values, d_omega_rows)
def test_coherent_correlation_is_one(spec, q, d_omega):
    assert (correlation(spec, q, np.array(d_omega)).c == 1.0).all()


@PROPERTY_SETTINGS
@given(sources(cases=(SourceCase.E_EXPANDING_SHOCK,)),
       st.floats(min_value=-5.0, max_value=5.0))
def test_case_e_branches_agree_at_the_series_switch(spec, d_omega_tau):
    # just below and just above mu = MU_SERIES_MAX, the series and the
    # direct form give the same excess: both are within 1e-13 of mpmath
    # there (tests/data/mpmath_references.csv).  |d_omega tau| stays <= 5,
    # so mu |y| stays below MU_Y_SERIES_MAX: further out, both branches lose
    # digits to cancellation (ROADMAP item 6), which this does not test.
    q_switch = MU_SERIES_MAX / (spec.r_dot * spec.tau)
    d_omega = np.array([d_omega_tau / spec.tau])
    series = excess(spec, (1.0 - 1e-12) * q_switch, d_omega)
    direct = excess(spec, (1.0 + 1e-12) * q_switch, d_omega)
    np.testing.assert_allclose(series, direct, rtol=1e-12, atol=0.0)


def log_uniform(lo_exp, hi_exp):
    """Floats 10**e with e uniform in [lo_exp, hi_exp]."""
    return st.floats(min_value=lo_exp, max_value=hi_exp).map(
        lambda e: 10.0 ** e)


magnitudes = log_uniform(-320.0, 308.0)


@st.composite
def extreme_sources(draw):
    """A source of any case and emission with tau (and R) from 1e-300 to
    1e300 and r_dot up to 0.0099 c, and a window from 1e-300 to 1e308 or
    none for A-D (E cannot be smeared)."""
    case = draw(st.sampled_from(SourceCase))
    emission = draw(st.sampled_from(Emission))
    tau = draw(log_uniform(-300.0, 300.0))
    if case is SourceCase.E_EXPANDING_SHOCK:
        r_dot = draw(log_uniform(-300.0, math.log10(0.0099))) * C_UM_PER_PS
        return SourceSpec(case=case, tau=tau, r_dot=r_dot,
                          emission=emission), None
    return (SourceSpec(case=case, tau=tau, R=draw(log_uniform(-300.0, 300.0)),
                       emission=emission),
            draw(st.none() | log_uniform(-300.0, 308.0)))


@PROPERTY_SETTINGS
@given(extreme_sources(),
       st.lists(st.just(0.0) | magnitudes, min_size=1, max_size=4,
                unique=True),
       st.lists(st.just(0.0) | magnitudes | magnitudes.map(lambda x: -x),
                min_size=1, max_size=4, unique=True))
def test_tabulate_is_finite_or_raises_its_one_error(source, q, d_omega):
    # nothing in tabulate silences numpy: tier-1 turns a RuntimeWarning
    # from any closed form into a failure, so each must scope the overflow
    # that it turns into its limit
    spec, smear_dw = source
    grid = GridSpec(q_values=sorted(q), d_omega_values=sorted(d_omega))
    try:
        e = tabulate(spec, grid, smear_dw)
    except ArithmeticError as exc:
        assert str(exc).startswith("C is not finite at q = ")
        return
    assert e.shape == (len(q), len(d_omega))
    assert np.isfinite(e).all()


# --- the input boundary -----------------------------------------------------

any_float = st.floats(allow_nan=True, allow_infinity=True)
# sorted rows reach a valid grid now and then; unsorted ones rarely do
float_rows = st.lists(any_float, max_size=5)
float_rows = float_rows | float_rows.map(sorted)


@PROPERTY_SETTINGS
@given(float_rows, float_rows)
def test_grid_spec_accepts_or_raises_value_error(q_values, d_omega_values):
    try:
        grid = GridSpec(q_values=q_values, d_omega_values=d_omega_values)
    except ValueError:
        return
    values = grid.q_values + grid.d_omega_values
    assert all(map(math.isfinite, values))
    assert grid.q_values[0] >= 0.0
    for row in (grid.q_values, grid.d_omega_values):
        assert all(a < b for a, b in zip(row, row[1:]))


# a valid value now and then lets a draw get past the earlier checks; the
# examples pin the edges that random draws seldom combine with valid rest
@PROPERTY_SETTINGS
@given(st.sampled_from(SourceCase), st.just(1.0) | any_float,
       st.none() | st.just(1.0) | any_float,
       st.none() | st.just(0.06) | any_float, st.sampled_from(Emission))
@example(SourceCase.E_EXPANDING_SHOCK, 1.0, None, 0.01 * C_UM_PER_PS,
         Emission.CHAOTIC)
@example(SourceCase.A_GAUSSIAN, math.inf, 1.0, None, Emission.CHAOTIC)
def test_source_spec_accepts_or_raises_value_error(case, tau, R, r_dot,
                                                   emission):
    try:
        spec = SourceSpec(case=case, tau=tau, R=R, r_dot=r_dot,
                          emission=emission)
    except ValueError:
        return
    assert 0.0 < spec.tau < math.inf
    if case is SourceCase.E_EXPANDING_SHOCK:
        assert 0.0 < spec.r_dot < 0.01 * C_UM_PER_PS
    else:
        assert 0.0 < spec.R < math.inf


@functools.lru_cache(maxsize=None)
def _surface_csv() -> bytes:
    """A small noisy case A surface that `fit` inverts with exit 0."""
    spec = SourceSpec(case=SourceCase.A_GAUSSIAN, tau=1.0, R=1.0)
    grid = GridSpec(q_values=np.linspace(0.0, 3.0, 31),
                    d_omega_values=np.linspace(0.0, 2.0, 5))
    surface = generate(spec, grid,
                       noise=NoiseSpec(pairs_per_bin=100000, seed=5))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "surface.csv")
        write_surface_csv(surface, path)
        with open(path, "rb") as fh:
            return fh.read()


def _fit_exit(data: bytes):
    """`main(["fit", path])` on a file holding data: exit code, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "surface.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["fit", path])
    return code, err.getvalue()


edits = st.lists(st.tuples(st.sampled_from(("replace", "insert", "delete")),
                           st.integers(min_value=0), st.binary(min_size=1,
                                                               max_size=1)),
                 min_size=1, max_size=4)


def test_fuzzed_surface_starts_from_a_fittable_file():
    assert _fit_exit(_surface_csv()) == (0, "")


@PROPERTY_SETTINGS
@given(edits)
def test_fit_of_an_edited_surface_exits_with_one_line(byte_edits):
    # the edits fall in the rows of counts, after the metadata and header
    data = bytearray(_surface_csv())
    start = data.index(b"\ncounts\n") + len(b"\ncounts\n")
    for kind, pos, byte in byte_edits:
        pos = start + pos % (len(data) - start)
        if kind == "replace":
            data[pos:pos + 1] = byte
        elif kind == "insert":
            data[pos:pos] = byte
        else:
            del data[pos]
    code, err = _fit_exit(bytes(data))
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1


# fields of the characters a count is made of or mistaken for
count_fields = st.lists(st.sampled_from(list("0123456789+-.e ")
                                        + ["inf", "nan"]),
                        max_size=8).map("".join)


@PROPERTY_SETTINGS
@given(count_fields, st.integers(min_value=0, max_value=30),
       st.integers(min_value=0, max_value=4))
@example("+5", 3, 4)
@example(" 7 ", 0, 0)
@example("5.0", 3, 1)
@example("1e3", 3, 1)
@example("-0", 3, 1)
@example("9007199254740991", 30, 2)
@example("9007199254740992", 30, 2)
def test_a_count_field_reads_as_int_or_is_named(field, row, column):
    # one definition of a count: a field the reader takes is int(field) in
    # its bin, and any other field is named with its line in the error
    lines = _surface_csv().decode().splitlines(keepends=True)
    first = lines.index("counts\n") + 1
    values = lines[first + row].rstrip("\n").split(",")
    values[column] = field
    lines[first + row] = ",".join(values) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "surface.csv")
        with open(path, "w") as fh:
            fh.write("".join(lines))
        try:
            surface = read_surface_csv(path)
        except ValueError as exc:
            message = str(exc)
        else:
            # no sign '-', decimal point or exponent, and below 2**53
            assert not any(c in field for c in "-.e")
            assert 0 <= int(field) < 2 ** 53
            assert surface.c_obs[5 * row + column] == int(field) / 100000
            return
    prefix = f"surface CSV line {first + row + 1}: '"
    assert message.startswith(prefix), message
    assert message[len(prefix):].split("'")[0].strip() == field.strip()
