"""Synthetic surfaces: determinism, noise statistics, smearing, CSV round
trip."""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from scipy import integrate
from scipy.special import chdtri, ndtri

from bubblehbt import correlators, synth
from bubblehbt.correlators import (CHAOTICITY, FACTORIZED_CASES,
                                   MU_SERIES_MAX, correlation, excess,
                                   form_factor, mean_time_factor, time_factor)
from bubblehbt.kinematics import C_UM_PER_PS
from bubblehbt.sources import Emission, SourceCase, SourceSpec
from bubblehbt.special_functions import dawson, faddeeva, sine_integral
from bubblehbt.synth import (GridSpec, NoiseSpec, format_value, generate,
                             read_surface_csv, write_surface_csv)


def spec_a(**kw):
    return SourceSpec(case=SourceCase.A_GAUSSIAN, tau=1.0, R=1.0, **kw)


GRID = GridSpec(q_values=(0.0, 0.5, 1.0, 2.0),
                d_omega_values=(0.0, 0.5, 1.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(q_values=(1.0, 0.5), d_omega_values=(0.0,))
    with pytest.raises(ValueError):
        GridSpec(q_values=(-1.0, 0.5), d_omega_values=(0.0,))
    with pytest.raises(TypeError, match="sequence of numbers"):
        GridSpec(q_values=((0.0, 0.5), (1.0, 1.5)), d_omega_values=(0.0,))
    with pytest.raises(ValueError):
        NoiseSpec(pairs_per_bin=50, seed=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        NoiseSpec(pairs_per_bin=1000, seed=-1)


def test_noise_spec_takes_integer_pairs_up_to_2_49():
    # counts are exact up to N = 2**49 (`test_counts_are_exact_up_to_2_49`)
    assert NoiseSpec(pairs_per_bin=2 ** 49, seed=0).pairs_per_bin == 2 ** 49
    with pytest.raises(ValueError, match=r"^pairs_per_bin must be at most "
                       r"2\*\*49$"):
        NoiseSpec(pairs_per_bin=2 ** 49 + 1, seed=0)


@pytest.mark.parametrize("pairs, seed, name", [(1e6, 3, "pairs_per_bin"),
                                               (10 ** 6, 3.0, "seed")])
def test_noise_spec_rejects_a_float(pairs, seed, name):
    # a float N was written as `# pairs_per_bin = 1000000.0`, which the
    # reader's int() refuses
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        NoiseSpec(pairs_per_bin=pairs, seed=seed)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_values(bad):
    # every comparison with NaN is False, so the order checks alone pass it
    with pytest.raises(ValueError, match="grid values must be finite"):
        GridSpec(q_values=(0.0, 1.0), d_omega_values=(0.0, bad))
    with pytest.raises(ValueError, match="grid values must be finite"):
        GridSpec(q_values=(bad,), d_omega_values=(0.0,))


def test_surface_off_its_grid_layout_is_a_value_error():
    # every flat array of a surface is its grid's (nq, nw) matrix in
    # row-major order, which inference reads it as
    surf = generate(spec_a(), GRID, noise=NoiseSpec(10 ** 6, 1))
    column_major = np.arange(12).reshape(4, 3).T.ravel()
    swapped = np.arange(12)
    swapped[[4, 5]] = [5, 4]  # two bins of the q = 0.5 row
    rows_swapped = np.arange(12).reshape(4, 3)[[0, 2, 1, 3]].ravel()
    for order in (column_major, swapped, rows_swapped, np.arange(11)):
        with pytest.raises(ValueError, match="row-major"):
            dataclasses.replace(surf, q=surf.q[order],
                                d_omega=surf.d_omega[order],
                                c_obs=surf.c_obs[order])
    for field in ("c_true", "c_obs", "sigma"):
        with pytest.raises(ValueError, match="row-major"):
            dataclasses.replace(surf, **{field: getattr(surf, field)[:-1]})


def test_layout_check_compares_every_point():
    # a surface's q and d_omega are compared with its grid's points element
    # by element: copies of them pass in row-major order and fail in any
    # other, and a surface on a grid of the same shape is checked in full
    surf = generate(spec_a(), GRID, noise=NoiseSpec(10 ** 6, 1))
    own_q, own_dw = GRID.points()
    q, dw = own_q.copy(), own_dw.copy()
    dataclasses.replace(surf, q=q, d_omega=dw)
    rows_reversed = np.arange(12).reshape(4, 3)[::-1].ravel()
    columns_reversed = np.arange(12).reshape(4, 3)[:, ::-1].ravel()
    for arrays in ((q[rows_reversed], own_dw), (own_q, dw[columns_reversed]),
                   (q[::-1], dw[::-1])):
        with pytest.raises(ValueError, match="row-major"):
            dataclasses.replace(surf, q=arrays[0], d_omega=arrays[1])
    mirrored = GridSpec(q_values=GRID.q_values,
                        d_omega_values=(-1.0, -0.5, 0.0))
    with pytest.raises(ValueError, match="row-major"):
        dataclasses.replace(surf, grid=mirrored)


def test_grid_points_are_one_read_only_pair():
    # points() gives the same two arrays on every call, and neither they
    # nor the axes they are built from can be written
    grid = GridSpec(q_values=np.linspace(0.0, 3.0, 61),
                    d_omega_values=(-1.0, -0.0, 1.0))
    q, dw = grid.points()
    assert grid.points()[0] is q and grid.points()[1] is dw
    np.testing.assert_array_equal(q, np.repeat(grid.q_values, 3))
    assert np.signbit(dw[1::3]).all()  # -0.0 stays -0.0
    copies = (copy.copy(grid), copy.deepcopy(grid),
              pickle.loads(pickle.dumps(grid)))
    for g in (grid,) + copies:
        assert g == grid
        for array in g.points() + (g.q_axis, g.d_omega_axis):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
    # the fields stay tuples of floats, so grids compare and hash by value
    # whatever sequence they were made from
    same = GridSpec(q_values=tuple(np.linspace(0.0, 3.0, 61).tolist()),
                    d_omega_values=[-1, -0.0, 1])
    assert same == grid and hash(same) == hash(grid)
    assert type(grid.q_values) is tuple and type(grid.q_values[0]) is float
    assert dataclasses.replace(grid).points()[0].tobytes() == q.tobytes()


def test_noiseless_truth():
    surf = generate(spec_a(), GRID)
    assert surf.c_true[0] == 1.5
    np.testing.assert_array_equal(surf.c_obs, surf.c_true)
    assert np.all(surf.sigma == 0.0)


@pytest.mark.filterwarnings("error")
def test_c_true_equals_pointwise_correlation():
    # generate evaluates every grid point in one call; each point must equal
    # the call at that single point bit for bit, also far out on both axes
    cli_default = GridSpec(q_values=tuple(np.linspace(0.0, 3.0, 61)),
                           d_omega_values=tuple(np.linspace(0.0, 2.0, 9)))
    r_dot = 2e-4 * C_UM_PER_PS
    shock = SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=1.0,
                       r_dot=r_dot)
    q_switch = MU_SERIES_MAX / r_dot
    around_switch = GridSpec(
        q_values=tuple(np.linspace(0.5 * q_switch, 2.0 * q_switch, 16)),
        d_omega_values=tuple(np.linspace(-2.0, 2.0, 11)))
    mu = r_dot * np.asarray(around_switch.q_values)
    assert np.any(mu <= MU_SERIES_MAX) and np.any(mu > MU_SERIES_MAX)
    far = GridSpec(q_values=tuple(np.geomspace(1.0, 1e200, 7)),
                   d_omega_values=tuple(np.linspace(-1e300, 1e300, 5)))
    runs = [(SourceSpec(case=case, tau=1.0, R=1.0), grid)
            for case in (SourceCase.A_GAUSSIAN, SourceCase.B_SHELL,
                         SourceCase.C_SPHERE, SourceCase.D_EXPONENTIAL)
            for grid in (cli_default, far)]
    runs += [(shock, cli_default), (shock, around_switch), (shock, far),
             (spec_a(emission=Emission.COHERENT), cli_default)]
    for spec, grid in runs:
        surf = generate(spec, grid)
        for i in range(surf.c_true.size):
            assert surf.c_true[i] == correlation(spec, surf.q[i],
                                                 surf.d_omega[i]).c


@pytest.fixture
def special_calls(monkeypatch):
    """The shapes that correlators passes to faddeeva, dawson and
    sine_integral, per function, from here on."""
    calls = {"faddeeva": [], "dawson": [], "sine_integral": []}

    def counted(name, func):
        def wrapper(z):
            calls[name].append(np.shape(z))
            return func(z)
        return wrapper

    for name, func in [("faddeeva", faddeeva), ("dawson", dawson),
                       ("sine_integral", sine_integral)]:
        monkeypatch.setattr(correlators, name, counted(name, func))
    return calls


def test_case_e_surface_is_one_evaluation(special_calls):
    # the first rows take the series, the others the direct form: two
    # Dawson calls (z+ and z-) for the direct form, then one (y/2) for the
    # series, each on all of its branch's points; w is never called, and a
    # smeared D surface takes Si from special_functions.  q reaches
    # mu = 0.72 at the default r_dot, past MU_SERIES_MAX
    calls = special_calls
    shock = SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=1.0,
                       r_dot=2e-4 * C_UM_PER_PS)
    grid = GridSpec(q_values=tuple(np.linspace(0.0, 12.0, 61)),
                    d_omega_values=tuple(np.linspace(0.0, 2.0, 9)))
    generate(shock, grid, noise=NoiseSpec(pairs_per_bin=10 ** 6, seed=1))
    series_rows = int(np.sum(shock.r_dot * np.asarray(grid.q_values)
                             <= MU_SERIES_MAX))
    assert 0 < series_rows < 61
    assert calls["faddeeva"] == []
    assert [math.prod(shape) for shape in calls["dawson"]] == [
        9 * (61 - series_rows)] * 2 + [9 * series_rows]
    assert calls["sine_integral"] == []
    generate(SourceSpec(case=SourceCase.D_EXPONENTIAL, tau=1.0, R=1.0), grid,
             smear_dw=2.0)
    assert calls["sine_integral"] == [()]


@pytest.mark.parametrize("nq, nw", [(61, 9), (151, 51)],
                         ids=["cli_default", "surface_scan"])
def test_case_e_series_grid_calls_dawson_once_on_its_row(special_calls, nq,
                                                         nw):
    # below MU_SERIES_MAX the whole grid takes the series, whose D(y/2)
    # depends on d_omega alone: one call on the d_omega row, however many
    # q values there are
    shock = SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=1.0,
                       r_dot=2e-4 * C_UM_PER_PS)
    grid = GridSpec(q_values=tuple(np.linspace(0.0, 3.0, nq)),
                    d_omega_values=tuple(np.linspace(0.0, 2.0, nw)))
    generate(shock, grid, noise=NoiseSpec(pairs_per_bin=10 ** 6, seed=1))
    assert special_calls == {"faddeeva": [], "dawson": [(nw,)],
                             "sine_integral": []}


def test_coherent_surface_is_flat():
    surf = generate(spec_a(emission=Emission.COHERENT), GRID)
    np.testing.assert_array_equal(surf.c_true, np.ones_like(surf.c_true))


def test_poisson_sigma_at_origin():
    surf = generate(spec_a(), GRID, noise=NoiseSpec(pairs_per_bin=10 ** 6,
                                                    seed=1))
    assert surf.sigma[0] == pytest.approx(math.sqrt(1.5e-6), rel=1e-12)
    assert surf.sigma[0] == pytest.approx(1.22e-3, abs=1e-5)


def test_determinism():
    noise = NoiseSpec(pairs_per_bin=10 ** 4, seed=123)
    a = generate(spec_a(), GRID, noise=noise)
    b = generate(spec_a(), GRID, noise=noise)
    np.testing.assert_array_equal(a.c_obs, b.c_obs)
    c = generate(spec_a(), GRID, noise=NoiseSpec(pairs_per_bin=10 ** 4,
                                                 seed=124))
    assert np.any(c.c_obs != a.c_obs)


def test_noise_statistics():
    # one grid point, 1000 seeds: unbiased mean, variance near c_true/N
    point = GridSpec(q_values=(0.3,), d_omega_values=(0.2,))
    n = 10 ** 4
    spec = spec_a()
    draws = np.array([
        generate(spec, point, noise=NoiseSpec(pairs_per_bin=n, seed=s)).c_obs[0]
        for s in range(1000)])
    c_true = generate(spec, point).c_true[0]
    sigma = math.sqrt(c_true / n)
    assert abs(draws.mean() - c_true) < 3.0 * sigma / math.sqrt(1000)
    assert draws.var(ddof=1) == pytest.approx(c_true / n, rel=0.10)


def test_noise_stream_is_pinned():
    # one Poisson call over the row-major surface on a generator seeded by
    # the noise seed; a change to this stream changes every seeded test
    n = 10 ** 6
    for seed in (0, 7, 2 ** 40):
        surf = generate(spec_a(), GRID,
                        noise=NoiseSpec(pairs_per_bin=n, seed=seed))
        expected = np.random.default_rng(seed).poisson(n * surf.c_true) / n
        assert surf.c_obs.tobytes() == expected.tobytes()


def test_noise_statistics_across_one_surface():
    # 101 x 101 coherent bins (c_true = 1) of one surface: mean 1 and
    # variance 1/N; bounds at a two-sided false-alarm rate of 1e-6 each
    n = 10 ** 4
    grid = GridSpec(q_values=tuple(np.linspace(0.0, 3.0, 101)),
                    d_omega_values=tuple(np.linspace(0.0, 2.0, 101)))
    surf = generate(spec_a(emission=Emission.COHERENT), grid,
                    noise=NoiseSpec(pairs_per_bin=n, seed=3))
    m = surf.c_obs.size
    alpha = 1e-6
    z = -ndtri(alpha / 2.0)
    assert abs(surf.c_obs.mean() - 1.0) < z * math.sqrt(1.0 / (n * m))
    # s^2 / sigma^2 ~ chi2(nu) / nu; Poisson's excess kurtosis 1/N widens
    # the spread, taken up by the effective dof (Satterthwaite)
    nu = 2.0 / (2.0 / (m - 1) + 1.0 / (n * m))
    ratio = surf.c_obs.var(ddof=1) * n
    assert chdtri(nu, 1.0 - alpha / 2.0) / nu < ratio
    assert ratio < chdtri(nu, alpha / 2.0) / nu


# --- smearing ---------------------------------------------------------------

def test_smearing_narrow_window_limit():
    val = 1.0 + excess(spec_a(), 0.0, 0.0, smear_dw=1e-6)
    assert val == pytest.approx(1.5, abs=1e-9)


def test_smearing_gaussian_window():
    # <T> = (1/2) int_{-1}^{1} exp(-x^2) dx = (sqrt(pi)/2) erf(1)
    mean_t = math.sqrt(math.pi) / 2.0 * (1.0 - math.erfc(1.0))
    assert mean_t == pytest.approx(0.746824, abs=1e-6)
    assert 1.0 + excess(spec_a(), 0.0, 0.0, smear_dw=2.0) == pytest.approx(
        1.0 + 0.5 * mean_t, rel=1e-9)
    # the smeared excess still factorizes: ratio to q = 0 equals Phi(q)
    v0 = 1.0 + excess(spec_a(), 0.0, 0.0, smear_dw=2.0)
    v1 = 1.0 + excess(spec_a(), 1.0, 0.0, smear_dw=2.0)
    assert (v1 - 1.0) == pytest.approx(0.137365, abs=1e-5)
    assert (v1 - 1.0) / (v0 - 1.0) == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_smearing_monotone_in_window():
    vals = [mean_time_factor(SourceCase.A_GAUSSIAN, t)
            for t in [0.5, 1.0, 2.0, 4.0, 8.0]]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("case", FACTORIZED_CASES)
def test_smeared_excess_is_mean_time_factor_times_form_factor(case):
    # with a window, T is <T> at every d_omega, taken in the order
    # CHAOTICITY * T * Phi of the unsmeared excess
    q = np.linspace(0.0, 3.0, 7)[:, None]
    dw = np.array([-2.0, -0.0, 0.0, 0.5, 1e200])
    spec = SourceSpec(case=case, tau=0.8, R=1.3)
    for window in (1e-6, 0.7, 2.0, 50.0):
        smeared = excess(spec, q, dw, smear_dw=window)
        expected = (CHAOTICITY * mean_time_factor(case, 0.8 * window)
                    * form_factor(case, q * 1.3))
        assert smeared.shape == (7, 5)
        assert (smeared == expected).all()
    assert excess(spec, 0.5, 1.0, smear_dw=2.0) == (
        CHAOTICITY * mean_time_factor(case, 0.8 * 2.0)
        * form_factor(case, 0.5 * 1.3))


@pytest.mark.parametrize("case", FACTORIZED_CASES)
def test_mean_time_factor_matches_quadrature(case):
    # the closed forms in t = tau W against a box average of T(y),
    # y = d_omega tau, by adaptive quadrature, over [0, t/2] by symmetry,
    # split at the zeros of case D's sinc^2
    zero = math.pi / math.sqrt(3.0)
    for t in np.geomspace(1e-8, 300.0, 25):
        half = 0.5 * t
        points = None
        if case is SourceCase.D_EXPONENTIAL and half > zero:
            points = zero * np.arange(1, int(half / zero) + 1)
        avg, _ = integrate.quad(
            lambda y: float(time_factor(case, y)), 0.0, half,
            points=points, epsabs=0.0, epsrel=2e-14, limit=500)
        assert mean_time_factor(case, t) == pytest.approx(
            avg / half, rel=1e-13, abs=0.0)
    # far below the series switch, <T> is 1 to the last bit, and at t = 0
    assert mean_time_factor(case, 1e-200) == 1.0
    assert mean_time_factor(case, 0.0) == 1.0
    # where tau W overflows, every case is its limit 0, and the smeared
    # excess with it
    assert mean_time_factor(case, math.inf) == 0.0
    spec = SourceSpec(case=case, tau=1e10, R=1.0)
    assert (excess(spec, np.array([0.0, 1.0]), 0.5, smear_dw=1e308)
            == 0.0).all()


def test_mean_time_factor_rejects_bad_windows():
    for window in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            correlators.check_window(SourceCase.A_GAUSSIAN, window)
        # <T> takes t = tau W >= 0, whose limits 0 and inf it reaches
        if not window >= 0.0:
            with pytest.raises(ValueError, match="tau W must be non-neg"):
                mean_time_factor(SourceCase.A_GAUSSIAN, window)
        # the window is checked whatever the emission
        for emission in Emission:
            with pytest.raises(ValueError, match="positive and finite"):
                excess(spec_a(emission=emission), 0.5, 1.0, smear_dw=window)


def test_smearing_rejects_case_e():
    for emission in Emission:
        spec = SourceSpec(case=SourceCase.E_EXPANDING_SHOCK, tau=1.0,
                          r_dot=0.06, emission=emission)
        for window in (1.0, 0.0):
            with pytest.raises(ValueError, match="case E is unsupported"):
                excess(spec, 0.5, 1.0, smear_dw=window)


# --- CSV --------------------------------------------------------------------

def source(case, **kw):
    if case is SourceCase.E_EXPANDING_SHOCK:
        return SourceSpec(case=case, tau=1.0, r_dot=2e-4 * C_UM_PER_PS, **kw)
    return SourceSpec(case=case, tau=1.0, R=1.0, **kw)


# the CLI's default grid, for case E with both the series (q < 0.17) and
# the direct branch; grids of one q, one d_omega and one point; and a
# d_omega axis through -0.0
CLI_GRID = GridSpec(q_values=np.linspace(0.0, 3.0, 61),
                    d_omega_values=np.linspace(0.0, 2.0, 9))
ROUND_TRIP_GRIDS = [
    CLI_GRID,
    GridSpec(q_values=(0.0,), d_omega_values=CLI_GRID.d_omega_values),
    GridSpec(q_values=CLI_GRID.q_values, d_omega_values=(0.0,)),
    GridSpec(q_values=(0.5,), d_omega_values=(0.25,)),
    GridSpec(q_values=CLI_GRID.q_values, d_omega_values=(-1.0, -0.0, 1.0)),
]
# counts n = N c_obs from N = 100 to the largest N, 2**49
ROUND_TRIP_SURFACES = (
    [(source(case), NoiseSpec(pairs_per_bin=10 ** 6, seed=70 + i), None)
     for i, case in enumerate(SourceCase)]
    + [(source(SourceCase.A_GAUSSIAN), NoiseSpec(pairs_per_bin=n, seed=80),
        None) for n in (100, 999983, 10 ** 14, 2 ** 49)]
    + [(source(case), None, 1.5) for case in FACTORIZED_CASES]
    + [(source(SourceCase.A_GAUSSIAN), None, None),
       (source(SourceCase.E_EXPANDING_SHOCK), None, None),
       (source(SourceCase.A_GAUSSIAN, emission=Emission.COHERENT), None,
        None)])


def test_csv_round_trip(tmp_path):
    # the file holds counts or c_obs; the grid, c_true and sigma come back
    # from its metadata, all five fields bit for bit: noisy A-E, noisy A
    # at four N, smeared A-D, noiseless A and E, coherent A, on each grid
    path = tmp_path / "surface.csv"
    for grid in ROUND_TRIP_GRIDS:
        for spec, noise, smear_dw in ROUND_TRIP_SURFACES:
            surf = generate(spec, grid, noise=noise, smear_dw=smear_dw)
            write_surface_csv(surf, str(path))
            back = read_surface_csv(str(path))
            for name in ("q", "d_omega", "c_true", "c_obs", "sigma"):
                assert (getattr(back, name).tobytes()
                        == getattr(surf, name).tobytes()), (
                            grid, spec, noise, name)
            assert (back.spec, back.grid, back.noise, back.smear_dw) == (
                surf.spec, surf.grid, surf.noise, surf.smear_dw)


def test_csv_metadata_header(tmp_path):
    surf = generate(spec_a(), GRID, smear_dw=2.0)
    path = tmp_path / "surface.csv"
    write_surface_csv(surf, str(path))
    text = path.read_text()
    assert text.startswith("# artifact = correlation_surface")
    assert "# smear_dw_per_ps = 2" in text
    assert "\nc_obs\n" in text


def test_csv_noisy_surface_holds_its_counts(tmp_path):
    # one line of integer counts per q, which divide by N to c_obs
    n = 10 ** 6
    surf = generate(spec_a(), GRID, noise=NoiseSpec(pairs_per_bin=n, seed=2))
    path = tmp_path / "surface.csv"
    write_surface_csv(surf, str(path))
    head, _, body = path.read_text().partition("\ncounts\n")
    assert "# pairs_per_bin = 1000000" in head
    counts = np.random.default_rng(2).poisson(n * surf.c_true)
    assert body == "".join(",".join(map(str, row)) + "\n"
                           for row in counts.reshape(4, 3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [1e308, math.nan, math.inf, 0.5 + 1e-9,
                                   -1e-6, -0.0])
def test_csv_writer_refuses_c_obs_that_is_not_counts(tmp_path, value):
    # a noisy file holds counts, so c_obs must be n/N with n >= 0 in every
    # bin: no file is written, and numpy's overflow is not a warning
    surf = generate(spec_a(), GRID, noise=NoiseSpec(pairs_per_bin=10 ** 6,
                                                    seed=1))
    c_obs = surf.c_obs.copy()
    c_obs[5] = value
    path = tmp_path / "surface.csv"
    with pytest.raises(ValueError, match="c_obs must be counts"):
        write_surface_csv(dataclasses.replace(surf, c_obs=c_obs), str(path))
    assert not path.exists()


def test_counts_are_exact_up_to_2_49():
    # for N <= 2**49 and n <= 1.6 N (every C is at most 3/2), fl(n/N) N is
    # within 0.25 of n, so the writer's rint gives back every count drawn
    rng = np.random.default_rng(12)
    pairs = np.concatenate([
        np.floor(np.exp(rng.uniform(math.log(100.0), 49 * math.log(2.0),
                                    5 * 10 ** 4))),
        2.0 ** 49 - np.floor(rng.uniform(0.0, 2.0 ** 48, 5 * 10 ** 4))])
    n = np.floor(rng.uniform(0.0, 1.6, pairs.size) * pairs)
    assert pairs.max() <= 2 ** 49 and (n <= 1.6 * pairs).all()
    assert (synth._counts(n / pairs, pairs) == n).all()


def test_csv_round_trip_of_numpy_integers(tmp_path):
    # NoiseSpec holds Python ints, so np.int64 fields write as integers
    noise = NoiseSpec(pairs_per_bin=np.int64(10 ** 6), seed=np.int64(3))
    assert type(noise.pairs_per_bin) is int and type(noise.seed) is int
    surf = generate(spec_a(), GRID, noise=noise)
    path = tmp_path / "surface.csv"
    write_surface_csv(surf, str(path))
    assert "# pairs_per_bin = 1000000\n# seed = 3\n" in path.read_text()
    back = read_surface_csv(str(path))
    assert back.noise == noise
    assert back.c_obs.tobytes() == surf.c_obs.tobytes()


def test_csv_edge_values_bytes_and_round_trip(tmp_path):
    # every row is written by one format pass and read by numpy's parser;
    # both must agree with the per-value formatter to the last bit, with
    # the edge values in the c_obs matrix of a noiseless surface (a noisy
    # one holds counts)
    edges = [0.0, 5e-324, 1.0 - 2.0 ** -53, 1e308]
    grid = GridSpec(q_values=edges, d_omega_values=[-1e308] + edges[:3])
    rng = np.random.default_rng(11)
    c_obs = 1.0 + rng.random(grid.points()[0].size)
    c_obs[::4] = [-0.0, 5e-324, 1.0 - 2.0 ** -53, 1e308]
    assert sum(float("%.16g" % v) != v for v in c_obs) > 4
    surf = dataclasses.replace(generate(spec_a(), grid), c_obs=c_obs)
    path = tmp_path / "surface.csv"
    write_surface_csv(surf, str(path))
    header = b"\nc_obs\n"
    reference = "".join(
        ",".join(format_value(v) for v in row) + "\n"
        for row in c_obs.reshape(4, 4)).encode()
    text = path.read_bytes()
    assert text.count(header) == 1
    assert text.partition(header)[2] == reference
    back = read_surface_csv(str(path))
    for name in ("q", "d_omega", "c_true", "c_obs", "sigma"):
        assert getattr(back, name).tobytes() == getattr(surf, name).tobytes()


def test_csv_crlf_and_blank_lines_read_back(tmp_path):
    surf = generate(spec_a(), GRID, noise=NoiseSpec(pairs_per_bin=10 ** 6,
                                                    seed=3))
    path = tmp_path / "surface.csv"
    write_surface_csv(surf, str(path))
    lines = path.read_text().splitlines()
    # CRLF endings, empty lines and lines of only whitespace between rows
    gaps = ["", "   ", "\t", ""]
    path.write_bytes("".join(line + "\r\n" + gaps[i % 4] + "\r\n"
                             for i, line in enumerate(lines)).encode())
    back = read_surface_csv(str(path))
    for name in ("q", "d_omega", "c_true", "c_obs", "sigma"):
        assert getattr(back, name).tobytes() == getattr(surf, name).tobytes()
    assert back.spec == surf.spec and back.grid == surf.grid



def test_read_surface_computes_its_truth_on_first_access(tmp_path,
                                                         monkeypatch):
    # reading takes the observation alone; the first of c_true and sigma
    # read computes both in one `_truth` call, bit for bit `generate`'s
    calls, truth = [], synth._truth

    def counted(*args):
        calls.append(args)
        return truth(*args)

    monkeypatch.setattr(synth, "_truth", counted)
    surf = generate(source(SourceCase.E_EXPANDING_SHOCK), CLI_GRID,
                    noise=NoiseSpec(pairs_per_bin=10 ** 6, seed=4))
    path = tmp_path / "surface.csv"
    write_surface_csv(surf, str(path))
    calls.clear()
    back = read_surface_csv(str(path))
    assert calls == []
    assert back.sigma.tobytes() == surf.sigma.tobytes()
    assert back.c_true.tobytes() == surf.c_true.tobytes()
    assert len(calls) == 1


def test_read_surface_copies_compute_generates_truth(tmp_path):
    # on a surface just read, whose truth is deferred, a name that is no
    # field is an AttributeError naming it; a copy, a deep copy, a pickled
    # copy and a `dataclasses.replace` of it each give `generate`'s c_true
    # and sigma
    surf = generate(source(SourceCase.E_EXPANDING_SHOCK), CLI_GRID,
                    noise=NoiseSpec(pairs_per_bin=10 ** 6, seed=4))
    path = str(tmp_path / "surface.csv")
    write_surface_csv(surf, path)
    back = read_surface_csv(path)
    with pytest.raises(AttributeError, match=re.escape(
            "'CorrelationSurface' object has no attribute 'no_such_field'")):
        getattr(back, "no_such_field")
    assert not hasattr(back, "no_such_field")
    for make in (copy.copy, copy.deepcopy,
                 lambda s: pickle.loads(pickle.dumps(s)),
                 dataclasses.replace):
        other = make(read_surface_csv(path))
        for name in ("c_true", "sigma"):
            assert (getattr(other, name).tobytes()
                    == getattr(surf, name).tobytes())


def test_csv_round_trip_without_a_source(tmp_path):
    # a file from an instrument names no source: it reads back with no
    # truth, and writes back as the same observation
    surf = generate(spec_a(), GRID, noise=NoiseSpec(pairs_per_bin=10 ** 6,
                                                    seed=6), smear_dw=2.0)
    path = tmp_path / "surface.csv"
    write_surface_csv(surf, str(path))
    text = path.read_text()
    for key in ("case", "emission", "tau_ps", "R_um"):
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith(f"# {key} ="))
    path.write_text(text)
    back = read_surface_csv(str(path))
    assert (back.spec, back.c_true, back.sigma) == (None, None, None)
    again = tmp_path / "again.csv"
    write_surface_csv(back, str(again))
    assert again.read_text() == text
    twice = read_surface_csv(str(again))
    for name in ("q", "d_omega", "c_obs"):
        assert getattr(twice, name).tobytes() == getattr(surf, name).tobytes()
    assert (twice.spec, twice.c_true, twice.sigma) == (None, None, None)
    assert (twice.grid, twice.noise, twice.smear_dw) == (
        surf.grid, surf.noise, surf.smear_dw)


@pytest.mark.parametrize("source_lines, window, message", [
    ("# case = E\n# emission = chaotic\n# tau_ps = 1\n"
     "# rdot_um_per_ps = 0.06\n", "1", "case E is unsupported"),
    ("", "0", "positive and finite"),
    ("", "nan", "positive and finite"),
], ids=["E", "no-source-zero", "no-source-nan"])
def test_reader_checks_the_window_it_reads(tmp_path, source_lines, window,
                                           message):
    # the truth waits for first access, so the reader checks the window as
    # `excess` does: a source's case, and its width with or without one
    path = tmp_path / "surface.csv"
    path.write_text("# artifact = correlation_surface\n" + source_lines
                    + "# q_values_per_um = 0 1\n# d_omega_values_per_ps = 0\n"
                    f"# smear_dw_per_ps = {window}\nc_obs\n1.5\n1.2\n")
    with pytest.raises(ValueError, match=message):
        read_surface_csv(str(path))


def surface_text(q_axis, dw_axis="0 0.5 1"):
    """A noiseless surface CSV that names no source, on the grid of these
    axis texts, with one c_obs of 1 a point."""
    nw = len(dw_axis.split())
    return ("# artifact = correlation_surface\n"
            f"# q_values_per_um = {q_axis}\n"
            f"# d_omega_values_per_ps = {dw_axis}\nc_obs\n"
            + "".join(",".join(["1"] * nw) + "\n"
                      for _ in q_axis.split()))


def test_reads_on_one_grid_share_its_grid_spec(tmp_path):
    # a batch of files on one grid parses and checks it once; a file on
    # another grid gets its own
    paths = [tmp_path / f"{name}.csv" for name in ("a", "b", "c")]
    paths[0].write_text(surface_text("0 1 2"))
    paths[1].write_text(surface_text("0 1 2"))
    paths[2].write_text(surface_text("0 1 3"))
    a, b, c = (read_surface_csv(str(p)) for p in paths)
    assert a.grid is b.grid and a.q is b.q
    assert c.grid is not a.grid
    assert c.grid.q_values == (0.0, 1.0, 3.0)
    assert a.grid == GridSpec(q_values=(0.0, 1.0, 2.0),
                              d_omega_values=(0.0, 0.5, 1.0))


@pytest.mark.parametrize("q_axis, dw_axis, message", [
    ("0 1x 2", "0 0.5 1",
     "surface CSV line 2: q_values_per_um = '1x' is not a number"),
    ("0 2 1", "0 0.5 1", "surface CSV line 2: q_values_per_um: q_values "
     "must be strictly increasing"),
    ("0 inf", "0 0.5 1",
     "surface CSV line 2: q_values_per_um: grid values must be finite"),
    ("-1 0 1", "0 0.5 1",
     "surface CSV line 2: q_values_per_um: q_values must be non-negative"),
    ("0 1 2", "0 nan", "surface CSV line 3: d_omega_values_per_ps: grid "
     "values must be finite"),
    ("0 1 2", "", "surface CSV line 3: d_omega_values_per_ps: grid must be "
     "non-empty"),
], ids=["non-numeric", "non-increasing", "non-finite", "negative-q",
        "non-finite-d_omega", "empty-d_omega"])
def test_a_bad_grid_fails_on_every_read(tmp_path, q_axis, dw_axis, message):
    # every grid error names the file line and the key of the axis at
    # fault; a failed parse is not kept, so each read of the same text
    # raises again, and the grid read before it stays shared
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(surface_text("0 1 2"))
    bad.write_text(surface_text(q_axis, dw_axis))
    grid = read_surface_csv(str(good)).grid
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_surface_csv(str(bad))
    assert read_surface_csv(str(good)).grid is grid
