"""Faddeeva and sinc checks against independent series oracles,
Dawson's integral against mpmath, and the chi-square survival function
against scipy's."""

import math

import numpy as np
import pytest

from bubblehbt.correlators import FACTORIZED_CASES, form_factor, phi_of_X
from bubblehbt.sources import SourceCase
from bubblehbt.special_functions import (chi2_survival, dawson, faddeeva,
                                         sinc)
from test_correlators import unit_time


# --- independent oracles (series / continued fraction, no scipy) -----------

def erfc_oracle(x):
    """erfc by Maclaurin series of erf (|x| <= 3) or Lentz continued
    fraction (x > 3)."""
    if x < 0.0:
        return 2.0 - erfc_oracle(-x)
    if x <= 3.0:
        # erf(x) = (2/sqrt(pi)) sum (-1)^n x^(2n+1) / (n! (2n+1))
        term = x
        total = x
        for n in range(1, 200):
            term *= -x * x / n
            total += term / (2 * n + 1)
            if abs(term) < 1e-20 * abs(total):
                break
        return 1.0 - 2.0 / math.sqrt(math.pi) * total
    # erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    cf = 0.0
    for k in range(120, 0, -1):
        cf = (k / 2.0) / (x + cf)
    return math.exp(-x * x) / math.sqrt(math.pi) / (x + cf)


def dawson_oracle(x):
    """Dawson F(x) = sum (-2)^n x^(2n+1) / (2n+1)!! (good for |x| <~ 4)."""
    term = x
    total = x
    for n in range(1, 300):
        term *= -2.0 * x * x / (2 * n + 1)
        total += term
        if abs(term) < 1e-20 * abs(total):
            break
    return total


# --- faddeeva ---------------------------------------------------------------

def test_faddeeva_at_zero():
    assert faddeeva(0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_faddeeva_at_one():
    # W(1) = exp(-1) + i (2/sqrt(pi)) Dawson(1)
    expected = complex(math.exp(-1.0),
                       2.0 / math.sqrt(math.pi) * dawson_oracle(1.0))
    got = faddeeva(1.0 + 0.0j)
    assert got.real == pytest.approx(expected.real, rel=1e-10)
    assert got.imag == pytest.approx(expected.imag, rel=1e-10)
    # spec-level digits
    assert got.real == pytest.approx(0.3678794, abs=5e-8)
    assert got.imag == pytest.approx(0.6071577, abs=5e-8)


def test_faddeeva_at_i():
    # W(i) = e * erfc(1), purely real
    got = faddeeva(1j)
    assert got.real == pytest.approx(math.e * erfc_oracle(1.0), rel=1e-10)
    assert got.real == pytest.approx(0.4275836, abs=5e-8)
    assert abs(got.imag) < 1e-12


def test_faddeeva_real_axis_identity():
    # Re W(x) = exp(-x^2) for real x
    for x in np.linspace(0.0, 10.0, 101):
        assert faddeeva(x).real == pytest.approx(math.exp(-x * x),
                                                 rel=1e-10, abs=1e-300)


def test_faddeeva_reflection_identity():
    rng = np.random.default_rng(1234)
    zs = []
    for _ in range(100):
        r = 10.0 * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, math.pi)
        zs.append(r * complex(math.cos(phi), math.sin(phi)))
    # -z deep in the lower half-plane too, where |w(-z)| reaches 1e293
    zs += [complex(x, y) for y in (12.0, 20.0, 26.0)
           for x in (-4.0, -0.5, 0.0, 1.0, 3.0)]
    for z in zs:
        lhs = faddeeva(-z) + faddeeva(z)
        rhs = 2.0 * np.exp(-z * z)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs) + 1e-14


def test_faddeeva_lower_half_plane_finite():
    for z in [0.5 - 2.0j, -1.0 - 3.0j, 3.0 - 0.5j]:
        w = faddeeva(z)
        assert math.isfinite(w.real) and math.isfinite(w.imag)
    # past Im z = -26.6, exp(Im(z)^2) overflows: w is +-inf, never NaN
    for z in [0.5 - 28.0j, 3.0 - 27.0j, -28.0j]:
        w = faddeeva(z)
        assert not (math.isnan(w.real) or math.isnan(w.imag))
        assert math.isinf(abs(w))


def test_faddeeva_asymptotic_imaginary_axis():
    # z W(z) sqrt(pi) -> i as |z| -> inf along the positive imaginary axis
    z = 40j
    assert abs(z * faddeeva(z) * math.sqrt(math.pi) - 1j) < 1e-3


# --- dawson -----------------------------------------------------------------

# the series region, the peak near x = 0.92 and the 1/(2x) tail
DAWSON_X = np.concatenate([np.geomspace(1e-8, 1e6, 141),
                           np.linspace(0.0, 10.0, 101)])


def test_dawson_against_mpmath():
    # D(x) = (sqrt(pi)/2) exp(-x^2) erfi(x), at 45 digits
    import mpmath

    with mpmath.workdps(45):
        ref = np.array([float(mpmath.sqrt(mpmath.pi) / 2
                              * mpmath.exp(-mpmath.mpf(v) ** 2)
                              * mpmath.erfi(mpmath.mpf(v)))
                        for v in DAWSON_X.tolist()])
    np.testing.assert_allclose(dawson(DAWSON_X), ref, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(dawson(-DAWSON_X), -ref, rtol=1e-13, atol=0.0)


def test_dawson_zeros_and_oddness():
    assert dawson(0.0) == 0.0
    assert dawson(math.inf) == 0.0 and dawson(-math.inf) == 0.0
    np.testing.assert_array_equal(dawson(-DAWSON_X), -dawson(DAWSON_X))


def test_faddeeva_imaginary_part_on_the_real_axis_is_dawson():
    # Im w(x) = (2/sqrt(pi)) D(x): the form case E's direct branch uses
    x = np.concatenate([DAWSON_X, -DAWSON_X])
    im_w = faddeeva(x).imag
    np.testing.assert_array_less(
        np.abs(im_w - 2.0 / math.sqrt(math.pi) * dawson(x)),
        4.0 * np.spacing(np.abs(im_w)) + 1e-300)


# --- chi-square survival ----------------------------------------------------

def test_chi2_survival_matches_chdtrc():
    # the finite sum against scipy's incomplete-gamma chdtrc for k = 1 to
    # 200 and x up to 1e4: within 1e-12 relative wherever chdtrc is above
    # 1e-300, and 0 where chdtrc underflows to 0.  x = inf gives 0 with no
    # warning (inf - inf in the log sum warned from k = 4), and a NaN x
    # gives NaN (it gave 0.0, a p-value of 0)
    from scipy import special

    wide = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 120),
                           np.linspace(1.0, 1e4, 40), [math.inf, math.nan]])
    underflows = 0
    for k in range(1, 201):
        # and the bulk, k +- a few sqrt(2k)
        bulk = k + math.sqrt(2.0 * k) * np.linspace(-3.0, 8.0, 23)
        x = np.concatenate([wide, bulk[bulk > 0.0]])
        ref = special.chdtrc(k, x)
        got = np.array([chi2_survival(k, v) for v in x.tolist()])
        normal = ref > 1e-300
        np.testing.assert_allclose(got[normal], ref[normal], rtol=1e-12,
                                   atol=0.0)
        assert (got[ref == 0.0] == 0.0).all()
        np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
        underflows += np.count_nonzero(ref == 0.0)
    assert underflows > 0


# --- sinc -------------------------------------------------------------------

@pytest.mark.filterwarnings("error")
def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert sinc(1.0) == pytest.approx(math.sin(1.0), rel=1e-15)
    assert sinc(1.0) == pytest.approx(0.84147098, abs=5e-9)
    # from the smallest subnormal up to the largest float, sin(x) / x as it
    # is at every nonzero finite x, in an array and as a scalar, and the
    # limit 0 at +-inf, with no warning
    x = np.append(10.0 ** np.linspace(-323.0, 308.0, 8000),
                  [5e-324, np.finfo(float).max])
    x = np.concatenate([x, -x])
    expected = np.array([math.sin(v) / v for v in x.tolist()])
    assert sinc(x).tobytes() == expected.tobytes()
    for v, e in zip(x[::97].tolist(), expected[::97].tolist()):
        assert sinc(v) == e
    assert (sinc(np.array([math.inf, -math.inf])) == 0.0).all()
    assert sinc(math.inf) == 0.0 and sinc(-math.inf) == 0.0
    # B's form factor and D's time factor, its squares, fall below 1e-100
    # from x = 1e52 and are 0 from 1e300 to +-inf, and so does every A-D
    # form factor, phi_of_X and time factor at +-y, where x^2, x^3 or
    # sqrt(3) y overflows: in an array and as numpy scalars, with no
    # warning either (called directly, A, C and D's form factors warned)
    far = np.array([1e52, 1e300, np.finfo(float).max, math.inf])
    for values in (form_factor(SourceCase.B_SHELL, far),
                   unit_time(SourceCase.D_EXPONENTIAL, far),
                   unit_time(SourceCase.D_EXPONENTIAL, -far)):
        assert 0.0 < values[0] < 1e-100 and (values[1:] == 0.0).all()
    for case in FACTORIZED_CASES:
        for entry, args in ((form_factor, far), (phi_of_X, far),
                            (unit_time, far), (unit_time, -far)):
            values = entry(case, args)
            assert 0.0 <= values[0] < 1e-100 and (values[1:] == 0.0).all()
            scalars = [entry(case, v) for v in args]
            assert all(type(v) is np.float64 for v in scalars)
            assert np.array(scalars).tobytes() == values.tobytes()


def test_sinc_even_and_bounded():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-50.0, 50.0, 200):
        assert sinc(x) == sinc(-x)
        assert abs(sinc(x)) <= 1.0


def test_sinc_small_argument_expansion():
    x = 1e-4
    assert abs(sinc(x) - (1.0 - x * x / 6.0)) < 1e-12
