"""Property tests of the closed-form correlators over random sources and
points (hypothesis, derandomized so every run draws the same examples)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from bubblehbt.correlators import (CHAOTICITY, FACTORIZED_CASES,
                                   MU_SERIES_MAX, case_e_excess, correlation)
from bubblehbt.kinematics import C_UM_PER_PS
from bubblehbt.sources import Emission, SourceCase, SourceSpec

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
    # direct form give the same excess.  |d_omega tau| stays <= 5: further
    # out, the recurrence of the series' one-sided Gaussian moments loses
    # digits (a 7e-6 gap at d_omega tau = 20-30), which this does not test.
    q_switch = MU_SERIES_MAX / (spec.r_dot * spec.tau)
    d_omega = np.array([d_omega_tau / spec.tau])
    series = case_e_excess(spec, (1.0 - 1e-12) * q_switch, d_omega)
    direct = case_e_excess(spec, (1.0 + 1e-12) * q_switch, d_omega)
    np.testing.assert_allclose(series, direct, rtol=1e-7, atol=0.0)
