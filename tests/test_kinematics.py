"""The energy-resolution diagnostic."""

import pytest

from bubblehbt.kinematics import C_UM_PER_PS, resolution_ratio


def test_resolution_ratio_reference_point():
    r = resolution_ratio(tau=1.0, k=40.0)
    assert r == pytest.approx(1.0 / (C_UM_PER_PS * 40.0), rel=1e-15)
    assert r == pytest.approx(8.34e-5, abs=1e-7)
    assert r < 1e-4


def test_resolution_ratio_scaling():
    assert resolution_ratio(0.1, 40.0) == pytest.approx(8.34e-4, abs=1e-6)
    assert resolution_ratio(1.0, 80.0) == pytest.approx(4.17e-5, abs=1e-7)


def test_resolution_ratio_rejects_nonpositive():
    with pytest.raises(ValueError):
        resolution_ratio(0.0, 40.0)
    with pytest.raises(ValueError):
        resolution_ratio(1.0, -1.0)
