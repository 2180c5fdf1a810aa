"""Unit conventions and the energy-resolution diagnostic.

Internal units are fixed to micrometers and picoseconds so that the
interesting parameter region (tau ~ 1 ps, R ~ 1 um, k ~ 40 1/um for blue
light) is order unity.  Wavenumbers are 1/um, angular frequencies 1/ps,
and hbar = 1 throughout.
"""

__all__ = [
    "C_UM_PER_PS",
    "resolution_ratio",
]

# Speed of light in um/ps; the single hard-coded physical constant.
C_UM_PER_PS = 299.792458


def resolution_ratio(tau: float, k: float) -> float:
    """Fractional energy resolution needed to resolve a time span tau.

    Returns (1/tau) / (c k): the energy-difference scale 1/tau compared with
    the photon energy c k, both in the internal unit system.
    """
    if not (tau > 0.0 and k > 0.0):
        raise ValueError("tau and k must be positive")
    return 1.0 / (tau * C_UM_PER_PS * k)
