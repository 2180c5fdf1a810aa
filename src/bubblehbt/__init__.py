"""Two-photon HBT correlation functions for micron-scale chaotic light
sources: closed-form evaluation, quadrature cross-checks, synthetic data,
and parameter inversion.

Units throughout: lengths in um, times in ps, wavenumbers in 1/um, angular
frequencies in 1/ps, hbar = 1.

The package root holds only `__version__`; import from the submodules
(`bubblehbt.correlators`, `bubblehbt.synth`, ...), so that each use loads
only the modules it needs.
"""

__version__ = "0.1.0"
