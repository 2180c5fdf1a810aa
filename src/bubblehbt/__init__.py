"""Two-photon HBT correlation functions for micron-scale chaotic light
sources: closed-form evaluation, quadrature cross-checks, synthetic data,
and parameter inversion.

Units throughout: lengths in um, times in ps, wavenumbers in 1/um, angular
frequencies in 1/ps, hbar = 1.
"""

from .correlators import (CHAOTICITY, CorrelationValue, correlation,
                          form_factor, kappa_to_radius, phi_of_X,
                          small_q_coefficient, time_factor)
from .kinematics import C_UM_PER_PS, resolution_ratio
from .oracle import QuadratureSettings, numeric_correlation, numeric_curvature
from .sources import Emission, SourceCase, SourceSpec, density
from .synth import (CorrelationSurface, FormFactorSamples, GridSpec,
                    NoiseSpec, apply_energy_smearing, generate,
                    renormalize_at_origin)
from .inference import (Chaoticity, FitReport, chaoticity_test,
                        estimate_kappa, factorization_test, fit_surface,
                        fit_tau_slices, radii_from_kappa,
                        shape_discrimination)

__version__ = "0.1.0"

__all__ = [
    "CHAOTICITY", "CorrelationValue", "correlation", "form_factor",
    "kappa_to_radius", "phi_of_X", "small_q_coefficient", "time_factor",
    "C_UM_PER_PS", "resolution_ratio",
    "QuadratureSettings", "numeric_correlation", "numeric_curvature",
    "Emission", "SourceCase", "SourceSpec", "density",
    "CorrelationSurface", "FormFactorSamples", "GridSpec", "NoiseSpec",
    "apply_energy_smearing", "generate", "renormalize_at_origin",
    "Chaoticity", "FitReport", "chaoticity_test", "estimate_kappa",
    "factorization_test", "fit_surface", "fit_tau_slices",
    "radii_from_kappa", "shape_discrimination",
    "__version__",
]
