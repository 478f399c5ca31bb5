"""1-d linear thermoelasticity with microtemperatures.

Conservative (type2) and dissipative (type3) models share one discrete
energy structure: a Gram matrix G with U^T G U twice the physical
energy and a generator A that is G-skew up to the nonnegative rate
quadrature.  The package exposes the material layer, the spatial
discretization, time stepping, verification diagnostics, plane-wave
dispersion, and a scenario-driven command line.
"""

from .diagnostics import (BackwardFunctionals, LocalizationReport,
                          SpectralReport, backward_functionals, energy_table,
                          localization_probe, spectral_report)
from .discrete1d import (FIELDS, DiscreteOperator, Grid1D, assemble_backward,
                         assemble_operator)
from .dispersion import (DispersionResult, characteristic_matrix,
                         solve_branches, symbol_frequencies)
from .errors import (DimensionMismatch, EigenFailure, IndefiniteForm,
                     InvalidGrid, InvalidMaterial, MicrothermError, NonFinite,
                     ParseError, RootFailure, SizeLimit, SolveFailure,
                     ValidationError)
from .evolve import snapshot_blocks, snapshot_times, time_reversal
from .material import (AnisotropicTensors, MaterialIsotropic, Moduli1D,
                       ValidationReport, isotropic_embedding, reference_type2,
                       reference_type3, to_moduli_1d, validate_anisotropic,
                       validate_isotropic)
from .runner import run_scenario
from .scenario import InitSpec, Scenario, build_initial, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "AnisotropicTensors",
    "BackwardFunctionals",
    "DimensionMismatch",
    "DiscreteOperator",
    "DispersionResult",
    "EigenFailure",
    "FIELDS",
    "Grid1D",
    "IndefiniteForm",
    "InitSpec",
    "InvalidGrid",
    "InvalidMaterial",
    "LocalizationReport",
    "MaterialIsotropic",
    "MicrothermError",
    "Moduli1D",
    "NonFinite",
    "ParseError",
    "RootFailure",
    "Scenario",
    "SizeLimit",
    "SolveFailure",
    "SpectralReport",
    "ValidationError",
    "ValidationReport",
    "assemble_backward",
    "assemble_operator",
    "backward_functionals",
    "build_initial",
    "characteristic_matrix",
    "energy_table",
    "isotropic_embedding",
    "localization_probe",
    "parse_scenario",
    "reference_type2",
    "reference_type3",
    "run_scenario",
    "snapshot_blocks",
    "snapshot_times",
    "solve_branches",
    "spectral_report",
    "symbol_frequencies",
    "time_reversal",
    "to_moduli_1d",
    "validate_anisotropic",
    "validate_isotropic",
]
