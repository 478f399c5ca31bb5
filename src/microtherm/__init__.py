"""1-d linear thermoelasticity with microtemperatures.

Conservative (type2) and dissipative (type3) models share one discrete
energy structure: a Gram matrix G with U^T G U twice the physical
energy and a generator A that is G-skew up to the nonnegative rate
quadrature.  The package exposes the material layer, the spatial
discretization, time stepping, verification diagnostics, plane-wave
dispersion, and a scenario-driven command line.
"""

from .diagnostics import (BackwardFunctionals, DecayFit, EnergyBreakdown,
                          LocalizationReport, SpectralReport,
                          backward_functionals, energy, energy_balance_residuals,
                          energy_series, energy_table, fit_decay,
                          localization_probe, spectral_report)
from .discrete1d import (FIELDS, DiscreteOperator, Grid1D, State1D,
                         assemble_backward, assemble_operator)
from .dispersion import (CharacteristicMatrix, DispersionResult,
                         characteristic_matrix, first_order_symbol,
                         root_set_distance, solve_branches,
                         symbol_frequencies)
from .errors import (DegenerateTrajectory, DimensionMismatch, EigenFailure,
                     IndefiniteForm, InvalidGrid, InvalidMaterial,
                     MicrothermError, NonFinite, ParseError, RootFailure,
                     SizeLimit, SolveFailure, ValidationError)
from .evolve import Trajectory, run_forward, time_reversal
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
    "CharacteristicMatrix",
    "DecayFit",
    "DegenerateTrajectory",
    "DimensionMismatch",
    "DiscreteOperator",
    "DispersionResult",
    "EigenFailure",
    "EnergyBreakdown",
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
    "State1D",
    "Trajectory",
    "ValidationError",
    "ValidationReport",
    "assemble_backward",
    "assemble_operator",
    "backward_functionals",
    "build_initial",
    "characteristic_matrix",
    "energy",
    "energy_balance_residuals",
    "energy_series",
    "energy_table",
    "first_order_symbol",
    "fit_decay",
    "isotropic_embedding",
    "localization_probe",
    "parse_scenario",
    "reference_type2",
    "reference_type3",
    "root_set_distance",
    "run_forward",
    "run_scenario",
    "solve_branches",
    "spectral_report",
    "symbol_frequencies",
    "time_reversal",
    "to_moduli_1d",
    "validate_anisotropic",
    "validate_isotropic",
]
