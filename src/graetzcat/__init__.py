"""Coupled bulk/surface solver for catalytic conversion in a cylinder.

A gas with several species flows through a cylindrical channel with a
parabolic velocity profile; species diffuse radially and react only on the
channel surface, which carries its own reaction/diffusion balance in time.
The bulk problem is quasi-static (z is time-like and marched implicitly),
the surface problem advances in physical time, and each time step couples
the two through the wall trace and the wall gradient by a damped
fixed-point iteration whose contraction condition is reported as a runtime
diagnostic.
"""

from .coupler import (
    CouplerSettings,
    CouplingState,
    NonConvergedError,
    RunReport,
    Snapshot,
    advance_step,
    run_simulation,
)
from .fluid_march import (
    MarchOperator,
    march_fluid,
    march_operator,
    wall_flux_gradient,
    wall_flux_integral,
)
from .kinetics import (
    HypothesisReport,
    KineticsModel,
    co_oxidation,
    estimate_lipschitz,
    eval_rates,
    linear_consumption,
    verify_hypotheses,
    zero_model,
)
from .model import (
    CONTRACTION_THRESHOLD,
    ContractionDiagnostics,
    FluidField,
    Grid,
    InitialData,
    ModelConfig,
    SpeciesParams,
    ValidationReport,
    contraction_margin,
    validate_config,
)
from .qualcheck import (
    BoundEnvelope,
    EnergyGrowthReport,
    EnvelopeCheck,
    NonnegReport,
    build_envelope,
    check_envelopes,
    check_nonnegativity,
    energy_growth_report,
)
from .wall_evolve import (
    SurfaceOperator,
    SurfaceStep,
    step_wall,
    surface_operator,
    surface_rhs,
    surface_step,
)

__version__ = "0.1.0"

__all__ = [
    "CONTRACTION_THRESHOLD",
    "BoundEnvelope",
    "ContractionDiagnostics",
    "CouplerSettings",
    "CouplingState",
    "EnergyGrowthReport",
    "EnvelopeCheck",
    "FluidField",
    "Grid",
    "HypothesisReport",
    "InitialData",
    "KineticsModel",
    "MarchOperator",
    "ModelConfig",
    "NonConvergedError",
    "NonnegReport",
    "RunReport",
    "Snapshot",
    "SpeciesParams",
    "SurfaceOperator",
    "SurfaceStep",
    "ValidationReport",
    "advance_step",
    "build_envelope",
    "check_envelopes",
    "check_nonnegativity",
    "co_oxidation",
    "contraction_margin",
    "energy_growth_report",
    "estimate_lipschitz",
    "eval_rates",
    "linear_consumption",
    "march_fluid",
    "march_operator",
    "run_simulation",
    "step_wall",
    "surface_operator",
    "surface_rhs",
    "surface_step",
    "validate_config",
    "verify_hypotheses",
    "wall_flux_gradient",
    "wall_flux_integral",
    "zero_model",
]
