"""Neutral-saddle flow toolkit: exact passage times, tail laws, renewal shadows.

The package studies the planar field

    dx/dt =  x * (a0*x^kappa + a2*y^kappa)
    dy/dt = -y * (b0*x^kappa + b2*y^kappa)

near its degenerate saddle at the origin: simulation of the exact and
perturbed flow, closed-form passage-time asymptotics, heavy-tailed
return-time statistics over an entry strip, and the scalar renewal
sequence that shadows the induced map's correlation decay.
"""

from .asymptotics import (
    AsymptoticCoeffs,
    TailCoeffs,
    coeffs,
    delta_of_T,
    invert_exit_time,
    m_integral,
    omega_expansion,
    tail_coeffs,
    tail_expansion,
    xi_expansion,
)
from .config import RunConfig, load_config, parse_config
from .density import EntryDensity, make_density, uniform_density
from .errors import (
    BetaOutOfRange,
    BracketFailure,
    ConfigError,
    DegenerateDelta,
    DiagonalNotReached,
    IllConditioned,
    InsufficientData,
    LeftDomain,
    NonIntegrable,
    NonMonotoneInput,
    NotConverged,
    SaddleTailError,
    SeedRequired,
    StepLimitExceeded,
)
from .flow import (
    IntegratorConfig,
    Perturbation,
    PhaseState,
    Trajectory,
    compute_G,
    eval_field,
    exit_time_flow,
    exit_time_quadrature,
    first_integral,
    flow,
    omega_of_xi,
    perturbed_first_integral,
    time_one_map,
)
from .params import (
    DerivedConstants,
    DomainRect,
    MeasureClass,
    SaddleParams,
    default_section,
    derive_constants,
    make_rect,
    rescale,
    validate,
)
from .renewal import (
    MixingCoeffs,
    RenewalSequence,
    correlation_prediction,
    fit_higher_order,
    mixing_coeffs,
    renewal_sequence,
    return_distribution,
)
from .tails import (
    RegVarFit,
    TailTable,
    fit_regvar,
    geometric_grid,
    monte_carlo_tail,
    semi_analytic_tail,
    small_tail,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticCoeffs",
    "BetaOutOfRange",
    "BracketFailure",
    "ConfigError",
    "DegenerateDelta",
    "DerivedConstants",
    "DiagonalNotReached",
    "DomainRect",
    "EntryDensity",
    "IllConditioned",
    "InsufficientData",
    "IntegratorConfig",
    "LeftDomain",
    "MeasureClass",
    "MixingCoeffs",
    "NonIntegrable",
    "NonMonotoneInput",
    "NotConverged",
    "Perturbation",
    "PhaseState",
    "RegVarFit",
    "RenewalSequence",
    "RunConfig",
    "SaddleParams",
    "SaddleTailError",
    "SeedRequired",
    "StepLimitExceeded",
    "TailCoeffs",
    "TailTable",
    "Trajectory",
    "coeffs",
    "compute_G",
    "correlation_prediction",
    "default_section",
    "delta_of_T",
    "derive_constants",
    "eval_field",
    "exit_time_flow",
    "exit_time_quadrature",
    "first_integral",
    "fit_higher_order",
    "fit_regvar",
    "flow",
    "geometric_grid",
    "invert_exit_time",
    "load_config",
    "m_integral",
    "make_density",
    "make_rect",
    "mixing_coeffs",
    "monte_carlo_tail",
    "omega_expansion",
    "omega_of_xi",
    "parse_config",
    "perturbed_first_integral",
    "rescale",
    "return_distribution",
    "renewal_sequence",
    "semi_analytic_tail",
    "small_tail",
    "tail_coeffs",
    "tail_expansion",
    "time_one_map",
    "uniform_density",
    "validate",
    "xi_expansion",
]
