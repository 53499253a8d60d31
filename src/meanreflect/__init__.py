"""meanreflect: sublinear expectations under volatility uncertainty and
mean-reflected SDEs on a deterministic lattice.

The package has four layers:

* lattice + gexpectation + pde: the expectation engine (exact dynamic
  programming over adapted volatility controls, cross-validated by an
  explicit monotone finite-difference scheme),
* loss + reflection: the Skorokhod problem with mean reflection (two
  constructions, a verifier, risk-measure and stability diagnostics),
* sde: the mean-reflected SDE solver (per-scenario integration, contraction
  fixed point with subinterval splitting, estimate checkers),
* registry + config + runner + cli: the reproducible experiment harness.
"""

from ._version import __version__
from .errors import (
    BracketError,
    ConfigError,
    DepthMismatchError,
    GridMismatchError,
    IndicatorError,
    InitialConstraintError,
    InvalidParameterError,
    LatticeSizeError,
    MeanReflectError,
    NonContractionError,
    SolverError,
    StabilityError,
    ValidationError,
)
from .lattice import (
    PathFunctional,
    PathLattice,
    ProcessOnLattice,
    TimeGrid,
    VolatilityBand,
    brownian_process,
    build_lattice,
    constant_process,
    lift_values,
    quadratic_variation_process,
)
from .gexpectation import (
    ComparisonReport,
    conditional_upper_expectation,
    g_function,
    lower_capacity,
    lower_expectation,
    strict_comparison_check,
    terminal_upper_expectation,
    upper_capacity,
    upper_expectation,
)
from .pde import (
    HeatSolution,
    SpaceGrid,
    default_space_grid,
    nested_expectation_pde,
    solve_nonlinear_heat,
)
from .loss import LossSpec, LossValidationReport, validate_loss
from .reflection import (
    DeterministicPath,
    ModulusReport,
    SkorokhodSolution,
    StabilityReport,
    VerificationReport,
    centered_loss,
    centered_loss_inverse,
    compensator_modulus_gap,
    deterministic_skorokhod,
    expected_loss,
    required_shift,
    required_shift_signed,
    risk_measure,
    solve_mean_reflection_direct,
    solve_mean_reflection_reduced,
    stability_gap,
    verify_mean_reflection,
)
from .sde import (
    Coefficients,
    MRSDEProblem,
    MRSDESolution,
    PicardConfig,
    check_A_lipschitz,
    check_A_modulus,
    check_moment_estimate,
    integrate_forward,
    integrate_sde,
    picard_solve,
    picard_step,
    validate_coefficients,
)
from .registry import make_coefficient, make_loss, make_payoff, registry_list
from .config import ExperimentConfig, load_config
from .runner import run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
