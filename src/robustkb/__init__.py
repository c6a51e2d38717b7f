"""Robust Kalman-Bucy filtering under bounded drift uncertainty.

The package covers the full experimental loop: tilted-measure simulation of
linear-Gaussian signal/observation pairs, the classical filter and its robust
variant that injects a drift estimate through the same gain, an additive
decomposition of the robust estimate into the classical one plus a kernel
correction, and a desk-scale minimax solver for the worst-case mean squared
error over box-bounded constant drifts.
"""
from .config import ScenarioConfig, load_scenario, scenario_from_dict
from .decomposition import (
    KERNELS,
    CorrectionKernel,
    correction_kernel,
    correction_path,
    correction_term,
    decomposed_estimate,
    impulse_response,
)
from .errors import (
    BoxTooLarge,
    ConfigError,
    DegenerateG,
    DimensionMismatch,
    GridMismatch,
    InvalidSeed,
    LostPositivity,
    MissingRiccati,
    NonFinite,
    NotPositiveDefinite,
    NotPSD,
    OutOfGrid,
    RobustKBError,
    UnsupportedClassWarning,
    UnsupportedTilt,
)
from .filtering import (
    FilterRun,
    WhitenessReport,
    filter_gains,
    innovation_diagnostics,
    run_classical_filter,
    run_robust_filter,
)
from .minimax import (
    ADVERSARY_CLASSES,
    SaddleReport,
    best_response_theta,
    g_profile,
    mse_exact,
    mse_monte_carlo,
    robust_theta_hat,
    saddle_report,
    worst_case_mse,
)
from .model import (
    DriftPolicy,
    ModelSchedule,
    TimeGrid,
    UncertaintyBound,
    ValidatedModel,
    clamp_policy,
    constant_model,
    constant_policy,
    validate_model,
    zero_policy,
)
from .ode import (
    ErrorStats,
    RiccatiPath,
    TransitionCache,
    riccati_scalar_solution,
    solve_error_stats,
    solve_riccati,
    steady_state_scalar,
    transition,
)
from .simulate import PathEnsemble, girsanov_log_density, reweighted_mean, simulate_paths
from .verification import CheckResult, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "ADVERSARY_CLASSES",
    "BoxTooLarge",
    "CheckResult",
    "ConfigError",
    "CorrectionKernel",
    "DegenerateG",
    "DimensionMismatch",
    "DriftPolicy",
    "ErrorStats",
    "FilterRun",
    "GridMismatch",
    "InvalidSeed",
    "KERNELS",
    "LostPositivity",
    "MissingRiccati",
    "ModelSchedule",
    "NonFinite",
    "NotPSD",
    "NotPositiveDefinite",
    "OutOfGrid",
    "PathEnsemble",
    "RiccatiPath",
    "RobustKBError",
    "SaddleReport",
    "ScenarioConfig",
    "TimeGrid",
    "TransitionCache",
    "UncertaintyBound",
    "UnsupportedClassWarning",
    "UnsupportedTilt",
    "ValidatedModel",
    "VerificationReport",
    "WhitenessReport",
    "best_response_theta",
    "clamp_policy",
    "constant_model",
    "constant_policy",
    "correction_kernel",
    "correction_path",
    "correction_term",
    "decomposed_estimate",
    "filter_gains",
    "g_profile",
    "girsanov_log_density",
    "impulse_response",
    "innovation_diagnostics",
    "load_scenario",
    "mse_exact",
    "mse_monte_carlo",
    "reweighted_mean",
    "riccati_scalar_solution",
    "robust_theta_hat",
    "run_classical_filter",
    "run_robust_filter",
    "run_verification",
    "saddle_report",
    "scenario_from_dict",
    "simulate_paths",
    "solve_error_stats",
    "solve_riccati",
    "steady_state_scalar",
    "transition",
    "validate_model",
    "worst_case_mse",
    "zero_policy",
]
