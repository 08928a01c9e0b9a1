"""Dynamic clearing of networked liabilities with budgeted interventions.

Unpaid obligations carry forward pro-rata between rounds; a planner with a
per-round budget injects support to keep payments flowing.  The package
computes optimal fractional allocations round by round, approximately
optimal integral allocations by randomized rounding, fairness-capped
variants of both, and the whole-horizon reformulations available when
liability proportions are time-constant.
"""

from .clearing import (
    LinearProgram,
    LpSolution,
    clear_fixed_point,
    clear_lp,
    clearing_lp_model,
    solve_lp,
)
from .config import ExperimentConfig, build_environment, load_config, validate_config
from .discrete import (
    DiscreteAction,
    RoundingReport,
    aggregate_discrete,
    approximation_bound,
    brute_force_discrete,
    discretize_payments,
    enumerate_actions,
    sample_interventions,
    simulate_action_batch,
    simulate_discrete_policy,
)
from .environments import (
    EnvironmentModel,
    GammaEnvironment,
    ReplayEnvironment,
    SbmEnvironment,
    SbmParams,
    load_replay,
    sample_gamma_round,
    sample_sbm_round,
)
from .errors import (
    CertificateError,
    ConfigError,
    ContractionError,
    DynclearError,
    EnumerationLimitError,
    MyopicGapError,
    ReplayFormatError,
    SolverError,
    ValidationError,
)
from .fairness import (
    FairnessSpec,
    FairnessWeights,
    fairness_constraint_block,
    gini_coefficient,
    price_of_fairness,
    property_weights,
    spatial_weights,
    standard_weights,
)
from .fractional import (
    PolicyStepResult,
    ValueEstimate,
    aggregate_value,
    per_round_lp,
    required_samples,
    substream,
    value_given_sample_path,
)
from .horizon import (
    ConstantProportionCertificate,
    MyopicReport,
    check_constant_proportions,
    solve_horizon_dual,
    solve_horizon_primal,
    verify_myopic_optimality,
)
from .network import (
    RelativeLiabilityMatrix,
    SamplePath,
    ShockRealization,
    SystemState,
    advance_state,
    check_nonvanishing,
    relative_matrix,
)
from .runner import SummaryReport, emit_plot_data, run_experiment, summarize_scatter

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "ConfigError",
    "ConstantProportionCertificate",
    "ContractionError",
    "DiscreteAction",
    "DynclearError",
    "EnumerationLimitError",
    "EnvironmentModel",
    "ExperimentConfig",
    "FairnessSpec",
    "FairnessWeights",
    "GammaEnvironment",
    "LinearProgram",
    "LpSolution",
    "MyopicGapError",
    "MyopicReport",
    "PolicyStepResult",
    "RelativeLiabilityMatrix",
    "ReplayEnvironment",
    "ReplayFormatError",
    "RoundingReport",
    "SamplePath",
    "SbmEnvironment",
    "SbmParams",
    "ShockRealization",
    "SolverError",
    "SummaryReport",
    "SystemState",
    "ValidationError",
    "ValueEstimate",
    "advance_state",
    "aggregate_discrete",
    "aggregate_value",
    "approximation_bound",
    "brute_force_discrete",
    "build_environment",
    "check_constant_proportions",
    "check_nonvanishing",
    "clear_fixed_point",
    "clear_lp",
    "clearing_lp_model",
    "discretize_payments",
    "emit_plot_data",
    "enumerate_actions",
    "fairness_constraint_block",
    "gini_coefficient",
    "load_config",
    "load_replay",
    "per_round_lp",
    "price_of_fairness",
    "property_weights",
    "relative_matrix",
    "required_samples",
    "run_experiment",
    "sample_gamma_round",
    "sample_interventions",
    "sample_sbm_round",
    "simulate_action_batch",
    "simulate_discrete_policy",
    "solve_horizon_dual",
    "solve_horizon_primal",
    "solve_lp",
    "spatial_weights",
    "standard_weights",
    "substream",
    "summarize_scatter",
    "validate_config",
    "value_given_sample_path",
    "verify_myopic_optimality",
]
