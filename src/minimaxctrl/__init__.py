"""Adaptive minimax control for finite model sets.

Design H-infinity controllers per model, certify an attenuation level for
the whole set, and measure what adaptivity costs against a controller
that knows the true model.
"""
from .model_set import (
    ConfigError,
    ExperimentConfig,
    ModelSet,
    Penalties,
    load_config,
)
from .hinf import (
    BracketError,
    FrequencyScan,
    HinfSolution,
    Infeasible,
    closed_loop_scan,
    optimal_attenuation,
    solve_riccati,
)
from .minimax_cert import (
    CertificateCheck,
    MinimaxCertificate,
    load_certificate,
    minimal_feasible_gamma,
    save_certificate,
    synthesize_certificate,
    value_bound,
    verify_certificate,
)
from .policies import hinf_step, minimax_step, update_residuals
from .disturbance import (
    DisturbanceSpec,
    confusing_disturbance,
    emit,
    hinf_worst_case,
    peak_sinusoid_spec,
)
from .simulate import (
    DivergedRollout,
    Trajectory,
    accumulated_cost,
    rollout,
    write_trajectory_csv,
)
from .regret import (
    GapReport,
    RegretReport,
    SublinearityDiagnostic,
    cost_difference_regret,
    model_based_regret,
    regret_report,
    stepwise_regret,
    sublinearity_diagnostic,
    suboptimality_gaps,
    total_regret,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CertificateCheck",
    "ConfigError",
    "DisturbanceSpec",
    "DivergedRollout",
    "ExperimentConfig",
    "FrequencyScan",
    "GapReport",
    "HinfSolution",
    "Infeasible",
    "MinimaxCertificate",
    "ModelSet",
    "Penalties",
    "RegretReport",
    "SublinearityDiagnostic",
    "Trajectory",
    "accumulated_cost",
    "closed_loop_scan",
    "confusing_disturbance",
    "cost_difference_regret",
    "emit",
    "hinf_step",
    "hinf_worst_case",
    "load_certificate",
    "load_config",
    "minimal_feasible_gamma",
    "minimax_step",
    "model_based_regret",
    "optimal_attenuation",
    "peak_sinusoid_spec",
    "regret_report",
    "rollout",
    "save_certificate",
    "solve_riccati",
    "stepwise_regret",
    "sublinearity_diagnostic",
    "suboptimality_gaps",
    "synthesize_certificate",
    "total_regret",
    "update_residuals",
    "value_bound",
    "verify_certificate",
    "write_trajectory_csv",
]
