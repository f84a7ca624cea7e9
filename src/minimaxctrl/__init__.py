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
    closed_loop_scan,
    optimal_attenuation,
    solve_riccati,
)
from .minimax_cert import (
    MinimaxCertificate,
    load_certificate,
    minimal_feasible_gamma,
    save_certificate,
    synthesize_certificate,
    value_bound,
    verify_certificate,
)
from .disturbance import DisturbanceSpec, peak_sinusoid_spec
from .simulate import DivergedRollout, accumulated_cost, rollout
from .regret import (
    regret_report,
    sublinearity_diagnostic,
    suboptimality_gaps,
    total_regret,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ConfigError",
    "DisturbanceSpec",
    "DivergedRollout",
    "ExperimentConfig",
    "MinimaxCertificate",
    "ModelSet",
    "Penalties",
    "accumulated_cost",
    "closed_loop_scan",
    "load_certificate",
    "load_config",
    "minimal_feasible_gamma",
    "optimal_attenuation",
    "peak_sinusoid_spec",
    "regret_report",
    "rollout",
    "save_certificate",
    "solve_riccati",
    "sublinearity_diagnostic",
    "suboptimality_gaps",
    "synthesize_certificate",
    "total_regret",
    "value_bound",
    "verify_certificate",
]
