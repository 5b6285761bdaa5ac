"""Weighted sum-rate optimization for a multi-IRS aided MISO downlink.

Public surface: scenario construction and channel drawing, the rate/MSE
toolbox, the power-constrained beamformer, manifold phase optimization,
the alternating solver, and the Monte-Carlo experiment harness.
"""

from .beamformer import (LagrangianContext, assemble_context, beamformers_at,
                         lambda_upper_bound, optimal_dual, power_g, solve_beamforming)
from .channels import (ChannelSet, PhaseConfig, draw_channels,
                       effective_channels, path_loss, strip_irs, ula_steering)
from .errors import ConfigError, NumericalError
from .experiments import (ExperimentSpec, ResultRow, run_baseline,
                          run_experiment, summarize)
from .phaseopt import (QuadraticForm, RmcgTrace, assemble_quadratic,
                       euclidean_gradient, objective, project_tangent,
                       quadratic_constant, retract, rmcg_solve)
from .scenario import (ScenarioParams, desk_scenario, full_scenario,
                       load_scenario, ring_scenario, save_scenario)
from .solver import (SolveTrace, SolverOptions, energy_phases, initialize, matched_filter,
                     solve, solve_fixed)
from .wmmse import (BeamformerSet, WmmseState, compute_mse, compute_rates,
                    optimal_state, update_decoders, update_weights,
                    weighted_sum_rate, wmse_objective)

__version__ = "0.1.0"

__all__ = [
    "BeamformerSet", "ChannelSet", "ConfigError", "ExperimentSpec",
    "LagrangianContext", "NumericalError", "PhaseConfig", "QuadraticForm",
    "ResultRow", "RmcgTrace", "ScenarioParams", "SolveTrace", "SolverOptions",
    "WmmseState", "assemble_context", "assemble_quadratic", "beamformers_at",
    "compute_mse", "compute_rates", "desk_scenario", "draw_channels",
    "effective_channels", "energy_phases", "euclidean_gradient", "full_scenario", "initialize",
    "lambda_upper_bound", "load_scenario", "matched_filter", "objective", "optimal_dual",
    "optimal_state",
    "path_loss", "power_g", "project_tangent", "quadratic_constant", "retract",
    "ring_scenario", "rmcg_solve", "run_baseline", "run_experiment",
    "save_scenario", "solve", "solve_beamforming", "solve_fixed", "strip_irs", "summarize",
    "ula_steering", "update_decoders", "update_weights", "weighted_sum_rate",
    "wmse_objective",
]
