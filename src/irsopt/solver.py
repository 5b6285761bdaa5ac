"""Outer alternating loop: decoders, weights, beamformers, phases.

Each outer iteration applies the four block updates in that order. The
decoder/weight steps are closed-form, the beamformer step is globally
optimal for the surrogate, and the phase step is a monotone manifold
descent, so the weighted sum rate never decreases across iterations. The
loop stops when its fractional increase falls below ``outer_tol``; a
decrease beyond rounding (``MONOTONE_TOL_REL``) also stops it, with a
warning and ``converged=False``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .beamformer import solve_beamforming
from .channels import ChannelSet, PhaseConfig, effective_channels
from .phaseopt import assemble_quadratic, rmcg_solve
from .scenario import ScenarioParams
from .wmmse import (BeamformerSet, compute_mse, compute_rates, update_decoders,
                    update_weights, weighted_sum_rate, wmse_objective)

log = logging.getLogger(__name__)

# A relative WSR drop larger than this is a failed monotone step, not
# convergence; smaller dips are rounding.
MONOTONE_TOL_REL = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    outer_tol: float = 1e-4        # stop when fractional WSR increase is below this
    max_outer: int = 100
    power_tol_rel: float = 1e-8    # beamformer bisection, relative to p_max
    lambda_tol_rel: float = 1e-12  # beamformer bisection, relative to lambda_max
    phase_grad_tol: float | None = None  # None -> 1e-6 * sqrt(n_irs * n_elements)
    max_inner: int = 100           # phase-descent iteration cap
    optimize_phases: bool = True   # False freezes the initial phases
    omega: float = 0.0             # diagonal shift of the (already PSD) phase quadratic

    def __post_init__(self):
        if self.outer_tol <= 0:
            raise ValueError("outer_tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")


@dataclass(frozen=True)
class SolveTrace:
    """Per-outer-iteration progress of one solve."""

    wsr: np.ndarray           # weighted sum rate (nats) after each iteration
    wmse_obj: np.ndarray      # surrogate objective at the same points
    lam: np.ndarray           # beamformer dual value per iteration
    inner_iters: np.ndarray   # phase-descent iterations per outer iteration
    wall_time_s: np.ndarray
    initial_wsr: float
    converged: bool
    n_outer: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_outer", int(self.wsr.shape[0]))


def initialize(scenario: ScenarioParams, channels: ChannelSet,
               rng: np.random.Generator) -> tuple[BeamformerSet, PhaseConfig]:
    """Feasible starting point: uniform random phases, then matched-filter
    beamformers on the resulting combined channel at full power."""
    phases = PhaseConfig.random(channels.n_irs, channels.n_elements, rng)
    hbar = effective_channels(channels, phases)
    norms = np.linalg.norm(hbar, axis=1)
    w = np.zeros_like(hbar)
    nonzero = norms > 0
    w[nonzero] = hbar[nonzero] / norms[nonzero, None]
    w *= np.sqrt(scenario.p_max / scenario.n_users)
    return BeamformerSet(w), phases


def solve(scenario: ScenarioParams, channels: ChannelSet,
          opts: SolverOptions | None = None,
          rng: np.random.Generator | None = None,
          warm_start: tuple[BeamformerSet, PhaseConfig] | None = None,
          ) -> tuple[BeamformerSet, PhaseConfig, SolveTrace]:
    """Run the alternating optimization on one channel realization.

    ``warm_start`` bypasses the random initialization; otherwise ``rng``
    (defaulting to a generator seeded with scenario.rng_seed) drives it.
    """
    opts = opts or SolverOptions()
    if channels.n_users != scenario.n_users or channels.n_tx != scenario.n_tx:
        raise ValueError("channel set does not match the scenario dimensions")
    if warm_start is not None:
        beams, phases = warm_start
    else:
        if rng is None:
            rng = np.random.default_rng(scenario.rng_seed)
        beams, phases = initialize(scenario, channels, rng)

    alpha = scenario.weights
    noise = scenario.noise_power
    do_phases = opts.optimize_phases and phases.size > 0

    hbar = effective_channels(channels, phases)
    prev_wsr = weighted_sum_rate(alpha, compute_rates(hbar, beams, noise))
    initial_wsr = prev_wsr

    wsr_hist, wmse_hist, lam_hist, inner_hist, time_hist = [], [], [], [], []
    converged = False
    for it in range(opts.max_outer):
        t0 = time.perf_counter()
        u = update_decoders(hbar, beams, noise)
        mse = compute_mse(hbar, beams, u, noise)
        q = update_weights(mse)
        beams, lam, _ = solve_beamforming(
            hbar, u, q, alpha, scenario.p_max,
            power_tol_rel=opts.power_tol_rel, lambda_tol_rel=opts.lambda_tol_rel)
        inner = 0
        if do_phases:
            form = assemble_quadratic(channels, beams, u, q, alpha, noise,
                                      omega=opts.omega)
            phases, ptrace = rmcg_solve(form, phases,
                                        grad_tol=opts.phase_grad_tol,
                                        max_iters=opts.max_inner)
            inner = ptrace.n_iters
            hbar = effective_channels(channels, phases)

        wsr = weighted_sum_rate(alpha, compute_rates(hbar, beams, noise))
        wmse_now = wmse_objective(alpha, q, compute_mse(hbar, beams, u, noise))
        wsr_hist.append(wsr)
        wmse_hist.append(wmse_now)
        lam_hist.append(lam)
        inner_hist.append(inner)
        time_hist.append(time.perf_counter() - t0)
        log.debug("outer %d: wsr=%.6f lam=%.3e inner=%d", it, wsr, lam, inner)

        rel_gain = (wsr - prev_wsr) / max(abs(prev_wsr), 1e-300)
        prev_wsr = wsr
        if rel_gain < -MONOTONE_TOL_REL:
            log.warning("outer %d: weighted sum rate dropped by %.3e (relative); "
                        "stopping unconverged", it, -rel_gain)
            break
        if rel_gain < opts.outer_tol:
            converged = True
            break

    trace = SolveTrace(wsr=np.array(wsr_hist), wmse_obj=np.array(wmse_hist),
                       lam=np.array(lam_hist), inner_iters=np.array(inner_hist),
                       wall_time_s=np.array(time_hist),
                       initial_wsr=initial_wsr, converged=converged)
    return beams, phases, trace
