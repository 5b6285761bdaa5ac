"""Outer alternating loop: decoders, weights, beamformers, phases.

Each outer iteration applies the four block updates in that order. The
decoder/weight steps are closed-form, the beamformer step is globally
optimal for the surrogate, and the phase step is a monotone manifold
descent, stopped early (``PHASE_REL_TOL``), so the weighted sum rate never
decreases across iterations. The loop stops when its fractional increase
falls below ``outer_tol``; a decrease beyond rounding
(``MONOTONE_TOL_REL``) also stops it, with a warning and
``converged=False``.

From outer iteration ``EXTRAP_START`` on, each iteration first scores an
extrapolated point: the phases and beamformers pushed on by ``beta``
times their change over the last outer iteration, then put back on the
unit circle and within the power budget. The loop continues from it only
if its weighted sum rate is not below the current one, so the four
monotone updates that follow keep the rate monotone (a monotone
extrapolated block update, Xu and Yin, SIAM J. Imaging Sci. 2013).
``beta`` grows on acceptance and shrinks on rejection (Ang and Gillis,
Neural Computation 2019). No trial runs while the phases are frozen.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .beamformer import POWER_SLACK_REL, solve_beamforming
from .channels import ChannelSet, PhaseConfig, effective_channels
from .phaseopt import assemble_quadratic, rmcg_solve
from .scenario import ScenarioParams
# The loop derives every rate, decoder and MSE from one cross-gain matrix
# per point, so it calls neither compute_mse, compute_rates nor
# update_decoders; they stay importable from here, where perfbench's traced
# pass looks up the names it wraps.
from .wmmse import (BeamformerSet, _w_matrix, compute_mse, compute_rates,  # noqa: F401
                    cross_gains, gain_terms, mse_from_terms, rates_from_terms,
                    update_decoders, update_weights, weighted_sum_rate, wmse_objective)

log = logging.getLogger(__name__)

# A relative WSR drop larger than this is a failed monotone step, not
# convergence; smaller dips are rounding.
MONOTONE_TOL_REL = 1e-12
# Each phase descent stops once its Riemannian gradient norm is at most this
# fraction of its starting one (or at rmcg_solve's absolute floor, if that
# is larger): the outer loop needs a monotone phase step, not an exact
# block minimizer.
PHASE_REL_TOL = 1e-2
# The extrapolation trial starts at this 0-based outer iteration: started
# at the first ones, it sends some draws to a worse local optimum. Its
# step factor starts at EXTRAP_BETA0, doubles on acceptance up to
# EXTRAP_BETA_MAX and halves on rejection down to EXTRAP_BETA_MIN.
EXTRAP_START = 5
EXTRAP_BETA0 = 1.0
EXTRAP_BETA_MAX = 4.0
EXTRAP_BETA_MIN = 0.25


@dataclass(frozen=True)
class SolverOptions:
    """The outer loop's settings. The inner solvers' tolerances are
    module constants (``PHASE_REL_TOL``, ``beamformer.POWER_TOL_REL`` and
    ``LAMBDA_TOL_REL``), not fields: one value of each is in use."""

    outer_tol: float = 1e-4        # stop when fractional WSR increase is below this
    max_outer: int = 100
    max_inner: int = 100           # phase-descent iteration cap
    optimize_phases: bool = True   # False freezes the initial phases

    def __post_init__(self):
        # written so that NaN fails the test
        if not self.outer_tol > 0:
            raise ValueError("outer_tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.max_inner < 0:
            raise ValueError("max_inner must be nonnegative")


@dataclass(frozen=True)
class SolveTrace:
    """Per-outer-iteration progress of one solve."""

    wsr: np.ndarray           # weighted sum rate (nats) after each iteration
    wmse_obj: np.ndarray      # surrogate objective at the same points
    lam: np.ndarray           # beamformer dual value per iteration
    probes: np.ndarray        # beamformer dual-search probes per iteration
    inner_iters: np.ndarray   # phase-descent iterations per outer iteration
    inner_converged: np.ndarray     # bool: the phase descent met its gradient tolerance
    line_search_failed: np.ndarray  # bool: the phase descent's line search stalled
    extrap_accepted: np.ndarray     # bool: the iteration continued from the extrapolated point
    phase_grad0: np.ndarray   # the descent's starting gradient norm; NaN with frozen phases
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


def extrapolate(beams: BeamformerSet, phases: PhaseConfig, last_beams: BeamformerSet,
                last_phases: PhaseConfig, beta: float, p_max: float,
                ) -> tuple[np.ndarray, np.ndarray]:
    """The point beta times the last step beyond (beams, phases), made
    feasible: each phase entry is scaled back onto the unit circle, and the
    beamformers onto the budget if they exceed it. An extrapolated phase
    entry has modulus at least 1, so the scaling never divides by zero.

    Returns the raw (w, v_hat) arrays; the caller wraps them only if it
    continues from the point."""
    v = phases.v_hat + beta * (phases.v_hat - last_phases.v_hat)
    w = beams.w + beta * (beams.w - last_beams.w)
    power = float(np.sum(np.abs(w) ** 2))
    if power > p_max:
        w *= np.sqrt(p_max / power)
    return w, v / np.abs(v)


def _check_warm_start(scenario: ScenarioParams, beams) -> None:
    w = _w_matrix(beams)
    shape = (scenario.n_users, scenario.n_tx)
    if w.shape != shape:
        raise ValueError(f"warm_start beamformers must have shape {shape}, got {w.shape}")
    power = float(np.sum(np.abs(w) ** 2))
    # written so that NaN fails the test
    if not power <= scenario.p_max * (1.0 + POWER_SLACK_REL):
        raise ValueError(f"warm_start beamformers carry power {power!r} "
                         f"above p_max {scenario.p_max!r}")


def solve(scenario: ScenarioParams, channels: ChannelSet,
          opts: SolverOptions | None = None,
          rng: np.random.Generator | None = None,
          warm_start: tuple[BeamformerSet, PhaseConfig] | None = None,
          ) -> tuple[BeamformerSet, PhaseConfig, SolveTrace]:
    """Run the alternating optimization on one channel realization.

    ``warm_start`` bypasses the random initialization; otherwise ``rng``
    (defaulting to a generator seeded with scenario.rng_seed) drives it.
    Warm-start beamformers must be (n_users, n_tx) and within the power
    budget (up to ``beamformer.POWER_SLACK_REL``), else ``ValueError``;
    the phases must match the channels' surfaces (``effective_channels``).

    The cross gains hbar_k^H w_j are formed once per point the loop
    visits: the start, each extrapolation trial and each end of an outer
    iteration. The point's weighted sum rate, the next decoders and their
    MSE, and the surrogate objective at the iteration's end all come from
    that one matrix.
    """
    opts = opts or SolverOptions()
    if channels.n_users != scenario.n_users or channels.n_tx != scenario.n_tx:
        raise ValueError("channel set does not match the scenario dimensions")
    if warm_start is not None:
        beams, phases = warm_start
        _check_warm_start(scenario, beams)
    else:
        if rng is None:
            rng = np.random.default_rng(scenario.rng_seed)
        beams, phases = initialize(scenario, channels, rng)

    alpha = scenario.weights
    noise = scenario.noise_power
    do_phases = opts.optimize_phases and phases.size > 0

    hbar = effective_channels(channels, phases)
    signal, total = gain_terms(cross_gains(hbar, beams), noise)
    prev_wsr = weighted_sum_rate(alpha, rates_from_terms(signal, total))
    initial_wsr = prev_wsr

    wsr_hist, wmse_hist, lam_hist, probe_hist, inner_hist, time_hist = [], [], [], [], [], []
    inner_ok_hist, failed_hist, accepted_hist, grad0_hist = [], [], [], []
    converged = False
    beta = EXTRAP_BETA0
    last = (beams, phases)   # the point at the end of the outer iteration before the last
    for it in range(opts.max_outer):
        t0 = time.perf_counter()
        start = (beams, phases)
        accepted = False
        if do_phases and it >= EXTRAP_START:
            trial_w, trial_v = extrapolate(beams, phases, *last, beta, scenario.p_max)
            trial_hbar = effective_channels(channels, trial_v)
            trial_terms = gain_terms(cross_gains(trial_hbar, trial_w), noise)
            accepted = weighted_sum_rate(alpha, rates_from_terms(*trial_terms)) >= prev_wsr
            if accepted:
                beams = BeamformerSet(trial_w)
                phases = PhaseConfig(trial_v, phases.n_irs, phases.n_elements)
                hbar, (signal, total) = trial_hbar, trial_terms
                beta = min(2.0 * beta, EXTRAP_BETA_MAX)
            else:
                beta = max(0.5 * beta, EXTRAP_BETA_MIN)
        last = start
        u = signal / total   # the MMSE decoders, as update_decoders forms them
        q = update_weights(mse_from_terms(u, signal, total))
        beams, lam, probes = solve_beamforming(hbar, u, q, alpha, scenario.p_max)
        # frozen phases count as a converged descent without a failure
        inner, inner_ok, failed, grad0 = 0, True, False, np.nan
        if do_phases:
            form = assemble_quadratic(channels, beams, u, q, alpha, noise)
            phases, ptrace = rmcg_solve(form, phases, rel_tol=PHASE_REL_TOL,
                                        max_iters=opts.max_inner)
            inner = ptrace.n_iters
            inner_ok, failed = ptrace.converged, ptrace.line_search_failed
            grad0 = float(ptrace.grad_norms[0])
            hbar = effective_channels(channels, phases)

        signal, total = gain_terms(cross_gains(hbar, beams), noise)
        wsr = weighted_sum_rate(alpha, rates_from_terms(signal, total))
        wmse_now = wmse_objective(alpha, q, mse_from_terms(u, signal, total))
        wsr_hist.append(wsr)
        wmse_hist.append(wmse_now)
        lam_hist.append(lam)
        probe_hist.append(probes)
        inner_hist.append(inner)
        inner_ok_hist.append(inner_ok)
        failed_hist.append(failed)
        accepted_hist.append(accepted)
        grad0_hist.append(grad0)
        time_hist.append(time.perf_counter() - t0)
        log.debug("outer %d: wsr=%.6f lam=%.3e probes=%d inner=%d "
                  "inner_converged=%s line_search_failed=%s extrap_accepted=%s",
                  it, wsr, lam, probes, inner, inner_ok, failed, accepted)

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
                       lam=np.array(lam_hist), probes=np.array(probe_hist, dtype=int),
                       inner_iters=np.array(inner_hist),
                       inner_converged=np.array(inner_ok_hist, dtype=bool),
                       line_search_failed=np.array(failed_hist, dtype=bool),
                       extrap_accepted=np.array(accepted_hist, dtype=bool),
                       phase_grad0=np.array(grad0_hist, dtype=float),
                       wall_time_s=np.array(time_hist),
                       initial_wsr=initial_wsr, converged=converged)
    return beams, phases, trace
