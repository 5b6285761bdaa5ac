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

The proposed scheme starts from ``energy_phases``: phases that raise the
total effective-channel energy sum_k ||hbar_k||^2 by a few
minorize-maximize steps, with matched-filter beamformers at full power.
The start draws no random numbers. Frozen phases (``optimize_phases=False``,
the random_phase baseline) start instead from uniform random phases drawn
from the ``rng`` given to ``solve``; that draw defines the baseline.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .beamformer import POWER_SLACK_REL, solve_beamforming
from .channels import ChannelSet, PhaseConfig, effective_channels
from .phaseopt import assemble_quadratic, rmcg_solve
from .scenario import ScenarioParams, check_count
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
# Iteration cap of each phase descent; no full-preset descent reaches it.
MAX_INNER = 100
# The extrapolation trial starts at this 0-based outer iteration: started
# at the first ones, it sends some draws to a worse local optimum. Its
# step factor starts at EXTRAP_BETA0, doubles on acceptance up to
# EXTRAP_BETA_MAX and halves on rejection down to EXTRAP_BETA_MIN.
EXTRAP_START = 5
EXTRAP_BETA0 = 1.0
EXTRAP_BETA_MAX = 4.0
EXTRAP_BETA_MIN = 0.25
# Minorize-maximize steps of the energy start (energy_phases).
START_MM_STEPS = 10


@dataclass(frozen=True)
class SolverOptions:
    """The outer loop's settings. The inner solvers' tolerances and the
    phase descent's iteration cap are module constants (``PHASE_REL_TOL``,
    ``MAX_INNER``, ``beamformer.POWER_TOL_REL`` and ``LAMBDA_TOL_REL``),
    not fields: one value of each is in use."""

    outer_tol: float = 1e-4        # stop when fractional WSR increase is below this
    max_outer: int = 100
    optimize_phases: bool = True   # False freezes the initial phases

    def __post_init__(self):
        # written so that NaN fails the test
        if not self.outer_tol > 0:
            raise ValueError("outer_tol must be positive")
        check_count("max_outer", self.max_outer)


@dataclass(frozen=True)
class SolveTrace:
    """Per-outer-iteration progress of one solve. ``solve`` builds each
    array from one column of its per-iteration rows, whose values follow
    the field order below; numpy infers the dtypes from them."""

    wsr: np.ndarray           # weighted sum rate (nats) after each iteration
    wmse_obj: np.ndarray      # surrogate objective at the same points
    lam: np.ndarray           # beamformer dual value per iteration
    probes: np.ndarray        # beamformer dual-search probes per iteration
    inner_iters: np.ndarray   # phase-descent iterations per outer iteration
    inner_converged: np.ndarray     # bool: the phase descent met its gradient tolerance
    line_search_failed: np.ndarray  # bool: the phase descent's line search stalled
    extrap_accepted: np.ndarray     # bool: the iteration continued from the extrapolated point
    phase_grad0: np.ndarray   # the descent's starting gradient norm; NaN with frozen phases
    wsr_delta: np.ndarray     # wsr minus the one before (initial_wsr first): the monotonicity margin
    wall_time_s: np.ndarray
    # Seconds per iteration in each layer. channel_s: effective channels,
    # cross gains and rates at each point the iteration visits, with the
    # extrapolation trial's extrapolate call and the surrogate objective
    # (wmse_objective) at the iteration's end; decoder_s: the decoder and
    # MSE-weight update; beamformer_s: solve_beamforming; assembly_s and
    # descent_s: assemble_quadratic and rmcg_solve (0 with frozen phases).
    channel_s: np.ndarray
    decoder_s: np.ndarray
    beamformer_s: np.ndarray
    assembly_s: np.ndarray
    descent_s: np.ndarray
    initial_wsr: float
    converged: bool
    n_outer: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_outer", int(self.wsr.shape[0]))


def energy_phases(channels: ChannelSet) -> tuple[PhaseConfig, np.ndarray]:
    """Phases that raise the total effective-channel energy
    sum_k ||hbar_k||^2, the proposed scheme's start.

    With x = conj(v_hat), d = h_direct and the stacked links g =
    ``channels.g``, h_t = ``channels.h_t`` (and their stored conjugates
    ``g_conj`` and ``h_t_conj``), the effective channels are
    hbar = d + B x, where B x is (h_t * x) @ conj(g) and B^H r is
    sum_k conj(h_t[k]) * (r @ g^T)[k]; the (n_users * n_tx, N) matrix B
    is never formed. ||d + B x||^2 is convex in x, so its linearization
    at x_t minorizes it, and the unit-modulus maximizer of that is
    x_{t+1} = exp(j arg(B^H (d + B x_t))): each such step does not lower
    the energy (minorize-maximize for unimodular quadratic programs, Song,
    Babu and Palomar, IEEE TSP 2015; for IRS phases, Pan et al., IEEE TWC
    2020). The start is x_0 = exp(j arg(B^H d)), followed by
    START_MM_STEPS steps. A zero entry of B^H r gives the phase 1.

    Returns the phases and the energy at x_0, ..., x_S
    (START_MM_STEPS + 1 values).
    """
    g, h_t, d = channels.g, channels.h_t, channels.h_direct
    g_conj, h_conj = channels.g_conj, channels.h_t_conj
    work = np.empty_like(h_t)   # each step's (n_users, N) products, in place

    def ascent(r):   # exp(j arg(B^H r))
        np.matmul(r, g.T, out=work)
        np.multiply(work, h_conj, out=work)
        return np.exp(1j * np.angle(work.sum(axis=0)))

    x = ascent(d)
    energy = np.empty(START_MM_STEPS + 1)
    for step in range(START_MM_STEPS + 1):
        r = d + np.multiply(h_t, x, out=work) @ g_conj
        energy[step] = np.vdot(r, r).real
        if step < START_MM_STEPS:
            x = ascent(r)
    return PhaseConfig(np.conj(x), channels.n_irs, channels.n_elements), energy


def initialize(scenario: ScenarioParams, channels: ChannelSet,
               phases: PhaseConfig | None = None) -> tuple[BeamformerSet, PhaseConfig]:
    """Feasible starting point: ``phases`` (by default the proposed
    scheme's ``energy_phases(channels)``), then matched-filter beamformers
    on the resulting combined channel at full power."""
    if phases is None:
        phases, _ = energy_phases(channels)
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
    power = float((np.abs(w) ** 2).sum())
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

    ``warm_start`` bypasses the start. Otherwise the solve starts from
    ``initialize``: with ``opts.optimize_phases`` (the proposed scheme)
    from the energy start, which draws nothing, and with frozen phases
    from ``PhaseConfig.random`` drawn from ``rng`` (defaulting to a
    generator seeded with scenario.rng_seed), so ``rng`` drives the start
    only when the phases are frozen. Warm-start beamformers must be
    (n_users, n_tx) and within the power budget (up to
    ``beamformer.POWER_SLACK_REL``), else ``ValueError``; the phases must
    match the channels' surfaces (``effective_channels``).

    One local evaluation scores each point the loop visits: the start,
    each extrapolation trial and each end of an outer iteration. It forms,
    once, the cross gains hbar_k^H w_j on the point's effective channels.
    The point's weighted sum rate, the next decoders and their MSE, and
    the surrogate objective at the iteration's end all come from that one
    matrix. The effective channels are formed only where the phases
    change: at the start, at each extrapolation trial and after each phase
    descent, so frozen phases form them once per solve. The trace is built
    from one row per outer iteration.
    """
    opts = opts or SolverOptions()
    if channels.n_users != scenario.n_users or channels.n_tx != scenario.n_tx:
        raise ValueError("channel set does not match the scenario dimensions")
    if warm_start is not None:
        beams, phases = warm_start
        _check_warm_start(scenario, beams)
    elif opts.optimize_phases:
        beams, phases = initialize(scenario, channels)
    else:
        if rng is None:
            rng = np.random.default_rng(scenario.rng_seed)
        beams, phases = initialize(scenario, channels, PhaseConfig.random(
            channels.n_irs, channels.n_elements, rng))

    alpha = scenario.weights
    noise = scenario.noise_power
    do_phases = opts.optimize_phases and phases.size > 0

    def evaluate(w, hbar):
        """The gain terms of beamformers w on the effective channels hbar
        and the weighted sum rate, from one cross-gain matrix."""
        signal, total = gain_terms(cross_gains(hbar, w), noise)
        return signal, total, weighted_sum_rate(alpha, rates_from_terms(signal, total))

    hbar = effective_channels(channels, phases)
    signal, total, prev_wsr = evaluate(beams, hbar)
    initial_wsr = prev_wsr

    rows = []   # one per outer iteration, in SolveTrace's field order
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
            trial = evaluate(trial_w, trial_hbar)
            accepted = trial[2] >= prev_wsr
            if accepted:
                beams = BeamformerSet(trial_w)
                phases = PhaseConfig(trial_v, phases.n_irs, phases.n_elements)
                hbar = trial_hbar
                signal, total, _ = trial
                beta = min(2.0 * beta, EXTRAP_BETA_MAX)
            else:
                beta = max(0.5 * beta, EXTRAP_BETA_MIN)
        last = start
        t_decoder = time.perf_counter()
        u = signal / total   # the MMSE decoders, as update_decoders forms them
        q = update_weights(mse_from_terms(u, signal, total))
        t_beam = time.perf_counter()
        beams, lam, probes = solve_beamforming(hbar, u, q, alpha, scenario.p_max)
        t_assembly = t_descent = t_channel = time.perf_counter()
        # frozen phases count as a converged descent without a failure
        inner, inner_ok, failed, grad0 = 0, True, False, np.nan
        if do_phases:
            form = assemble_quadratic(channels, beams, u, q, alpha, noise)
            t_descent = time.perf_counter()
            phases, ptrace = rmcg_solve(form, phases, rel_tol=PHASE_REL_TOL,
                                        max_iters=MAX_INNER)
            t_channel = time.perf_counter()
            inner = ptrace.n_iters
            inner_ok, failed = ptrace.converged, ptrace.line_search_failed
            grad0 = float(ptrace.grad_norms[0])
            hbar = effective_channels(channels, phases)

        signal, total, wsr = evaluate(beams, hbar)
        wmse_now = wmse_objective(alpha, q, mse_from_terms(u, signal, total))
        t_end = time.perf_counter()
        rows.append((wsr, wmse_now, lam, probes, inner, inner_ok, failed, accepted, grad0,
                     wsr - prev_wsr, time.perf_counter() - t0,
                     t_decoder - t0 + t_end - t_channel, t_beam - t_decoder,
                     t_assembly - t_beam, t_descent - t_assembly, t_channel - t_descent))
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

    return beams, phases, SolveTrace(*(np.array(column) for column in zip(*rows)),
                                     initial_wsr=initial_wsr, converged=converged)
