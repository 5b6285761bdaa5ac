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
Neural Computation 2019).

The solve starts from ``energy_phases``: phases that raise the total
effective-channel energy sum_k ||hbar_k||^2 by a few minorize-maximize
steps, with matched-filter beamformers at full power. The start draws no
random numbers.

With fixed phases the effective channel hbar = d + Bx is fixed, and the
loop is plain WMMSE beamforming (Shi et al., IEEE TSP 2011):
``solve_fixed`` runs it on a stack of such channels in lockstep, each
layer one call on the whole stack. The baselines (random phases, no
surface) are such channels, formed by their caller. ``solve`` optimizes
the phases whenever there are phase elements; with none it runs
``solve_fixed`` on a stack of one.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

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

    outer_tol: float = 1e-4   # stop when fractional WSR increase is below this
    max_outer: int = 100

    def __post_init__(self):
        # written so that NaN fails the test
        if not self.outer_tol > 0:
            raise ValueError("outer_tol must be positive")
        check_count("max_outer", self.max_outer)


@dataclass(frozen=True)
class SolveTrace:
    """Per-outer-iteration progress of one solve. ``_trace``, which both
    ``solve`` and ``solve_fixed`` call, builds each array from one column
    of the solve's per-iteration rows, whose values follow the field order
    below; numpy infers the dtypes from them.

    Times are perf_counter seconds. A draw of a ``solve_fixed`` batch
    takes, for its start and each iteration it ran, its share of the
    batch's time: the batch's time over the number of draws still in the
    stack. So the times of a batch's draws add up to the batch's.
    """

    wsr: np.ndarray           # weighted sum rate (nats) after each iteration
    wmse_obj: np.ndarray      # surrogate objective at the same points
    lam: np.ndarray           # beamformer dual value per iteration
    probes: np.ndarray        # beamformer dual-search probes per iteration
    inner_iters: np.ndarray   # phase-descent iterations per outer iteration
    inner_converged: np.ndarray     # bool: the phase descent met its gradient tolerance
    line_search_failed: np.ndarray  # bool: the phase descent's line search stalled
    extrap_accepted: np.ndarray     # bool: the iteration continued from the extrapolated point
    phase_grad0: np.ndarray   # the descent's starting gradient norm; NaN in solve_fixed
    wsr_delta: np.ndarray     # wsr minus the one before (initial_wsr first): the monotonicity margin
    wall_time_s: np.ndarray
    # Seconds per iteration in each layer. channel_s: effective channels,
    # cross gains and rates at each point the iteration visits, with the
    # extrapolation trial's extrapolate call and the surrogate objective
    # (wmse_objective) at the iteration's end; decoder_s: the decoder and
    # MSE-weight update; beamformer_s: solve_beamforming; assembly_s and
    # descent_s: assemble_quadratic and rmcg_solve (0 in solve_fixed).
    # wall_time_s and the layers leave out the start: start_s.
    channel_s: np.ndarray
    decoder_s: np.ndarray
    beamformer_s: np.ndarray
    assembly_s: np.ndarray
    descent_s: np.ndarray
    initial_wsr: float
    converged: bool
    # the start: the starting point (the energy start, the effective
    # channels and the matched filter) and its WSR; in a solve_fixed batch,
    # whose channels and starting beamformers come from its caller, the
    # draw's share of the starting WSR
    start_s: float
    n_outer: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_outer", int(self.wsr.shape[0]))


def _trace(rows: list, initial_wsr: float, converged: bool, start_s: float) -> SolveTrace:
    """The trace of one solve from its rows, one per outer iteration in
    ``SolveTrace``'s field order."""
    return SolveTrace(*(np.array(column) for column in zip(*rows)),
                      initial_wsr=initial_wsr, converged=converged, start_s=start_s)


def _evaluate(scenario: ScenarioParams, hbar: np.ndarray, beams) -> tuple:
    """The gain terms of beamformers ``beams`` on the effective channels
    hbar, of one draw or of each draw of a stack, and the weighted sum
    rate (a float, or a list of one per draw), from one cross-gain
    matrix."""
    signal, total = gain_terms(cross_gains(hbar, beams), scenario.noise_power)
    return signal, total, weighted_sum_rate(scenario.weights, rates_from_terms(signal, total))


def _decoders_and_weights(signal: np.ndarray, total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The MMSE decoders, as ``update_decoders`` forms them, and the MSE
    weights at them, from a point's gain terms."""
    u = signal / total
    return u, update_weights(mse_from_terms(u, signal, total))


def _check_power(w: np.ndarray, budgets: list, name: str) -> None:
    """Raise ``ValueError`` if a draw of the (B, n_users, n_tx) stack w
    carries more power than its budget, beyond ``POWER_SLACK_REL``;
    ``name`` formatted with the draw's index names the draw."""
    power = (np.abs(w) ** 2).sum(axis=(1, 2)).tolist()
    for b, budget in enumerate(budgets):
        # written so that NaN fails the test
        if not power[b] <= budget * (1.0 + POWER_SLACK_REL):
            raise ValueError(f"{name.format(b)} carries power {power[b]!r} "
                             f"above its budget {budget!r}")


def energy_phases(channels: ChannelSet) -> tuple[PhaseConfig, np.ndarray, np.ndarray]:
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

    Returns the phases, the energy at x_0, ..., x_S (START_MM_STEPS + 1
    values) and the last step's r = d + B x_S, which is
    ``effective_channels(channels, phases)`` byte for byte: the same
    product on the same operands, since conj(conj(x)) is x.
    """
    g, h_t, d = channels.g, channels.h_t, channels.h_direct
    g_conj, h_conj = channels.g_conj, channels.h_t_conj
    work = np.empty_like(h_t)   # each step's (n_users, N) products, in place

    def ascent(r):   # exp(j arg(B^H r)), arg as np.angle takes it
        np.matmul(r, g.T, out=work)
        np.multiply(work, h_conj, out=work)
        s = work.sum(axis=0)
        return np.exp(1j * np.arctan2(s.imag, s.real))

    x = ascent(d)
    energy = np.empty(START_MM_STEPS + 1)
    for step in range(START_MM_STEPS + 1):
        r = d + np.multiply(h_t, x, out=work) @ g_conj
        energy[step] = np.vdot(r, r).real
        if step < START_MM_STEPS:
            x = ascent(r)
    return PhaseConfig(np.conj(x), channels.n_irs, channels.n_elements), energy, r


def matched_filter(hbar: np.ndarray, p_max: float) -> BeamformerSet:
    """Matched-filter beamformers w_k = hbar_k / ||hbar_k|| at full power,
    p_max / n_users per user; a user with a zero channel gets w_k = 0."""
    norms = np.linalg.norm(hbar, axis=1)
    w = np.zeros_like(hbar)
    nonzero = norms > 0
    w[nonzero] = hbar[nonzero] / norms[nonzero, None]
    w *= np.sqrt(p_max / hbar.shape[0])
    return BeamformerSet(w)


def _start(scenario: ScenarioParams, channels: ChannelSet, phases: PhaseConfig | None,
           ) -> tuple[BeamformerSet, PhaseConfig, np.ndarray]:
    """``initialize``'s point and the effective channels at it, formed once.
    With no phase elements there is no energy to raise: the phases are the
    empty ``PhaseConfig``, and no energy step runs."""
    if phases is None and channels.n_irs * channels.n_elements:
        phases, _, hbar = energy_phases(channels)
    else:
        if phases is None:
            phases = PhaseConfig.all_ones(channels.n_irs, channels.n_elements)
        hbar = effective_channels(channels, phases)
    return matched_filter(hbar, scenario.p_max), phases, hbar


def initialize(scenario: ScenarioParams, channels: ChannelSet,
               phases: PhaseConfig | None = None) -> tuple[BeamformerSet, PhaseConfig]:
    """Feasible starting point: ``phases`` (by default
    ``energy_phases(channels)``), then ``matched_filter`` beamformers on
    the resulting combined channel at full power."""
    return _start(scenario, channels, phases)[:2]


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


def _check_warm_start(scenario: ScenarioParams, channels: ChannelSet, warm_start: tuple,
                      ) -> tuple[BeamformerSet, PhaseConfig, np.ndarray]:
    """The warm start as ``_start`` gives its point: a ``BeamformerSet``,
    a ``PhaseConfig`` and the effective channels at them, once the
    beamformers' shape and power are checked against the scenario. Array
    phases are wrapped for the channels' surfaces, which checks their
    length and modulus."""
    beams, phases = warm_start
    w = _w_matrix(beams)
    shape = (scenario.n_users, scenario.n_tx)
    if w.shape != shape:
        raise ValueError(f"warm_start beamformers must have shape {shape}, got {w.shape}")
    _check_power(w[None], [scenario.p_max], "the warm_start beamformer set")
    if not isinstance(phases, PhaseConfig):
        phases = PhaseConfig(phases, channels.n_irs, channels.n_elements)
    return BeamformerSet(w), phases, effective_channels(channels, phases)


def solve(scenario: ScenarioParams, channels: ChannelSet,
          opts: SolverOptions | None = None, *,
          warm_start: tuple[BeamformerSet | np.ndarray, PhaseConfig | np.ndarray] | None = None,
          ) -> tuple[BeamformerSet, PhaseConfig, SolveTrace]:
    """Run the alternating optimization on one channel realization.

    ``warm_start`` bypasses the start. Otherwise the solve starts from
    ``initialize``, the energy start, which draws nothing. Warm-start
    beamformers, a ``BeamformerSet`` or an array, must be (n_users, n_tx)
    and within the power budget (up to ``beamformer.POWER_SLACK_REL``),
    else ``ValueError``. The phases, a ``PhaseConfig`` or a stacked
    unit-modulus vector laid out as its ``v_hat``, must match the
    channels' surfaces (``effective_channels``); an array of the wrong
    length or off the unit circle raises ``ValueError``.

    The phases are optimized exactly when there are phase elements. With
    none, the effective channels are formed once and the solve is
    ``solve_fixed`` on a stack of one. A baseline with fixed phases is
    ``solve_fixed`` on the channels those phases give.

    One point evaluation, ``_evaluate``, which ``solve_fixed`` shares,
    scores each point the loop visits: the start, each extrapolation trial
    and each end of an outer iteration. It takes the point's effective
    channels and forms, once, the cross gains hbar_k^H w_j on them. The
    point's weighted sum rate, the next decoders and their MSE, and the
    surrogate objective at the iteration's end all come from that one
    matrix. The effective channels are formed only where the phases
    change: at the start (where the energy start hands on its last
    product), at each extrapolation trial and after each phase descent.
    The trace is built from one row per outer iteration.
    """
    t_start = time.perf_counter()
    opts = opts or SolverOptions()
    if channels.n_users != scenario.n_users or channels.n_tx != scenario.n_tx:
        raise ValueError("channel set does not match the scenario dimensions")
    beams, phases, hbar = (_start(scenario, channels, None) if warm_start is None
                           else _check_warm_start(scenario, channels, warm_start))

    if not phases.size:
        t_fixed = time.perf_counter()
        w, (trace,) = solve_fixed(hbar[None], beams.w[None], scenario, [scenario.p_max], opts)
        trace = replace(trace, start_s=trace.start_s + t_fixed - t_start)
        return BeamformerSet(w[0]), phases, trace

    alpha = scenario.weights
    signal, total, prev_wsr = _evaluate(scenario, hbar, beams)
    initial_wsr = prev_wsr
    start_s = time.perf_counter() - t_start

    rows = []   # one per outer iteration, in SolveTrace's field order
    converged = False
    beta = EXTRAP_BETA0
    last = (beams, phases)   # the point at the end of the outer iteration before the last
    for it in range(opts.max_outer):
        t0 = time.perf_counter()
        start = (beams, phases)
        accepted = False
        if it >= EXTRAP_START:
            trial_w, trial_v = extrapolate(beams, phases, *last, beta, scenario.p_max)
            trial_hbar = effective_channels(channels, trial_v)
            trial = _evaluate(scenario, trial_hbar, trial_w)
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
        u, q = _decoders_and_weights(signal, total)
        t_beam = time.perf_counter()
        beams, lam, probes = solve_beamforming(hbar, u, q, alpha, scenario.p_max)
        t_assembly = time.perf_counter()
        form = assemble_quadratic(channels, beams, u, q, alpha, scenario.noise_power)
        t_descent = time.perf_counter()
        phases, ptrace = rmcg_solve(form, phases, rel_tol=PHASE_REL_TOL, max_iters=MAX_INNER)
        t_channel = time.perf_counter()
        hbar = effective_channels(channels, phases)
        signal, total, wsr = _evaluate(scenario, hbar, beams)
        wmse_now = wmse_objective(alpha, q, mse_from_terms(u, signal, total))
        t_end = time.perf_counter()
        inner, inner_ok, failed = ptrace.n_iters, ptrace.converged, ptrace.line_search_failed
        rows.append((wsr, wmse_now, lam, probes, inner, inner_ok, failed, accepted,
                     float(ptrace.grad_norms[0]), wsr - prev_wsr, time.perf_counter() - t0,
                     t_decoder - t0 + t_end - t_channel, t_beam - t_decoder,
                     t_assembly - t_beam, t_descent - t_assembly, t_channel - t_descent))
        log.debug("outer %d: wsr=%.6f lam=%.3e probes=%d inner=%d "
                  "inner_converged=%s line_search_failed=%s extrap_accepted=%s",
                  it, wsr, lam, probes, inner, inner_ok, failed, accepted)
        stop = _stop(it, wsr, prev_wsr, opts.outer_tol)
        prev_wsr = wsr
        if stop is not None:
            converged = stop
            break

    return beams, phases, _trace(rows, initial_wsr, converged, start_s)


def _stop(it: int, wsr: float, prev_wsr: float, outer_tol: float) -> bool | None:
    """The stop rule after outer iteration ``it``: None to go on, else
    whether the solve converged. A drop beyond MONOTONE_TOL_REL stops it
    unconverged, with a warning."""
    rel_gain = (wsr - prev_wsr) / max(abs(prev_wsr), 1e-300)
    if rel_gain < -MONOTONE_TOL_REL:
        log.warning("outer %d: weighted sum rate dropped by %.3e (relative); "
                    "stopping unconverged", it, -rel_gain)
        return False
    if rel_gain < outer_tol:
        return True
    return None


def solve_fixed(hbar: np.ndarray, w0: np.ndarray, scenario: ScenarioParams,
                p_max: np.ndarray, opts: SolverOptions | None = None,
                ) -> tuple[np.ndarray, list[SolveTrace]]:
    """Alternating beamforming on a stack of fixed effective channels,
    run in lockstep: the loop of ``solve`` without a phase step.

    hbar and the starting beamformers w0 are (B, n_users, n_tx) stacks,
    p_max holds each draw's budget (B,), and ``scenario`` gives the
    weights and the noise power that all draws share; other shapes, or
    dimensions other than the scenario's, raise ``ValueError``, as do an
    empty stack, a budget that is not finite and positive, and a w0 draw
    whose power exceeds its budget (up to ``beamformer.POWER_SLACK_REL``).
    Each iteration takes the decoders, the MSE weights, the beamformers and
    the next point's gain terms of every draw in the stack, with the
    helpers ``solve`` uses, each one call on the stack:
    ``solve_beamforming`` runs its dual search per draw, and the weighted
    sum rate and the surrogate end in one dot product per draw, so that
    each draw's values are those of a stack of one, bit for bit. A draw
    that stops, by the rule of ``solve``, leaves the stack.

    Returns the final beamformers (B, n_users, n_tx) and one
    ``SolveTrace`` per draw, whose phase-step columns read as a converged
    descent of no iterations: inner_iters 0, phase_grad0 NaN, and zero
    assembly and descent times.
    """
    t_start = time.perf_counter()
    opts = opts or SolverOptions()
    alpha = scenario.weights
    budgets = np.asarray(p_max, dtype=float).reshape(-1).tolist()
    n_draws = len(budgets)
    if np.shape(w0) != hbar.shape or hbar.shape != (n_draws, scenario.n_users, scenario.n_tx):
        raise ValueError("solve_fixed takes (B, n_users, n_tx) stacks hbar and w0 "
                         "and B budgets")
    if not n_draws:
        raise ValueError("solve_fixed takes at least one draw")
    for b, budget in enumerate(budgets):
        # written so that NaN fails the tests
        if not 0.0 < budget < np.inf:
            raise ValueError(f"solve_fixed budget {b} must be positive and finite, "
                             f"got {budget!r}")
    _check_power(w0, budgets, "solve_fixed w0 draw {}")
    active = list(range(n_draws))   # the draws still in the stack, in stack order
    signal, total, prev = _evaluate(scenario, hbar, w0)
    initial = list(prev)
    w_final = np.array(w0, dtype=complex)
    rows = [[] for _ in range(n_draws)]
    converged = [False] * n_draws
    t0 = time.perf_counter()
    start_s = (t0 - t_start) / n_draws
    for it in range(opts.max_outer):
        u, q = _decoders_and_weights(signal, total)
        t_beam = time.perf_counter()
        beams, lam, probes = solve_beamforming(hbar, u, q, alpha, [budgets[b] for b in active])
        t_channel = time.perf_counter()
        signal, total, wsr = _evaluate(scenario, hbar, beams)
        wmse = wmse_objective(alpha, q, mse_from_terms(u, signal, total))
        t_end = time.perf_counter()
        w_final[active] = beams.w
        keep, values = [], []
        for i, b in enumerate(active):
            values.append((b, wsr[i], wmse[i], lam[i], probes[i], wsr[i] - prev[b]))
            log.debug("draw %d outer %d: wsr=%.6f lam=%.3e probes=%d",
                      b, it, wsr[i], lam[i], probes[i])
            stop = _stop(it, wsr[i], prev[b], opts.outer_tol)
            prev[b] = wsr[i]
            if stop is None:
                keep.append(i)
            else:
                converged[b] = stop
        if len(keep) < len(active):
            active = [active[i] for i in keep]
            hbar, signal, total = hbar[keep], signal[keep], total[keep]
        t_next = time.perf_counter()
        n = len(values)
        shares = ((t_next - t0) / n, (t_end - t_channel) / n, (t_beam - t0) / n,
                  (t_channel - t_beam) / n)
        for b, *point, delta in values:
            rows[b].append((*point, 0, True, False, False, np.nan, delta, *shares, 0.0, 0.0))
        t0 = t_next
        if not active:
            break
    return w_final, [_trace(draw_rows, initial[b], converged[b], start_s)
                     for b, draw_rows in enumerate(rows)]
