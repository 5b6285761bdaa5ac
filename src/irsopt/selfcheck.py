"""Randomized invariant checks behind the `validate` CLI subcommand.

Each check draws fresh random instances and verifies an identity the
library is built on: the rate/MSE equivalence after the closed-form
updates, the quadratic-form rewrite of the weighted MSE, gradient
consistency, the closed-form power curve, monotone descent of the
full loop on a small scenario, the descent kernel and the beamformer step
in use against their numpy references (the compiled library is built with
-march=native, so each host checks its own build), and monotone
minorize-maximize steps of the energy start on a desk and a full draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels, beamformer
from .beamformer import (POWER_TOL_REL, assemble_context, beamformers_at, power_g,
                         solve_beamforming)
from .channels import ChannelSet, PhaseConfig, draw_channels, effective_channels
from .phaseopt import (QuadraticForm, assemble_quadratic, euclidean_gradient, objective,
                       quadratic_constant)
from .scenario import desk_scenario, full_scenario
from .solver import MAX_INNER, PHASE_REL_TOL, SolverOptions, energy_phases, solve
from .wmmse import compute_mse, compute_rates, optimal_state, weighted_sum_rate, wmse_objective


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _random_instance(rng, n_users, n_tx):
    hbar = rng.standard_normal((n_users, n_tx)) + 1j * rng.standard_normal((n_users, n_tx))
    w = rng.standard_normal((n_users, n_tx)) + 1j * rng.standard_normal((n_users, n_tx))
    alpha = rng.uniform(0.2, 2.0, n_users)
    noise = 10.0 ** rng.uniform(-2, 0)
    return hbar, w, alpha, noise


def _cplx(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# Scales of the four blocks of elements in block_scaled_form.
BLOCK_SCALES = (1e-3, 1e-2, 1e-1, 1.0)


def block_scaled_form(rng, size, rank) -> QuadraticForm:
    """A random factored form shaped like the solver's phase quadratic.

    The elements fall into four blocks, like surfaces at different
    distances from the BS and the users, whose columns of F^H and entries
    of z are scaled by BLOCK_SCALES; F is small beside z (|F_m|^2 about
    0.02 |z_m|^2 at scale 1). The Hessian diagonal thus spans orders of
    magnitude, and at a random point it is nonpositive on about half the
    elements, so the preconditioner's floor binds."""
    scale = np.asarray(BLOCK_SCALES)[np.arange(size) * len(BLOCK_SCALES) // size]
    factor = (0.1 / np.sqrt(rank)) * scale[:, None] * _cplx(rng, (size, rank))
    return QuadraticForm.from_factor(factor.conj().T, scale * _cplx(rng, size), 1, size)


def khatri_rao_form(rng, size, n_a, n_b) -> QuadraticForm:
    """A random form in the representation assembly gives: F^H the
    Khatri-Rao product of a_h (n_a, size) and b_h (n_b, size), with the
    columns of a_h and the entries of z scaled by blocks as in
    ``block_scaled_form`` (|F_m|^2 about 0.04 |z_m|^2 at scale 1)."""
    scale = np.asarray(BLOCK_SCALES)[np.arange(size) * len(BLOCK_SCALES) // size]
    a_h = (0.1 / np.sqrt(n_a * n_b)) * scale * _cplx(rng, (n_a, size))
    return QuadraticForm(a_h, _cplx(rng, (n_b, size)), scale * _cplx(rng, size), 1, size)


def khatri_rao_cases(rng) -> list[QuadraticForm]:
    """Khatri-Rao forms of the shapes assembly hands over: both operands
    of several rows, one operand of one row, one element, and a
    zero-weight user (an all-zero row of a_h). Their row counts (2 to 8)
    and sizes (8 to 160, and 1) leave remainders in the compiled kernel's
    tiles of rows and vector lanes."""
    n_a, n_b = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    size = int(rng.integers(8, 161))
    zero_user = khatri_rao_form(rng, size, n_a, n_b)
    a_h = np.array(zero_user.a_h)
    a_h[int(rng.integers(n_a))] = 0.0
    return [khatri_rao_form(rng, size, n_a, n_b), khatri_rao_form(rng, size, n_a, 1),
            khatri_rao_form(rng, 1, n_a, n_b),
            QuadraticForm(a_h, zero_user.b_h, zero_user.z, 1, size)]


def _random_channels(rng, n_irs, n_el, n_users, n_tx) -> ChannelSet:
    return ChannelSet(_cplx(rng, (n_users, n_tx)),
                      _cplx(rng, (n_irs, n_el, n_tx)),
                      _cplx(rng, (n_irs, n_users, n_el)))


def check_rate_mse_equivalence(rng, n_instances=100) -> CheckResult:
    worst = 0.0
    for _ in range(n_instances):
        hbar, w, alpha, noise = _random_instance(rng, rng.integers(1, 9), rng.integers(1, 9))
        state = optimal_state(hbar, w, noise)
        wsr = weighted_sum_rate(alpha, compute_rates(hbar, w, noise))
        surrogate = wmse_objective(alpha, state.mse_weights, state.mse)
        worst = max(worst, abs(surrogate - wsr))
    return CheckResult("rate/mse equivalence after closed-form updates", worst < 1e-9,
                       f"worst abs gap {worst:.2e} over {n_instances} instances")


def check_quadratic_identity(rng, n_instances=20) -> CheckResult:
    worst = 0.0
    for _ in range(n_instances):
        n_irs, n_el = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        n_users, n_tx = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        channels = _random_channels(rng, n_irs, n_el, n_users, n_tx)
        w = rng.standard_normal((n_users, n_tx)) + 1j * rng.standard_normal((n_users, n_tx))
        u = rng.standard_normal(n_users) + 1j * rng.standard_normal(n_users)
        q = rng.uniform(0.5, 3.0, n_users)
        alpha = rng.uniform(0.2, 2.0, n_users)
        noise = 10.0 ** rng.uniform(-2, 0)
        args = (channels, w, u, q, alpha, noise)
        phases = PhaseConfig.random(n_irs, n_el, rng)
        direct = float(alpha @ (q * compute_mse(
            effective_channels(channels, phases), w, u, noise)))
        via_form = objective(assemble_quadratic(*args), phases) + quadratic_constant(*args)
        worst = max(worst, abs(via_form - direct) / max(abs(direct), 1e-30))
    return CheckResult("weighted MSE equals its quadratic form", worst < 1e-9,
                       f"worst rel gap {worst:.2e} over {n_instances} instances")


def check_gradient(rng, n_instances=10, h=1e-5) -> CheckResult:
    """The gradient of random factored forms, rank above and below the
    size, against central differences of ||F^H v||^2 + 2 Re(v^H z)."""
    worst = 0.0
    for _ in range(n_instances):
        size = int(rng.integers(2, 9))
        factor_h = _cplx(rng, (int(rng.integers(1, 13)), size))
        z = _cplx(rng, size)
        form = QuadraticForm.from_factor(factor_h, z, 1, size)

        def f(vec):
            t = factor_h @ vec
            return float(np.vdot(t, t).real + 2.0 * np.vdot(vec, z).real)

        v = np.exp(1j * rng.uniform(0, 2 * np.pi, size))
        grad = euclidean_gradient(form, v)
        num = np.empty(size, dtype=complex)
        for i in range(size):
            e = np.zeros(size, dtype=complex)
            e[i] = h
            re = (f(v + e) - f(v - e)) / (2 * h)
            im = (f(v + 1j * e) - f(v - 1j * e)) / (2 * h)
            num[i] = re + 1j * im
        worst = max(worst, np.linalg.norm(num - grad) / np.linalg.norm(grad))
    return CheckResult("ambient gradient matches finite differences", worst < 1e-6,
                       f"worst rel err {worst:.2e} over {n_instances} instances")


def check_power_curve(rng, n_instances=20) -> CheckResult:
    """Closed-form power against the beamformers' power, feasibility at a
    1 W cap (often slack), and the dual search at a binding cap 0.25 g(0),
    where the power must meet the cap within POWER_TOL_REL."""
    worst = 0.0
    feasible = True
    worst_miss = 0.0
    probes = []
    for _ in range(n_instances):
        hbar, w, alpha, noise = _random_instance(rng, 4, 6)
        state = optimal_state(hbar, w, noise)
        args = (hbar, state.decoders, state.mse_weights, alpha)
        ctx = assemble_context(*args)
        lam = float(10.0 ** rng.uniform(-3, 2))
        direct = beamformers_at(lam, ctx).total_power
        closed = power_g(lam, ctx)
        worst = max(worst, abs(direct - closed) / max(direct, 1e-30))
        beams, _, _ = solve_beamforming(*args, 1.0)
        feasible &= beams.total_power <= 1.0 * (1 + 1e-6)
        p_bind = 0.25 * power_g(0.0, ctx)
        beams, _, n_probes = solve_beamforming(*args, p_bind)
        worst_miss = max(worst_miss, abs(beams.total_power - p_bind) / p_bind)
        probes.append(n_probes)
    ok = worst < 1e-10 and feasible and worst_miss <= POWER_TOL_REL
    return CheckResult("closed-form power curve, power feasibility and dual search", ok,
                       f"worst rel gap {worst:.2e}, feasible={feasible}; at a binding "
                       f"cap: worst rel power miss {worst_miss:.2e}, probes mean "
                       f"{np.mean(probes):.1f} max {max(probes)}")


def check_monotone_solve(rng) -> CheckResult:
    scenario = desk_scenario(user_seed=int(rng.integers(1 << 31)),
                             rng_seed=int(rng.integers(1 << 31)))
    channels = draw_channels(scenario, rng)
    _, _, trace = solve(scenario, channels, SolverOptions(max_outer=30))
    diffs = np.diff(np.concatenate([[trace.initial_wsr], trace.wsr]))
    ok = bool(np.all(diffs >= -1e-9))
    return CheckResult("weighted sum rate is monotone across outer iterations", ok,
                       f"min increase {diffs.min():.2e} over {trace.n_outer} iterations")


def check_energy_start(rng) -> CheckResult:
    """The energy start's steps on one desk and one full draw: the total
    channel energy sum_k ||hbar_k||^2 never falls from one step to the
    next (up to 1e-12 relative), so it ends at or above its value at x_0."""
    worst = np.inf
    gains = []
    for preset in (desk_scenario, full_scenario):
        scenario = preset(user_seed=int(rng.integers(1 << 31)))
        _, energy, _ = energy_phases(draw_channels(scenario, rng))
        worst = min(worst, float(np.min(np.diff(energy) / energy[:-1])))
        gains.append(energy[-1] / energy[0])
    return CheckResult("energy start's minorize-maximize steps never lower the energy",
                       worst >= -1e-12,
                       f"smallest relative step {worst:+.2e}; energy at the last step over "
                       f"x_0: desk {gains[0]:.3f}, full {gains[1]:.3f}")


def rounding_spread(form, v0, max_iters, rel_tol=0.0, n_variants=8):
    """How far ``rmcg_core_numpy`` drifts from itself when only its
    rounding changes. It runs the reference from ``v0`` with grad_tol 0,
    then on ``n_variants`` copies of the problem that are equal to it in
    exact arithmetic: the phase elements and the rows of each operand
    permuted, a_h scaled by c in [sqrt(0.5), sqrt(2)] and z by c^2 and a
    global phase, with the start turned by that phase, so that each copy's
    objective is c^2 times the original along the same path. Returns the
    reference's objective history; per entry of it, the largest gap to a
    copy's history divided by c^2 (inf where a copy stopped earlier); and
    the fewest and most iterations any of the runs took. Near a rounding
    tie, or where a backtracking test or a step's curvature amplifies
    rounding, this is the spread any correctly rounded kernel may show."""
    _, n, obj, *_ = _kernels.rmcg_core_numpy(form, v0, 0.0, rel_tol, max_iters)
    obj = obj[:n + 1]
    spread = np.zeros(n + 1)
    stops = [n]
    rng = np.random.default_rng(0)
    for _ in range(n_variants):
        elements = rng.permutation(form.size)
        rows_a, rows_b = rng.permutation(len(form.a_h)), rng.permutation(len(form.b_h))
        c2 = rng.uniform(0.5, 2.0)
        turn = np.exp(2j * np.pi * rng.uniform())
        copy = QuadraticForm(np.sqrt(c2) * form.a_h[rows_a][:, elements],
                             form.b_h[rows_b][:, elements], c2 * turn * form.z[elements],
                             1, form.size)
        _, m, other, *_ = _kernels.rmcg_core_numpy(copy, turn * v0[elements], 0.0, rel_tol,
                                                   max_iters)
        stops.append(m)
        m = min(m, n) + 1
        spread[:m] = np.maximum(spread[:m], np.abs(other[:m] / c2 - obj[:m]))
        spread[m:] = np.inf
    return obj, spread, (min(stops), max(stops))


def check_kernel_parity(rng, n_instances=10, n_iters=5) -> CheckResult:
    """The descent kernel in use against the numpy reference. Each
    instance draws a random factored form (rank above and below the size),
    a block-scaled one (``block_scaled_form``), on which the
    preconditioner's floor binds, and the Khatri-Rao forms of
    ``khatri_rao_cases``, whose products the compiled kernel takes from
    the two operands. On each, the objective histories of the first
    iterations must agree to 1e-9 of the objective's scale, trace(j_hat)
    + 2 |z|_1, and runs stopped by the solver's relative gradient tolerance
    must stop within one iteration of each other. Where they do not, the
    kernel's stop must lie within one iteration of the range of stops of
    the reference on copies of the problem that differ only in rounding
    (``rounding_spread``): the relative test can fall on either side of a
    tie, and the reference itself then stops several iterations apart.
    The detail names the compiled build in use."""
    kernel = "compiled" if _kernels.JIT_ENABLED else "numpy reference"
    loaded = f"; build {_kernels.KERNEL_PATH.name}" if _kernels.JIT_ENABLED else ""
    worst = 0.0
    worst_stop = 0
    floor_bound = 0
    spread_runs = 0
    outside = 0
    for _ in range(n_instances):
        size, rank = int(rng.integers(1, 161)), int(rng.integers(1, 65))
        factored = QuadraticForm.from_factor(_cplx(rng, (rank, size)), _cplx(rng, size),
                                             1, size)
        scaled = block_scaled_form(rng, int(rng.integers(8, 161)), rank)
        for form in (factored, scaled, *khatri_rao_cases(rng)):
            v0 = PhaseConfig.random(1, form.size, rng).v_hat
            if form is scaled:
                hess = _kernels.hessian_diagonal(form, v0)
                h_max = np.max(hess)
                floor_bound += bool(0.0 < h_max and np.min(hess) < _kernels.PRECOND_FLOOR * h_max)
            args = (form, v0, 0.0, 0.0, n_iters)
            _, n_a, obj_a, *_ = _kernels.rmcg_core(*args)
            _, n_b, obj_b, *_ = _kernels.rmcg_core_numpy(*args)
            k = min(n_a, n_b) + 1
            scale = float(np.sum(form.diagonal())) + 2.0 * float(np.sum(np.abs(form.z)))
            worst = max(worst, float(np.max(np.abs(obj_a[:k] - obj_b[:k]))) / scale)
            args = (form, v0, 0.0, PHASE_REL_TOL, MAX_INNER)
            stop, ref_stop = (kernel_fn(*args)[1]
                              for kernel_fn in (_kernels.rmcg_core, _kernels.rmcg_core_numpy))
            worst_stop = max(worst_stop, abs(stop - ref_stop))
            if abs(stop - ref_stop) > 1:
                spread_runs += 1
                _, _, (low, high) = rounding_spread(form, v0, MAX_INNER, PHASE_REL_TOL)
                outside += not low - 1 <= stop <= high + 1
    return CheckResult("descent kernel matches the numpy reference",
                       worst <= 1e-9 and outside == 0,
                       f"kernel {kernel}, worst rel objective gap {worst:.2e} over "
                       f"{n_instances} random, {n_instances} block-scaled and "
                       f"{4 * n_instances} Khatri-Rao forms (preconditioner floor "
                       f"binding at the start on {floor_bound} block-scaled), "
                       f"{n_iters} iterations; worst iteration-count gap {worst_stop} "
                       f"at rel_tol {PHASE_REL_TOL:g}, on {spread_runs} forms more than 1, "
                       f"{outside} of them outside the reference's own range of stops "
                       f"(+-1) under rounding{loaded}")


def check_beamformer_parity(rng, n_instances=20) -> CheckResult:
    """The beamformer step solves use (``beamformer.solve_beamforming``)
    against the numpy reference, ``solve_beamforming_numpy``, where they
    differ. Each instance is a stack of three random draws of one random
    shape (1 to 10 users and antennas, so the compiled step's vector width
    of 8 antennas is crossed) with one zero-weight user where there are
    two or more, and budgets of 0.25 g(0) (binding), 2 g(0) (slack) and
    1 W. The decoders are of unit modulus and the surrogate weights lie in
    [0.5, 2], so that the Gram matrix is as well conditioned as the
    channel: MMSE decoders of random beamformers spread |u_k|^2 over
    orders of magnitude, and at a slack budget the weakest modes then
    carry power whose surrogate no double-precision eigensolver pins to
    1e-10 (the tests bound that case by its conditioning). The surrogate
    sum_k alpha_k q_k E_k of each draw's beamformers must agree to 1e-10 of
    the reference's. The worst relative gap of the dual values is reported
    but not gated: in ill-conditioned modes it moves by more than
    rounding, as w does, while the surrogate does not."""
    name = "beamformer step matches the numpy reference"
    if beamformer.solve_beamforming is beamformer.solve_beamforming_numpy:
        return CheckResult(name, True, "beamformer numpy reference, the reference itself")
    worst = worst_lam = 0.0
    for _ in range(n_instances):
        n_draws, n_users, n_tx = 3, int(rng.integers(1, 11)), int(rng.integers(1, 11))
        alpha = rng.uniform(0.2, 2.0, n_users)
        if n_users > 1:
            alpha[int(rng.integers(n_users))] = 0.0
        noise = 10.0 ** rng.uniform(-2, 0)
        hbar = _cplx(rng, (n_draws, n_users, n_tx))
        u = np.exp(2j * np.pi * rng.uniform(size=(n_draws, n_users)))
        q = rng.uniform(0.5, 2.0, (n_draws, n_users))
        g0 = [power_g(0.0, assemble_context(hbar[b], u[b], q[b], alpha))
              for b in range(n_draws)]
        p_max = [0.25 * g0[0], 2.0 * g0[1], 1.0]
        ours, lam, _ = beamformer.solve_beamforming(hbar, u, q, alpha, p_max)
        ref, ref_lam, _ = beamformer.solve_beamforming_numpy(hbar, u, q, alpha, p_max)
        for b in range(n_draws):
            f_ours, f_ref = (float(alpha @ (q[b] * compute_mse(hbar[b], w[b], u[b], noise)))
                             for w in (ours.w, ref.w))
            worst = max(worst, abs(f_ours - f_ref) / abs(f_ref))
            if max(lam[b], ref_lam[b]) > 0.0:
                worst_lam = max(worst_lam, abs(lam[b] - ref_lam[b]) / max(lam[b], ref_lam[b]))
    return CheckResult(name, worst <= 1e-10,
                       f"beamformer compiled, worst rel surrogate gap {worst:.2e} and worst "
                       f"rel dual gap {worst_lam:.2e} (not gated) over {n_instances} stacks "
                       f"of 3 draws")


ALL_CHECKS = (check_rate_mse_equivalence, check_quadratic_identity, check_gradient,
              check_power_curve, check_monotone_solve, check_kernel_parity,
              check_beamformer_parity, check_energy_start)


def run_all(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [check(rng) for check in ALL_CHECKS]
