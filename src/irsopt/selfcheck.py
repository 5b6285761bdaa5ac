"""Randomized invariant checks behind the `validate` CLI subcommand.

Each check draws fresh random instances and verifies an identity the
library is built on: the rate/MSE equivalence after the closed-form
updates, the quadratic-form rewrite of the weighted MSE, gradient
consistency, the closed-form power curve, and monotone descent of the
full loop on a small scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamformer import assemble_context, beamformers_at, power_g, solve_beamforming
from .channels import ChannelSet, PhaseConfig, draw_channels, effective_channels
from .phaseopt import QuadraticForm, assemble_quadratic, euclidean_gradient, objective
from .scenario import desk_scenario
from .solver import SolverOptions, solve
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


def _random_channels(rng, n_irs, n_el, n_users, n_tx) -> ChannelSet:
    def cplx(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ChannelSet(cplx((n_users, n_tx)),
                      cplx((n_irs, n_el, n_tx)),
                      cplx((n_irs, n_users, n_el)))


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
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        phases = PhaseConfig.random(n_irs, n_el, rng)
        direct = float(alpha @ (q * compute_mse(
            effective_channels(channels, phases), w, u, noise)))
        via_form = objective(form, phases) + form.const_term - form.omega * form.size
        worst = max(worst, abs(via_form - direct) / max(abs(direct), 1e-30))
    return CheckResult("weighted MSE equals its quadratic form", worst < 1e-9,
                       f"worst rel gap {worst:.2e} over {n_instances} instances")


def check_gradient(rng, n_instances=10, h=1e-5) -> CheckResult:
    worst = 0.0
    for _ in range(n_instances):
        size = int(rng.integers(2, 9))
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        j_hat = 0.5 * (a + a.conj().T)
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        form = QuadraticForm(j_hat, z, float(rng.uniform(0, 2)), 0.0, 1, size)

        def f(vec):
            return float(np.vdot(vec, j_hat @ vec).real
                         + form.omega * np.vdot(vec, vec).real
                         + 2.0 * np.vdot(vec, z).real)

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
    worst = 0.0
    feasible = True
    for _ in range(n_instances):
        hbar, w, alpha, noise = _random_instance(rng, 4, 6)
        state = optimal_state(hbar, w, noise)
        ctx = assemble_context(hbar, state.decoders, state.mse_weights, alpha)
        lam = float(10.0 ** rng.uniform(-3, 2))
        direct = beamformers_at(lam, ctx).total_power
        closed = power_g(lam, ctx)
        worst = max(worst, abs(direct - closed) / max(direct, 1e-30))
        beams, lam_star, _ = solve_beamforming(hbar, state.decoders,
                                               state.mse_weights, alpha, 1.0)
        feasible &= beams.total_power <= 1.0 * (1 + 1e-6)
    ok = worst < 1e-10 and feasible
    return CheckResult("closed-form power curve and power feasibility", ok,
                       f"worst rel gap {worst:.2e}, feasible={feasible}")


def check_monotone_solve(rng) -> CheckResult:
    scenario = desk_scenario(user_seed=int(rng.integers(1 << 31)),
                             rng_seed=int(rng.integers(1 << 31)))
    channels = draw_channels(scenario, rng)
    _, _, trace = solve(scenario, channels, SolverOptions(max_outer=30), rng=rng)
    diffs = np.diff(np.concatenate([[trace.initial_wsr], trace.wsr]))
    ok = bool(np.all(diffs >= -1e-9))
    return CheckResult("weighted sum rate is monotone across outer iterations", ok,
                       f"min increase {diffs.min():.2e} over {trace.n_outer} iterations")


ALL_CHECKS = (check_rate_mse_equivalence, check_quadratic_identity, check_gradient,
              check_power_curve, check_monotone_solve)


def run_all(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [check(rng) for check in ALL_CHECKS]
