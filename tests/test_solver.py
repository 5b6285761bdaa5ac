import numpy as np
import pytest

from irsopt import (BeamformerSet, PhaseConfig, SolverOptions, assemble_quadratic,
                    compute_mse, compute_rates, desk_scenario, draw_channels,
                    effective_channels, initialize, rmcg_solve, solve,
                    solve_beamforming, strip_irs, update_decoders,
                    update_weights, weighted_sum_rate, wmse_objective)


def reference_wmmse_no_irs(hbar, alpha, noise, p_max, w0, n_iters=60):
    """From-scratch alternating MMSE beamforming, no reflected paths.

    Uses dense solves (least squares at the unconstrained point) and a
    doubling bracket plus long bisection for the dual variable, sharing no
    code with the package path.
    """
    n_users, n_tx = hbar.shape
    w = np.array(w0, dtype=complex)
    for _ in range(n_iters):
        s = np.conj(hbar) @ w.T
        total = np.sum(np.abs(s) ** 2, axis=1) + noise
        u = np.diag(s) / total
        mse = 1.0 - np.abs(np.diag(s)) ** 2 / total
        q = 1.0 / mse
        a_mat = np.zeros((n_tx, n_tx), dtype=complex)
        rhs = np.zeros((n_users, n_tx), dtype=complex)
        for k in range(n_users):
            a_mat += (alpha[k] * q[k] * np.abs(u[k]) ** 2
                      * np.outer(hbar[k], np.conj(hbar[k])))
            rhs[k] = alpha[k] * q[k] * u[k] * hbar[k]

        def w_of(lam):
            if lam == 0.0:
                sol, *_ = np.linalg.lstsq(a_mat, rhs.T, rcond=None)
                return sol.T
            return np.linalg.solve(a_mat + lam * np.eye(n_tx), rhs.T).T

        def power(lam):
            return float(np.sum(np.abs(w_of(lam)) ** 2))

        if power(0.0) <= p_max:
            w = w_of(0.0)
        else:
            hi = 1.0
            while power(hi) > p_max:
                hi *= 2.0
            lo = 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if power(mid) > p_max:
                    lo = mid
                else:
                    hi = mid
            w = w_of(hi)
    s = np.conj(hbar) @ w.T
    sig = np.abs(np.diag(s)) ** 2
    total = np.sum(np.abs(s) ** 2, axis=1) + noise
    rates = np.log(1.0 + sig / (total - sig))
    return float(alpha @ rates)


@pytest.fixture(scope="module")
def desk_setup():
    scenario = desk_scenario(user_seed=0)
    channels = draw_channels(scenario, np.random.default_rng(1))
    return scenario, channels


class TestInitialize:
    def test_feasible_by_construction(self, desk_setup):
        scenario, channels = desk_setup
        beams, phases = initialize(scenario, channels, np.random.default_rng(0))
        assert beams.total_power == pytest.approx(scenario.p_max, rel=1e-12)
        assert beams.total_power <= scenario.p_max * (1 + 1e-9)
        assert np.max(np.abs(np.abs(phases.v_hat) - 1.0)) <= 1e-12

    def test_deterministic(self, desk_setup):
        scenario, channels = desk_setup
        a = initialize(scenario, channels, np.random.default_rng(5))
        b = initialize(scenario, channels, np.random.default_rng(5))
        assert np.array_equal(a[0].w, b[0].w)
        assert np.array_equal(a[1].v_hat, b[1].v_hat)

    def test_positive_initial_rate_over_seeds(self, desk_setup):
        scenario, channels = desk_setup
        for seed in range(100):
            beams, phases = initialize(scenario, channels,
                                       np.random.default_rng(seed))
            hbar = effective_channels(channels, phases)
            wsr = weighted_sum_rate(scenario.weights,
                                    compute_rates(hbar, beams, scenario.noise_power))
            assert wsr > 0.0


class TestSolve:
    def test_monotone_wsr_trace(self, desk_setup):
        scenario, channels = desk_setup
        _, _, trace = solve(scenario, channels, rng=np.random.default_rng(3))
        full = np.concatenate([[trace.initial_wsr], trace.wsr])
        assert np.all(np.diff(full) >= -1e-9)
        assert trace.wsr[-1] >= trace.initial_wsr

    def test_deterministic_trace(self, desk_setup):
        scenario, channels = desk_setup
        _, _, t1 = solve(scenario, channels, rng=np.random.default_rng(3))
        _, _, t2 = solve(scenario, channels, rng=np.random.default_rng(3))
        assert np.array_equal(t1.wsr, t2.wsr)
        assert np.array_equal(t1.lam, t2.lam)
        assert np.array_equal(t1.inner_iters, t2.inner_iters)

    def test_feasible_solution(self, desk_setup):
        scenario, channels = desk_setup
        beams, phases, _ = solve(scenario, channels, rng=np.random.default_rng(3))
        assert beams.total_power <= scenario.p_max * (1 + 1e-6)
        assert np.max(np.abs(np.abs(phases.v_hat) - 1.0)) <= 1e-12

    def test_full_size_preset_pins_power_at_one_watt(self):
        # at the full-size preset the 1 W budget binds and is matched tightly
        from irsopt import full_scenario
        scenario = full_scenario(user_seed=0)
        channels = draw_channels(scenario, np.random.default_rng(1))
        beams, _, trace = solve(scenario, channels, rng=np.random.default_rng(2))
        assert trace.lam[-1] > 0
        assert beams.total_power == pytest.approx(1.0, abs=1e-6)

    def test_infinite_tolerance_runs_one_iteration(self, desk_setup):
        scenario, channels = desk_setup
        opts = SolverOptions(outer_tol=np.inf, max_outer=50)
        _, _, trace = solve(scenario, channels, opts, rng=np.random.default_rng(3))
        assert trace.n_outer == 1
        assert trace.converged

    def test_surrogate_lower_bounds_wsr(self, desk_setup):
        scenario, channels = desk_setup
        _, _, trace = solve(scenario, channels, rng=np.random.default_rng(4))
        assert np.all(trace.wmse_obj <= trace.wsr + 1e-9)

    def test_warm_start_resumes_without_regression(self, desk_setup):
        scenario, channels = desk_setup
        beams, phases, trace = solve(scenario, channels,
                                     rng=np.random.default_rng(3))
        _, _, resumed = solve(scenario, channels, warm_start=(beams, phases))
        assert resumed.wsr[-1] >= trace.wsr[-1] - 1e-9

    def test_dimension_mismatch_rejected(self, desk_setup):
        scenario, channels = desk_setup
        with pytest.raises(ValueError):
            solve(scenario.replace(n_tx=8), channels)

    def test_no_irs_matches_reference_wmmse(self, desk_setup):
        scenario, channels = desk_setup
        bare = strip_irs(channels)
        hbar = bare.h_direct
        norms = np.linalg.norm(hbar, axis=1)
        w0 = (np.sqrt(scenario.p_max / scenario.n_users)
              * hbar / norms[:, None])
        empty = PhaseConfig(np.zeros(0, dtype=complex), 0, 0)
        opts = SolverOptions(outer_tol=1e-12, max_outer=60)
        _, _, trace = solve(scenario, bare, opts,
                            warm_start=(BeamformerSet(w0), empty))
        expected = reference_wmmse_no_irs(hbar, scenario.weights,
                                          scenario.noise_power,
                                          scenario.p_max, w0)
        assert trace.wsr[-1] == pytest.approx(expected, rel=1e-6)


class TestSubStepMonotonicity:
    def test_surrogate_improves_after_every_block(self, desk_setup):
        scenario, channels = desk_setup
        alpha, noise = scenario.weights, scenario.noise_power
        beams, phases = initialize(scenario, channels, np.random.default_rng(7))
        w = beams.w
        u = np.full(scenario.n_users, 0.1 + 0.1j)
        q = np.ones(scenario.n_users)

        def surrogate(u_, q_, w_, phases_):
            hbar = effective_channels(channels, phases_)
            return wmse_objective(alpha, q_, compute_mse(hbar, w_, u_, noise))

        for _ in range(3):
            hbar = effective_channels(channels, phases)
            before = surrogate(u, q, w, phases)
            u = update_decoders(hbar, w, noise)
            after_u = surrogate(u, q, w, phases)
            assert after_u >= before - 1e-10

            q = update_weights(compute_mse(hbar, w, u, noise))
            after_q = surrogate(u, q, w, phases)
            assert after_q >= after_u - 1e-10

            beams, _, _ = solve_beamforming(hbar, u, q, alpha, scenario.p_max)
            w = beams.w
            after_w = surrogate(u, q, w, phases)
            assert after_w >= after_q - 1e-10
            assert beams.total_power <= scenario.p_max * (1 + 1e-6)

            form = assemble_quadratic(channels, w, u, q, alpha, noise)
            phases, _ = rmcg_solve(form, phases)
            after_v = surrogate(u, q, w, phases)
            assert after_v >= after_w - 1e-10
            assert np.max(np.abs(np.abs(phases.v_hat) - 1.0)) <= 1e-12


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(outer_tol=0.0)
        with pytest.raises(ValueError):
            SolverOptions(max_outer=0)


class TestConvergenceFlag:
    def test_wsr_drop_is_not_converged(self, desk_setup, monkeypatch, caplog):
        # a phase step that maximizes the weighted MSE instead of minimizing it
        scenario, channels = desk_setup
        real_rmcg = rmcg_solve

        def worse_phases(form, init, **kwargs):
            from irsopt.phaseopt import QuadraticForm
            flipped = QuadraticForm(-form.j_hat, -form.z, 0.0, 0.0,
                                    form.n_irs, form.n_elements)
            return real_rmcg(flipped, init, **kwargs)

        monkeypatch.setattr("irsopt.solver.rmcg_solve", worse_phases)
        with caplog.at_level("WARNING", logger="irsopt.solver"):
            _, _, trace = solve(scenario, channels, rng=np.random.default_rng(3))
        prev = np.concatenate([[trace.initial_wsr], trace.wsr[:-1]])
        assert trace.wsr[-1] < prev[-1] * (1 - 1e-12)
        assert not trace.converged
        assert any("dropped" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("drop, converged", [(1e-14, True), (1e-9, False)])
    def test_rounding_dip_still_converges(self, desk_setup, monkeypatch,
                                          caplog, drop, converged):
        # the WSR is reported as 1.0 before the loop and 1 - drop after it
        scenario, channels = desk_setup
        values = iter([1.0, 1.0 - drop])
        monkeypatch.setattr("irsopt.solver.weighted_sum_rate",
                            lambda alpha, rates: next(values))
        with caplog.at_level("WARNING", logger="irsopt.solver"):
            _, _, trace = solve(scenario, channels, rng=np.random.default_rng(3))
        assert trace.n_outer == 1
        assert trace.converged is converged
        assert any("dropped" in rec.message for rec in caplog.records) is not converged
