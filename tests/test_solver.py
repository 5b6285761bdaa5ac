import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from irsopt import (BeamformerSet, ChannelSet, ExperimentSpec, PhaseConfig, SolverOptions,
                    SolveTrace, assemble_quadratic, compute_mse, compute_rates, desk_scenario,
                    draw_channels, effective_channels, energy_phases, full_scenario,
                    initialize, ring_scenario, rmcg_solve, run_experiment, solve,
                    solve_beamforming, strip_irs, update_decoders, update_weights,
                    weighted_sum_rate, wmse_objective)
from irsopt import solver as solver_mod
from irsopt.beamformer import POWER_TOL_REL
from irsopt.experiments import _cell_rngs
from irsopt.scenario import LOS_MODES
from irsopt.solver import MONOTONE_TOL_REL
from irsopt.wmmse import cross_gains


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


def random_start(scenario, channels, seed):
    """The frozen-phase start: uniform random phases drawn from a generator
    seeded with ``seed``, then matched-filter beamformers. Before the energy
    start it was also the proposed scheme's."""
    phases = PhaseConfig.random(channels.n_irs, channels.n_elements,
                                np.random.default_rng(seed))
    return initialize(scenario, channels, phases)


def dense_b(channels):
    """The (n_users * n_tx, N) matrix B, which energy_phases never forms:
    the effective channels are h_direct + B conj(v_hat), flattened."""
    g, h_t = channels.g, channels.h_t
    return (h_t[:, None, :] * np.conj(g).T[None, :, :]).reshape(-1, g.shape[0])


@pytest.fixture(scope="module")
def desk_setup():
    scenario = desk_scenario(user_seed=0)
    channels = draw_channels(scenario, np.random.default_rng(1))
    return scenario, channels


class TestInitialize:
    def test_feasible_by_construction(self, desk_setup):
        scenario, channels = desk_setup
        for beams, phases in (initialize(scenario, channels),
                              random_start(scenario, channels, 0)):
            assert beams.total_power == pytest.approx(scenario.p_max, rel=1e-12)
            assert beams.total_power <= scenario.p_max * (1 + 1e-9)
            assert np.max(np.abs(np.abs(phases.v_hat) - 1.0)) <= 1e-12

    def test_deterministic(self, desk_setup):
        scenario, channels = desk_setup
        for a, b in ((initialize(scenario, channels), initialize(scenario, channels)),
                     (random_start(scenario, channels, 5),
                      random_start(scenario, channels, 5))):
            assert np.array_equal(a[0].w, b[0].w)
            assert np.array_equal(a[1].v_hat, b[1].v_hat)

    def test_positive_initial_rate_over_seeds(self, desk_setup):
        scenario, channels = desk_setup
        for seed in range(100):
            beams, phases = random_start(scenario, channels, seed)
            hbar = effective_channels(channels, phases)
            wsr = weighted_sum_rate(scenario.weights,
                                    compute_rates(hbar, beams, scenario.noise_power))
            assert wsr > 0.0

    @pytest.mark.parametrize("preset", [desk_scenario, full_scenario])
    def test_energy_steps_never_lower_the_energy(self, preset, monkeypatch):
        # each minorize-maximize step keeps sum_k ||hbar_k||^2 at or above
        # the step before, so above its value at x_0 = exp(j arg(B^H d)),
        # here formed from the dense B
        scenario = preset(user_seed=2)
        channels = draw_channels(scenario, np.random.default_rng(3))
        phases, energy = energy_phases(channels)
        assert energy.shape == (solver_mod.START_MM_STEPS + 1,)
        assert np.all(np.diff(energy) >= -1e-12 * energy[:-1])
        assert energy[-1] > energy[0]
        hbar = effective_channels(channels, phases)
        assert np.sum(np.abs(hbar) ** 2) == pytest.approx(energy[-1], rel=1e-12)
        b, d = dense_b(channels), channels.h_direct.reshape(-1)
        assert (np.linalg.norm(d + b @ np.conj(phases.v_hat) - hbar.reshape(-1))
                <= 1e-12 * np.linalg.norm(hbar))
        x0 = np.exp(1j * np.angle(b.conj().T @ d))
        assert np.sum(np.abs(d + b @ x0) ** 2) == pytest.approx(energy[0], rel=1e-12)
        monkeypatch.setattr(solver_mod, "START_MM_STEPS", 0)
        start, only = energy_phases(channels)
        assert np.allclose(start.v_hat, np.conj(x0), rtol=0, atol=1e-12)
        assert only.tolist() == energy[:1].tolist()

    @pytest.mark.parametrize("case", ["no_surfaces", "zero_reflected", "zero_direct",
                                      "zero_weight_users"])
    def test_energy_start_finite_on_degenerate_channels(self, desk_setup, case):
        scenario, channels = desk_setup
        if case == "no_surfaces":
            channels = strip_irs(channels)
        elif case == "zero_reflected":
            channels = ChannelSet(channels.h_direct, channels.g_bs_irs,
                                  np.zeros_like(channels.h_irs_user))
        elif case == "zero_direct":
            channels = ChannelSet(np.zeros_like(channels.h_direct), channels.g_bs_irs,
                                  channels.h_irs_user)
        else:
            scenario = scenario.replace(weights=np.array([0.0, 1.0, 0.0, 1.0]))
        beams, phases = initialize(scenario, channels)
        _, energy = energy_phases(channels)
        assert np.all(np.isfinite(beams.w)) and np.all(np.isfinite(energy))
        assert phases.size == channels.n_irs * channels.n_elements
        assert np.max(np.abs(np.abs(phases.v_hat) - 1.0), initial=0.0) <= 1e-12
        assert beams.total_power == pytest.approx(scenario.p_max, rel=1e-12)
        assert np.all(np.diff(energy) >= -1e-12 * energy[:-1])
        if case == "zero_reflected":
            # no B^H r has a phase: every element stays at 1
            assert np.array_equal(phases.v_hat, np.ones(phases.size))


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
        assert np.array_equal(t1.probes, t2.probes)
        assert np.array_equal(t1.inner_iters, t2.inner_iters)
        assert np.array_equal(t1.inner_converged, t2.inner_converged)
        assert np.array_equal(t1.line_search_failed, t2.line_search_failed)
        assert np.array_equal(t1.extrap_accepted, t2.extrap_accepted)
        assert np.array_equal(t1.phase_grad0, t2.phase_grad0)
        for flags in (t1.inner_converged, t1.line_search_failed, t1.extrap_accepted):
            assert flags.dtype == bool and flags.shape == (t1.n_outer,)

    def test_rng_drives_only_the_frozen_phase_start(self, desk_setup):
        # the proposed scheme starts from the energy start, which draws
        # nothing; frozen phases start from the rng's random phases
        scenario, channels = desk_setup
        traces = [solve(scenario, channels, rng=np.random.default_rng(seed))[2]
                  for seed in (3, 4)]
        for name in ("wsr", "wmse_obj", "lam", "probes", "inner_iters", "inner_converged",
                     "line_search_failed", "extrap_accepted", "phase_grad0", "wsr_delta"):
            assert np.array_equal(getattr(traces[0], name), getattr(traces[1], name),
                                  equal_nan=name == "phase_grad0"), name
        assert traces[0].initial_wsr == traces[1].initial_wsr
        frozen = SolverOptions(optimize_phases=False)
        starts = {solve(scenario, channels, frozen, rng=np.random.default_rng(seed))[2]
                  .initial_wsr for seed in (3, 4)}
        assert len(starts) == 2

    def test_random_phase_row_is_a_frozen_solve_from_random_phases(self):
        # a random_phase sweep row is the frozen-phase loop from the cell's
        # seeded random phases and matched-filter beamformers
        scenario = desk_scenario(user_seed=5)
        spec = ExperimentSpec(scenario, "p_max", (0.5, 1.0), 2,
                              schemes=("random_phase",), base_seed=7)
        frozen = SolverOptions(optimize_phases=False)
        for row in run_experiment(spec):
            sweep_idx = spec.sweep_values.index(row.sweep_value)
            channel_rng, init_seed = _cell_rngs(spec.base_seed, sweep_idx, row.trial)
            cell = scenario.replace(p_max=row.sweep_value)
            channels = draw_channels(cell, channel_rng)
            _, _, trace = solve(cell, channels, frozen,
                                warm_start=random_start(cell, channels, init_seed))
            assert row.wsr_nats == trace.wsr[-1]
            assert row.outer_iters == trace.n_outer

    def test_descent_health_matches_each_descent(self, desk_setup, monkeypatch):
        # the per-outer flags are the ones each phase descent reported; a
        # cap of 3 inner iterations leaves some descents unconverged
        scenario, channels = desk_setup
        descents = []

        def recording(form, init, **kwargs):
            phases, ptrace = rmcg_solve(form, init, **kwargs)
            descents.append(ptrace)
            return phases, ptrace

        monkeypatch.setattr("irsopt.solver.rmcg_solve", recording)
        monkeypatch.setattr(solver_mod, "MAX_INNER", 3)
        _, _, trace = solve(scenario, channels, rng=np.random.default_rng(3))
        assert len(descents) == trace.n_outer
        assert trace.inner_converged.tolist() == [d.converged for d in descents]
        assert trace.line_search_failed.tolist() == [
            d.line_search_failed for d in descents]
        assert not trace.inner_converged.all()

    @pytest.mark.parametrize("scheme", ["optimized", "frozen", "no_irs"])
    def test_trace_columns(self, desk_setup, scheme):
        # the trace is built from one row per iteration, its dtypes
        # inferred by numpy from the row values
        scenario, channels = desk_setup
        opts = SolverOptions(max_outer=8, optimize_phases=scheme == "optimized")
        if scheme == "no_irs":
            channels = strip_irs(channels)
        _, _, trace = solve(scenario, channels, opts, rng=np.random.default_rng(3))
        kinds = {"probes": "i", "inner_iters": "i", "inner_converged": "b",
                 "line_search_failed": "b", "extrap_accepted": "b"}
        arrays = [f.name for f in dataclasses.fields(SolveTrace)
                  if f.name not in ("initial_wsr", "converged", "n_outer")]
        assert len(arrays) == 16
        for name in arrays:
            column = getattr(trace, name)
            assert column.shape == (trace.n_outer,), name
            assert column.dtype.kind == kinds.get(name, "f"), name

    def test_frozen_phases_count_as_converged(self, desk_setup):
        scenario, channels = desk_setup
        _, _, trace = solve(scenario, channels,
                            SolverOptions(optimize_phases=False),
                            rng=np.random.default_rng(3))
        assert trace.inner_converged.all()
        assert not trace.line_search_failed.any()
        assert not trace.inner_iters.any()

    @pytest.mark.parametrize("frozen", ["optimize_phases", "strip_irs"])
    def test_frozen_phases_run_no_extrapolation(self, desk_setup, monkeypatch, frozen):
        # with nothing to descend, no trial runs: the solve is the plain
        # loop's, bit for bit
        scenario, channels = desk_setup
        opts = SolverOptions(outer_tol=1e-12, max_outer=12,
                             optimize_phases=frozen != "optimize_phases")
        if frozen == "strip_irs":
            channels = strip_irs(channels)

        def run():
            return solve(scenario, channels, opts, rng=np.random.default_rng(3))

        beams, phases, trace = run()
        assert trace.n_outer > solver_mod.EXTRAP_START
        monkeypatch.setattr(solver_mod, "EXTRAP_START", opts.max_outer)
        plain_beams, plain_phases, plain = run()
        assert not trace.extrap_accepted.any()
        assert np.isnan(trace.phase_grad0).all()
        assert np.array_equal(beams.w, plain_beams.w)
        assert np.array_equal(phases.v_hat, plain_phases.v_hat)
        for name in ("wsr", "wmse_obj", "lam", "probes", "inner_iters", "inner_converged",
                     "line_search_failed", "extrap_accepted"):
            assert np.array_equal(getattr(trace, name), getattr(plain, name)), name
        assert trace.initial_wsr == plain.initial_wsr
        assert trace.converged == plain.converged

    def test_feasible_solution(self, desk_setup):
        scenario, channels = desk_setup
        beams, phases, _ = solve(scenario, channels, rng=np.random.default_rng(3))
        assert beams.total_power <= scenario.p_max * (1 + 1e-6)
        assert np.max(np.abs(np.abs(phases.v_hat) - 1.0)) <= 1e-12

    def test_full_size_preset_pins_power_at_one_watt(self):
        # at the full-size preset the 1 W budget binds and is matched tightly
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

    def test_warm_start_beyond_the_budget_rejected(self, desk_setup):
        # 3x the solved beamformers carry 9x the budget: resumed from them,
        # outer iteration 0 would log a large WSR "drop"
        scenario, channels = desk_setup
        beams, phases, _ = solve(scenario, channels, rng=np.random.default_rng(3))
        with pytest.raises(ValueError, match="warm_start"):
            solve(scenario, channels, warm_start=(BeamformerSet(3.0 * beams.w), phases))
        # within the bracket check's slack on p_max is accepted
        edge = BeamformerSet(beams.w * np.sqrt(scenario.p_max * (1.0 + 5e-10)
                                               / beams.total_power))
        solve(scenario, channels, SolverOptions(max_outer=1), warm_start=(edge, phases))

    def test_warm_start_of_the_wrong_shape_rejected(self, desk_setup):
        scenario, channels = desk_setup
        beams, phases = initialize(scenario, channels)
        n_users, n_tx = beams.w.shape
        # zero power, so the shape alone fails
        for shape in ((n_users, n_tx - 1), (n_users - 1, n_tx), (n_users, n_tx + 1)):
            with pytest.raises(ValueError, match="warm_start"):
                solve(scenario, channels,
                      warm_start=(BeamformerSet(np.zeros(shape, dtype=complex)), phases))

    def test_one_gain_product_per_point(self, desk_setup, monkeypatch):
        # the start, each extrapolation trial and each iteration's end get
        # one cross-gain matrix each, from which the loop derives every
        # rate, decoder and MSE
        scenario, channels = desk_setup
        calls = []

        def counting(hbar, beamformers):
            calls.append(1)
            return cross_gains(hbar, beamformers)

        monkeypatch.setattr(solver_mod, "cross_gains", counting)
        opts = SolverOptions(outer_tol=1e-12, max_outer=12)
        _, _, trace = solve(scenario, channels, opts, rng=np.random.default_rng(3))
        trials = max(trace.n_outer - solver_mod.EXTRAP_START, 0)
        assert trials > 0
        assert len(calls) == 1 + trace.n_outer + trials

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
        beams, phases = random_start(scenario, channels, 7)
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

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True, False])
    def test_max_outer_must_be_an_integer(self, value):
        # rejected up front, not by a TypeError inside solve
        with pytest.raises(ValueError, match="max_outer"):
            SolverOptions(max_outer=value)
        assert SolverOptions(max_outer=np.int64(3)).max_outer == 3

    @pytest.mark.parametrize("field, value, ok", [
        ("outer_tol", np.nan, False), ("outer_tol", np.inf, True),
    ])
    def test_tolerances(self, field, value, ok):
        # a NaN outer_tol is rejected, not run into a loop whose stopping
        # test never passes
        if ok:
            assert getattr(SolverOptions(**{field: value}), field) is value
        else:
            with pytest.raises(ValueError, match=field):
                SolverOptions(**{field: value})


class TestConvergenceFlag:
    def test_wsr_drop_is_not_converged(self, desk_setup, monkeypatch, caplog):
        # a phase step that maximizes the weighted MSE instead of minimizing
        # it: it descends c I - j_hat with linear term -z, c the largest
        # eigenvalue of j_hat, and c I is constant on the circles
        scenario, channels = desk_setup
        real_rmcg = rmcg_solve

        def worse_phases(form, init, **kwargs):
            from irsopt.phaseopt import QuadraticForm
            eigvals, eigvecs = np.linalg.eigh(form.j_hat)
            root = eigvecs * np.sqrt(eigvals[-1] - eigvals)
            flipped = QuadraticForm.from_factor(root.conj().T, -form.z,
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

    def test_inexact_phase_steps_do_not_stop_short(self):
        # a desk draw (seeded as perfbench seeds its operations) on which
        # inexact unpreconditioned phase descents made one outer step gain
        # less than outer_tol far from a stationary point: the solve stopped
        # "converged" after 11 outer iterations at 0.95067 nats, where exact
        # descents reach 0.96001. The path starts from the random start that
        # solve took then, from the scenario's rng_seed.
        seq = np.random.SeedSequence([503, 864])
        user_seed, init_seed = (int(x) for x in seq.generate_state(2))
        scenario = desk_scenario(user_seed=user_seed, rng_seed=init_seed)
        channels = draw_channels(scenario, np.random.default_rng(seq.spawn(1)[0]))
        _, _, trace = solve(scenario, channels, SolverOptions(),
                            warm_start=random_start(scenario, channels, init_seed))
        assert trace.converged
        assert trace.wsr[-1] >= 0.9595

    def test_extrapolation_ends_a_crawling_solve(self):
        # a full draw (seeded as perfbench seeds its operations) on which the
        # plain alternating loop crawled: it hit max_outer = 100 unconverged
        # at 5.8508 nats, where the extrapolated loop converges in 21. The
        # path starts from the random start that solve took then.
        seq = np.random.SeedSequence([44, 39])
        user_seed, init_seed = (int(x) for x in seq.generate_state(2))
        scenario = full_scenario(user_seed=user_seed, rng_seed=init_seed)
        channels = draw_channels(scenario, np.random.default_rng(seq.spawn(1)[0]))
        _, _, trace = solve(scenario, channels, SolverOptions(),
                            warm_start=random_start(scenario, channels, init_seed))
        assert trace.converged
        assert trace.n_outer <= 40
        assert trace.wsr[-1] >= 5.85
        assert trace.extrap_accepted.any()

    def test_power_tolerance_does_not_drop_the_wsr(self, caplog):
        # a desk draw on which a dual search that stopped up to 1e-8 of the
        # cap off it let the WSR drop by 4.3e-10 relative at outer iteration
        # 16, so the solve stopped unconverged after 17. The path starts
        # from the random start that solve took then.
        scenario = desk_scenario(user_seed=89, rng_seed=89)
        channels = draw_channels(scenario, np.random.default_rng([8300, 89]))
        with caplog.at_level("WARNING", logger="irsopt.solver"):
            _, _, trace = solve(scenario, channels, SolverOptions(outer_tol=1e-8),
                                warm_start=random_start(scenario, channels, 89))
        assert trace.converged
        assert not any("dropped" in rec.message for rec in caplog.records)


@st.composite
def ring_problems(draw):
    """A ring scenario, its channel draw and a start seed, over the
    scenario space: budgets of 1e-4 to 1e3 W, noise of 1e-14 to 1e-8 W,
    more users than antennas, zero-weight users, one to four surfaces,
    both LoS models, and users within 1 m of a surface (a surface at
    ground height with a disc radius below 1 m)."""
    n_tx, n_users = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    weights = np.array([draw(st.sampled_from((0.0, 0.5, 1.0, 2.0)))
                        for _ in range(n_users)])
    weights[draw(st.integers(0, n_users - 1))] = 1.0
    scenario = ring_scenario(
        n_tx, draw(st.integers(1, 4)), draw(st.integers(1, 12)), n_users,
        user_seed=draw(st.integers(0, 2 ** 16)),
        user_disc_radius=10.0 ** draw(st.floats(-1.0, 1.5)),
        irs_height=draw(st.sampled_from((0.0, 10.0))),
        p_max=10.0 ** draw(st.floats(-4.0, 3.0)),
        noise_power=10.0 ** draw(st.floats(-14.0, -8.0)),
        weights=weights, los_mode=draw(st.sampled_from(LOS_MODES)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return scenario, draw_channels(scenario, np.random.default_rng(seed)), seed


class TestScenarioSpace:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(problem=ring_problems(), rel_tol=st.sampled_from((0.0, 1e-2, 1e-1)),
           extrap_start=st.sampled_from((1, 5, 30)),
           links=st.sampled_from(("drawn", "bare", "zero_reflected")))
    def test_solve_invariants(self, problem, rel_tol, extrap_start, links, caplog,
                              monkeypatch):
        # the solver's invariants hold away from the presets too, whatever
        # relative tolerance stops its phase descents, wherever the
        # extrapolation trials start (30 = never, at max_outer), with the
        # surfaces removed and with surfaces that reflect nothing
        scenario, channels, seed = problem
        bare = links == "bare"
        if bare:
            channels = strip_irs(channels)
        elif links == "zero_reflected":
            channels = ChannelSet(channels.h_direct, np.zeros_like(channels.g_bs_irs),
                                  channels.h_irs_user)
        opts = SolverOptions(max_outer=30)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="irsopt"), \
                monkeypatch.context() as patch:
            patch.setattr(solver_mod, "PHASE_REL_TOL", rel_tol)
            patch.setattr(solver_mod, "EXTRAP_START", extrap_start)
            beams, phases, trace = solve(scenario, channels, opts,
                                         rng=np.random.default_rng(seed))
        assert not caplog.records
        assert np.all(np.isfinite(beams.w)) and np.all(np.isfinite(phases.v_hat))
        assert beams.total_power <= scenario.p_max * (1.0 + POWER_TOL_REL)
        assert np.max(np.abs(np.abs(phases.v_hat) - 1.0), initial=0.0) <= 1e-12
        history = np.concatenate(([trace.initial_wsr], trace.wsr))
        assert np.all(np.isfinite(history))
        assert np.all(np.diff(history) >= -MONOTONE_TOL_REL * np.abs(history[:-1]))
        # the solver and the public helpers share one formula per quantity,
        # so the final and initial WSR match them exactly
        def wsr_at(beams, phases):
            return weighted_sum_rate(scenario.weights, compute_rates(
                effective_channels(channels, phases), beams, scenario.noise_power))

        assert wsr_at(beams, phases) == trace.wsr[-1]
        assert wsr_at(*initialize(scenario, channels)) == trace.initial_wsr
        layers = ("channel_s", "decoder_s", "beamformer_s", "assembly_s", "descent_s")
        for name in ("wsr", "wmse_obj", "lam", "probes", "inner_iters", "inner_converged",
                     "line_search_failed", "extrap_accepted", "wsr_delta", "wall_time_s",
                     *layers):
            values = getattr(trace, name)
            assert values.shape == (trace.n_outer,) and np.all(np.isfinite(values))
        assert np.array_equal(trace.wsr_delta, np.diff(history))
        layer_s = np.array([getattr(trace, name) for name in layers])
        assert np.all(layer_s >= 0.0) and np.all(layer_s.sum(axis=0) <= trace.wall_time_s)
        assert not trace.extrap_accepted[:extrap_start].any()
        assert trace.phase_grad0.shape == (trace.n_outer,)
        if bare:
            assert not trace.extrap_accepted.any()
            assert np.isnan(trace.phase_grad0).all()
            assert not trace.assembly_s.any() and not trace.descent_s.any()
        else:
            assert np.all(trace.phase_grad0 >= 0.0)
