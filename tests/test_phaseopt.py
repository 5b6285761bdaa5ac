import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsopt import _kernels
from irsopt import (ChannelSet, PhaseConfig, QuadraticForm, assemble_quadratic,
                    compute_mse, draw_channels, effective_channels,
                    euclidean_gradient, objective, project_tangent,
                    quadratic_constant, retract, rmcg_solve)
from tests.conftest import complex_normal, random_channels


def random_form_inputs(rng, n_irs, n_el, n_users, n_tx):
    channels = random_channels(rng, n_irs, n_el, n_users, n_tx)
    w = complex_normal(rng, (n_users, n_tx))
    u = complex_normal(rng, n_users)
    q = rng.uniform(0.5, 3.0, n_users)
    alpha = rng.uniform(0.2, 2.0, n_users)
    noise = 10.0 ** rng.uniform(-2, 0)
    return channels, w, u, q, alpha, noise


def quadratic_oracle(channels, w, u, q, alpha, noise):
    """The dense phase quadratic by its original 4-D einsum formula:
    (j_hat, z, const_term)."""
    w, u = np.asarray(w, dtype=complex), np.asarray(u, dtype=complex)
    g, h_ru, h = channels.g_bs_irs, channels.h_irs_user, channels.h_direct
    size = channels.n_irs * channels.n_elements
    aq = alpha * q
    w_gram = w.T @ np.conj(w)
    quad_direct = np.einsum("ka,ab,kb->k", np.conj(h), w_gram, h).real
    e_direct = u * np.sum(np.conj(w) * h, axis=1)
    const = float(np.sum(aq * (np.abs(u) ** 2 * (quad_direct + noise)
                               - 2.0 * e_direct.real + 1.0)))
    cu = aq * np.abs(u) ** 2
    gw = np.einsum("lma,ab->lmb", g, w_gram)
    pair = np.einsum("k,ikm,jkn->ijmn", cu, h_ru, np.conj(h_ru))
    ebar_t = np.einsum("jna,ima->ijmn", gw, np.conj(g))
    j_hat = (pair * ebar_t).transpose(0, 2, 1, 3).reshape(size, size)
    j_hat = 0.5 * (j_hat + j_hat.conj().T)
    gwh = np.einsum("lma,ka->lkm", gw, h)
    gwk = np.einsum("lma,ka->lkm", g, w)
    z_lkm = h_ru * (np.abs(u) ** 2)[None, :, None] * np.conj(gwh)
    z_lkm -= h_ru * u[None, :, None] * np.conj(gwk)
    z = np.einsum("k,lkm->lm", aq, z_lkm).reshape(size)
    return j_hat, z, const


def weighted_mse_direct(channels, phases, w, u, q, alpha, noise):
    """Route the objective through the effective channel and the MSE."""
    hbar = effective_channels(channels, phases)
    return float(alpha @ (q * compute_mse(hbar, w, u, noise)))


class TestAssembleQuadratic:
    def test_objective_identity_random_instances(self, rng):
        # exercises the whole quadratic rewrite at once
        for _ in range(30):
            n_irs, n_el = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            n_users, n_tx = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            channels, w, u, q, alpha, noise = random_form_inputs(
                rng, n_irs, n_el, n_users, n_tx)
            args = (channels, w, u, q, alpha, noise)
            phases = PhaseConfig.random(n_irs, n_el, rng)
            via_form = objective(assemble_quadratic(*args), phases) + quadratic_constant(*args)
            direct = weighted_mse_direct(channels, phases, w, u, q, alpha, noise)
            assert via_form == pytest.approx(direct, rel=1e-9)

    def test_scalar_symbolic_expansion(self, rng):
        # L = M = 1: f reduces to a scalar quadratic expanded by hand
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 1, 1, 1, 1)
        h = channels.h_direct[0, 0]
        g = channels.g_bs_irs[0, 0, 0]
        h_r = channels.h_irs_user[0, 0, 0]
        w0, u0 = w[0, 0], u[0]
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        # j = aq |u|^2 |h_r|^2 |g|^2 |w|^2 ; z = aq h_r (|u|^2 conj(g w conj(w) h) - u conj(g w))
        aq = alpha[0] * q[0]
        j_expected = aq * abs(u0) ** 2 * abs(h_r) ** 2 * abs(g) ** 2 * abs(w0) ** 2
        z_expected = aq * h_r * (abs(u0) ** 2 * np.conj(g * w0 * np.conj(w0) * h)
                                 - u0 * np.conj(g * w0))
        assert form.j_hat[0, 0] == pytest.approx(j_expected, rel=1e-12)
        assert form.z[0] == pytest.approx(z_expected, rel=1e-12)
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi))
        by_hand = j_expected + 2 * np.real(np.conj(phi) * z_expected)
        assert objective(form, np.array([phi])) == pytest.approx(by_hand, rel=1e-10)

    def test_zero_reflect_paths_give_trivial_form(self, rng):
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 2, 3, 2, 2)
        zeroed = ChannelSet(channels.h_direct, np.zeros_like(channels.g_bs_irs),
                            channels.h_irs_user)
        form = assemble_quadratic(zeroed, w, u, q, alpha, noise)
        assert np.all(form.j_hat == 0)
        assert np.all(form.z == 0)

    def test_form_is_hermitian(self, rng):
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 3, 4, 3, 3)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        assert np.allclose(form.j_hat, form.j_hat.conj().T, atol=1e-10)

    def test_gershgorin_shift_makes_psd(self, rng):
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 2, 5, 3, 3)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        eigvals = np.linalg.eigvalsh(form.j_hat)
        assert eigvals.min() >= -1e-10


class TestFactoredForm:
    # (n_irs, n_elements, n_users, n_tx, zero-weight user)
    CASES = {
        "more_users_than_antennas": (2, 5, 4, 2, False),
        "zero_weight_user": (3, 4, 3, 3, True),
        "one_element": (3, 1, 2, 2, False),
        "no_surfaces": (0, 4, 2, 2, False),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_factor_matches_oracle(self, rng, case):
        n_irs, n_el, n_users, n_tx, zero_weight = self.CASES[case]
        channels, w, u, q, alpha, noise = random_form_inputs(
            rng, n_irs, n_el, n_users, n_tx)
        if zero_weight:
            alpha[1] = 0.0
        j_oracle, z_oracle, const_oracle = quadratic_oracle(
            channels, w, u, q, alpha, noise)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        assert form.factor_h.shape == (n_users ** 2, form.size)
        gram = form.factor_h.conj().T @ form.factor_h
        assert (np.linalg.norm(gram - j_oracle)
                <= 1e-12 * np.linalg.norm(j_oracle))
        assert (np.linalg.norm(form.z - z_oracle)
                <= 1e-12 * np.linalg.norm(z_oracle))
        assert (quadratic_constant(channels, w, u, q, alpha, noise)
                == pytest.approx(const_oracle, rel=1e-12))

    def test_factor_matches_oracle_on_presets(self):
        from irsopt import desk_scenario, full_scenario, initialize
        from irsopt.wmmse import update_decoders, update_weights
        for preset in (desk_scenario, full_scenario):
            scenario = preset(user_seed=4)
            channels = draw_channels(scenario, np.random.default_rng(5))
            beams, phases = initialize(scenario, channels, np.random.default_rng(6))
            hbar = effective_channels(channels, phases)
            u = update_decoders(hbar, beams, scenario.noise_power)
            q = update_weights(compute_mse(hbar, beams, u, scenario.noise_power))
            args = (channels, beams.w, u, q, scenario.weights, scenario.noise_power)
            j_oracle, _, _ = quadratic_oracle(*args)
            form = assemble_quadratic(*args)
            assert (np.linalg.norm(form.j_hat - j_oracle)
                    <= 1e-12 * np.linalg.norm(j_oracle))

    def test_descent_never_forms_the_dense_matrix(self, rng):
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 2, 6, 3, 3)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        v = PhaseConfig.random(2, 6, rng)
        rmcg_solve(form, v)
        objective(form, v)
        euclidean_gradient(form, v)
        for kernel in (_kernels.rmcg_core, _kernels.rmcg_core_numpy):
            kernel(form, v.v_hat, 0.0, 0.0, 5)
        assert form._j_hat is None
        # the kernel's matrix-free product is the dense one
        dense = form.factor_h.conj().T @ form.factor_h
        assert np.allclose(form @ v.v_hat, dense @ v.v_hat, rtol=1e-12, atol=0.0)

    def test_factored_descent_matches_its_trace(self, rng):
        # the kernel on F (F^H v) converges, and objective() at its point
        # is the last value of its trace
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 1, 6, 3, 2)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        v0 = PhaseConfig.random(1, 6, rng)
        # tolerance relative to the starting gradient: the absolute default
        # sits near rounding level for these unit-scale channels
        g0 = np.linalg.norm(project_tangent(v0, euclidean_gradient(form, v0.v_hat)))
        out, trace = rmcg_solve(form, v0, grad_tol=1e-7 * g0, max_iters=500)
        assert trace.converged
        assert objective(form, out) == pytest.approx(trace.objectives[-1], rel=1e-9)

    def test_forms_by_position_and_keyword(self, rng):
        factor_h = np.diag([1.0, 2.0]).astype(complex)
        z = complex_normal(rng, 2)
        by_pos = QuadraticForm(factor_h, z, 1, 2)
        by_kw = QuadraticForm(factor_h=factor_h, z=z, n_irs=1, n_elements=2)
        for form in (by_pos, by_kw):
            assert np.array_equal(form.factor_h, factor_h)
            assert np.array_equal(form.j_hat, np.diag([1.0, 4.0]))
            assert not hasattr(form, "const_term")

    def test_construction_checks_shapes(self, rng):
        # size = n_irs * n_elements = 2 * 3
        z = complex_normal(rng, 6)
        factor_h = complex_normal(rng, (6, 4)).T
        QuadraticForm(factor_h, z, 2, 3)
        for bad_factor_h in (factor_h[:, :5], np.hstack([factor_h, factor_h]), np.ones(6)):
            with pytest.raises(ValueError, match="factor_h"):
                QuadraticForm(bad_factor_h, z, 2, 3)
        for bad_z in (z[:5], np.append(z, 1.0), z.reshape(2, 3)):
            with pytest.raises(ValueError, match="z"):
                QuadraticForm(factor_h, bad_z, 2, 3)

    def test_assembled_form_stores_one_factor(self, rng):
        # F^H is the form's one (K^2, N) array: C-contiguous, read-only and
        # the array the compiled kernel reads
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 2, 5, 3, 2)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        assert not hasattr(form, "factor")
        factor_h = form.factor_h
        assert factor_h.shape == (9, 10) and factor_h.flags.c_contiguous
        assert not factor_h.flags.writeable
        assert form.addresses == (factor_h.ctypes.data, form.z.ctypes.data)
        # a read-only array that owns its data is kept as is; a read-only
        # view is copied, since its base may still be written
        kept = QuadraticForm(factor_h, form.z, 2, 5)
        assert kept.factor_h is factor_h
        base = np.array(factor_h)
        view = base[:]
        view.setflags(write=False)
        copied = QuadraticForm(view, form.z, 2, 5)
        assert not np.shares_memory(copied.factor_h, base)

    def test_form_is_immutable(self, rng):
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 1, 4, 2, 2)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        v0 = PhaseConfig.random(1, 4, rng)
        _, before = rmcg_solve(form, v0)
        for name, value in (("z", -form.z), ("factor_h", 2.0 * form.factor_h),
                            ("j_hat", np.eye(4)), ("size", 3),
                            ("new_attribute", 1)):
            with pytest.raises(AttributeError):
                setattr(form, name, value)
        # its arrays are read-only: an in-place write cannot change the
        # quadratic under a built form
        for arr in (form.factor_h, form.z, form.j_hat):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] *= 3.0
        # the caller's array stays writable, and writing it leaves the form as is
        given = np.array(form.factor_h)
        copied = QuadraticForm(given, form.z, 1, 4)
        given[0] *= 3.0
        assert np.array_equal(copied.factor_h, form.factor_h)
        # the next descent runs the same quadratic
        _, after = rmcg_solve(form, v0)
        assert np.array_equal(before.objectives, after.objectives)


class TestObjective:
    def test_constant_form(self):
        # j_hat = 3 I is constant on the circles: 3 * size
        form = QuadraticForm(np.sqrt(3.0) * np.eye(2), np.zeros(2, dtype=complex), 1, 2)
        v = PhaseConfig.random(1, 2, np.random.default_rng(0))
        assert objective(form, v) == pytest.approx(3.0 * 2, abs=1e-12)

    def test_hermitian_quadratic_is_real(self, rng):
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 2, 4, 2, 3)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        v = PhaseConfig.random(2, 4, rng).v_hat
        quad = np.vdot(v, form.j_hat @ v)
        assert abs(quad.imag) < 1e-10 * max(abs(quad.real), 1.0)

    def test_rejects_off_manifold_points(self, rng):
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 1, 3, 2, 2)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        with pytest.raises(ValueError):
            objective(form, np.array([1.0, 0.5, 1.0], dtype=complex))


class TestEuclideanGradient:
    def test_linear_form_gradient(self, rng):
        z = complex_normal(rng, 4)
        form = QuadraticForm(np.zeros((1, 4), dtype=complex), z, 1, 4)
        v = complex_normal(rng, 4)
        assert np.allclose(euclidean_gradient(form, v), 2 * z)

    def test_stationary_point(self, rng):
        a = complex_normal(rng, (3, 3))
        # F = [a, sqrt(3) I]: j_hat = a a^H + 3 I is positive definite
        factor_h = np.hstack([a, np.sqrt(3.0) * np.eye(3)]).conj().T
        z = complex_normal(rng, 3)
        form = QuadraticForm(factor_h, z, 1, 3)
        v_star = np.linalg.solve(a @ a.conj().T + 3 * np.eye(3), -z)
        assert np.linalg.norm(euclidean_gradient(form, v_star)) < 1e-10

    def test_matches_finite_differences(self, rng):
        # central differences along every real/imag coordinate
        h = 1e-5
        for _ in range(10):
            channels, w, u, q, alpha, noise = random_form_inputs(rng, 2, 3, 2, 2)
            form = assemble_quadratic(channels, w, u, q, alpha, noise)

            def f(vec):
                return float(np.vdot(vec, form.j_hat @ vec).real
                             + 2.0 * np.vdot(vec, form.z).real)

            for _ in range(3):
                v = np.exp(1j * rng.uniform(0, 2 * np.pi, form.size))
                grad = euclidean_gradient(form, v)
                num = np.empty(form.size, dtype=complex)
                for i in range(form.size):
                    e = np.zeros(form.size, dtype=complex)
                    e[i] = h
                    num[i] = ((f(v + e) - f(v - e))
                              + 1j * (f(v + 1j * e) - f(v - 1j * e))) / (2 * h)
                assert np.linalg.norm(num - grad) <= 1e-6 * np.linalg.norm(grad)


class TestTangentProjection:
    def test_radial_direction_vanishes(self, rng):
        v = PhaseConfig.random(1, 5, rng).v_hat
        assert np.allclose(project_tangent(v, v), 0.0, atol=1e-14)

    def test_tangential_direction_unchanged(self, rng):
        v = PhaseConfig.random(1, 5, rng).v_hat
        t = 1j * v
        assert np.allclose(project_tangent(v, t), t, atol=1e-14)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, seed):
        r = np.random.default_rng(seed)
        v = np.exp(1j * r.uniform(0, 2 * np.pi, 6))
        vec = r.standard_normal(6) + 1j * r.standard_normal(6)
        once = project_tangent(v, vec)
        twice = project_tangent(v, once)
        assert np.allclose(once, twice, atol=1e-12)

    def test_output_is_tangent(self, rng):
        v = PhaseConfig.random(2, 4, rng).v_hat
        vec = complex_normal(rng, 8)
        out = project_tangent(v, vec)
        assert np.max(np.abs(np.real(out * np.conj(v)))) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_base(self, rng, bad):
        v = np.array([bad, 1.0], dtype=complex)
        with pytest.raises(ValueError, match="unit modulus"):
            project_tangent(v, complex_normal(rng, 2))


class TestRetract:
    def test_unit_modulus_unchanged(self, rng):
        v = PhaseConfig.random(1, 4, rng).v_hat
        assert np.allclose(retract(v, 1, 4).v_hat, v, rtol=1e-15)

    def test_normalizes(self):
        out = retract(np.array([2.0 + 0j, -3j]), 1, 2)
        assert np.allclose(out.v_hat, [1.0, -1j])

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            retract(np.array([1.0 + 0j, 0.0 + 0j]), 1, 2)

    def test_second_order_agreement_with_geodesic(self, rng):
        # tangent t = j*a*v walks the circle: exact endpoint is v*exp(j*step*a)
        v = PhaseConfig.random(1, 6, rng).v_hat
        a = rng.standard_normal(6)
        errs = []
        for step in (1e-2, 1e-3):
            geo = v * np.exp(1j * step * a)
            ret = retract(v + step * (1j * a * v), 1, 6).v_hat
            errs.append(np.max(np.abs(ret - geo)))
        # at least second order: shrinking the step 10x cuts the error >= ~100x
        assert errs[1] <= errs[0] * 1.5e-2


class TestRmcgSolve:
    def test_already_stationary(self, rng):
        # j_hat = 3 I and z = 0: the gradient 6 v is radial everywhere
        form = QuadraticForm(np.sqrt(3.0) * np.eye(3, dtype=complex),
                             np.zeros(3, dtype=complex), 1, 3)
        v0 = PhaseConfig.random(1, 3, rng)
        out, trace = rmcg_solve(form, v0)
        assert trace.n_iters == 0
        assert trace.converged
        assert np.array_equal(out.v_hat, v0.v_hat)

    def test_single_phase_matches_grid_search(self, rng):
        for _ in range(10):
            channels, w, u, q, alpha, noise = random_form_inputs(rng, 1, 1, 1, 1)
            form = assemble_quadratic(channels, w, u, q, alpha, noise)
            v0 = PhaseConfig.random(1, 1, rng)
            out, _ = rmcg_solve(form, v0, grad_tol=1e-10, max_iters=200)
            theta = np.linspace(0.0, 2 * np.pi, 3600, endpoint=False)
            values = (form.j_hat[0, 0].real
                      + 2 * np.real(np.exp(-1j * theta) * form.z[0]))
            best = theta[np.argmin(values)]
            diff = np.angle(out.v_hat[0] * np.exp(-1j * best))
            assert abs(diff) < 1e-3

    def test_monotone_descent_and_tangency(self, rng):
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 2, 8, 3, 4)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        v0 = PhaseConfig.random(2, 8, rng)
        out, trace = rmcg_solve(form, v0)
        assert np.all(np.diff(trace.objectives) <= 1e-12 * np.abs(trace.objectives[:-1]))
        assert trace.objectives[-1] <= trace.objectives[0]
        assert trace.tangency_residual < 1e-10
        assert objective(form, out) == pytest.approx(trace.objectives[-1], rel=1e-9)

    def test_improves_weighted_mse(self, rng):
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 2, 6, 3, 3)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        v0 = PhaseConfig.random(2, 6, rng)
        out, _ = rmcg_solve(form, v0)
        before = weighted_mse_direct(channels, v0, w, u, q, alpha, noise)
        after = weighted_mse_direct(channels, out, w, u, q, alpha, noise)
        assert after <= before + 1e-10

    def test_descent_lands_on_the_grid_minimizer(self, rng):
        # two elements: the descent lands within a cell of a 1-degree
        # grid's argmin
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 1, 2, 2, 2)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        v0 = PhaseConfig.random(1, 2, rng)
        out, _ = rmcg_solve(form, v0)
        theta = np.deg2rad(np.arange(360.0))
        t1, t2 = np.meshgrid(theta, theta, indexing="ij")
        grid = np.stack([np.exp(1j * t1).ravel(), np.exp(1j * t2).ravel()])
        # objective(form, v) at every grid column v at once
        values = (np.sum(np.conj(grid) * (form @ grid), axis=0).real
                  + 2.0 * (np.conj(grid).T @ form.z).real)
        best = grid[:, np.argmin(values)]
        gap = np.abs(np.angle(out.v_hat * np.conj(best)))
        assert np.all(gap <= np.deg2rad(1.0))

    def test_line_search_failure_returns_incumbent(self, rng, monkeypatch):
        channels, w, u, q, alpha, noise = random_form_inputs(rng, 1, 4, 2, 2)
        form = assemble_quadratic(channels, w, u, q, alpha, noise)
        v0 = PhaseConfig.random(1, 4, rng)
        monkeypatch.setattr(_kernels, "MAX_BACKTRACKS", 0)
        out, trace = rmcg_solve(form, v0)
        assert trace.line_search_failed
        assert np.array_equal(out.v_hat, v0.v_hat)

    def test_empty_form(self):
        form = QuadraticForm(np.zeros((0, 0), dtype=complex),
                             np.zeros(0, dtype=complex), 0, 0)
        empty = PhaseConfig(np.zeros(0, dtype=complex), 0, 0)
        out, trace = rmcg_solve(form, empty)
        assert out.size == 0
        assert trace.converged
