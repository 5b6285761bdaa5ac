import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsopt import (BeamformerSet, NumericalError, assemble_context,
                    beamformers_at, compute_mse, lambda_upper_bound,
                    optimal_state, power_g, solve_beamforming)
from irsopt import _kernels
from irsopt import beamformer as beamformer_mod
from irsopt.beamformer import LAMBDA_TOL_REL, POWER_TOL_REL
from tests.conftest import complex_normal, convex_oracle, random_wmmse_instance


def surrogate_cost(hbar, w, u, q, alpha, noise):
    """Objective of the beamformer subproblem: sum_k alpha_k q_k E_k."""
    return float(alpha @ (q * compute_mse(hbar, w, u, noise)))


def random_subproblem(rng, n_users=4, n_tx=6):
    hbar, w, alpha, noise = random_wmmse_instance(rng, n_users, n_tx)
    state = optimal_state(hbar, w, noise)
    return hbar, state.decoders, state.mse_weights, alpha, noise


def gram_from_inputs(hbar, u, q, alpha):
    """sum_k alpha_k q_k |u_k|^2 hbar_k hbar_k^H, one user at a time."""
    n_tx = hbar.shape[1]
    gram = np.zeros((n_tx, n_tx), dtype=complex)
    for k in range(hbar.shape[0]):
        gram += alpha[k] * q[k] * np.abs(u[k]) ** 2 * np.outer(hbar[k], np.conj(hbar[k]))
    return gram


def rhs_from_inputs(hbar, u, q, alpha):
    """Right-hand sides alpha_k q_k u_k hbar_k, one row per user."""
    return (alpha * q * u)[:, None] * hbar


def mode_coef_from_inputs(ctx, hbar, u, q, alpha):
    """c_i = sum_k (alpha_k q_k)^2 |u_k|^2 |(V^H hbar_k)_i|^2 with V the
    context's eigenvectors, one user at a time."""
    c = np.zeros(ctx.eigvals.size)
    for k in range(hbar.shape[0]):
        proj = np.conj(ctx.eigvecs).T @ hbar[k]
        c += (alpha[k] * q[k]) ** 2 * np.abs(u[k]) ** 2 * np.abs(proj) ** 2
    return c


def positive_modes(ctx):
    """The eigenvectors and eigenvalues of the context's positive modes.
    The null space's modes are masked: eigenvalue +inf, coefficient 0."""
    positive = np.isfinite(ctx.eigvals)
    assert np.all(ctx.eigvals[~positive] == np.inf)
    assert np.all(ctx.mode_coef[~positive] == 0.0)
    return ctx.eigvecs[:, positive], ctx.eigvals[positive]


class TestAssembleContext:
    def test_rank_one_single_user(self, rng):
        hbar = complex_normal(rng, (1, 5))
        u = complex_normal(rng, 1)
        q = np.array([1.7])
        alpha = np.array([0.8])
        ctx = assemble_context(hbar, u, q, alpha)
        _, eigvals = positive_modes(ctx)
        assert eigvals.shape == (1,)
        expected = alpha[0] * q[0] * np.abs(u[0]) ** 2 * np.linalg.norm(hbar[0]) ** 2
        assert eigvals[0] == pytest.approx(expected, rel=1e-12)

    def test_eigenbasis_reconstructs_gram(self, rng):
        for _ in range(20):
            hbar, u, q, alpha, _ = random_subproblem(rng, 5, 7)
            ctx = assemble_context(hbar, u, q, alpha)
            gram = gram_from_inputs(hbar, u, q, alpha)
            eigvecs, eigvals = positive_modes(ctx)
            rebuilt = (eigvecs * eigvals) @ np.conj(eigvecs).T
            err = np.linalg.norm(rebuilt - gram) / np.linalg.norm(gram)
            assert err < 1e-10

    def test_gram_is_hermitian_psd(self, rng):
        # the factorized Gram is Hermitian PSD: orthonormal eigenvectors,
        # positive eigenvalues, and those of the explicitly Hermitian oracle
        hbar, u, q, alpha, _ = random_subproblem(rng)
        ctx = assemble_context(hbar, u, q, alpha)
        gram = gram_from_inputs(hbar, u, q, alpha)
        eigvecs, eigvals = positive_modes(ctx)
        assert np.allclose(gram, gram.conj().T, atol=1e-10)
        assert np.allclose(np.conj(eigvecs).T @ eigvecs,
                           np.eye(eigvals.size), atol=1e-10)
        assert np.all(eigvals > 0)
        top = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-eigvals.size:]
        assert np.allclose(eigvals, top, atol=1e-10)

    def test_rank_bounded_by_users(self, rng):
        hbar, u, q, alpha, _ = random_subproblem(rng, 3, 8)
        ctx = assemble_context(hbar, u, q, alpha)
        assert positive_modes(ctx)[1].size <= 3

    @pytest.mark.parametrize("n_users, n_tx", [(5, 3), (3, 5)])
    def test_gram_matches_outer_product_sum(self, rng, n_users, n_tx):
        # oracle: sum_k alpha_k q_k |u_k|^2 hbar_k hbar_k^H, one user at a time,
        # with decoders that are not the MMSE ones and one user of zero weight
        hbar = complex_normal(rng, (n_users, n_tx))
        u = complex_normal(rng, n_users)
        q = rng.uniform(0.5, 2.0, n_users)
        alpha = rng.uniform(0.2, 2.0, n_users)
        alpha[1] = 0.0
        ctx = assemble_context(hbar, u, q, alpha)
        expected = gram_from_inputs(hbar, u, q, alpha)
        eigvecs, eigvals = positive_modes(ctx)
        rebuilt = (eigvecs * eigvals) @ np.conj(eigvecs).T
        assert rebuilt.shape == (n_tx, n_tx)
        assert np.allclose(rebuilt, expected, rtol=1e-12,
                           atol=1e-14 * np.linalg.norm(expected))

    def test_mode_coef_nonnegative_and_traces(self, rng):
        # the modes' coefficients sum to the right-hand sides' total power
        # in the eigenbasis, sum_k (alpha_k q_k)^2 |u_k|^2 ||V^H hbar_k||^2
        hbar, u, q, alpha, _ = random_subproblem(rng)
        ctx = assemble_context(hbar, u, q, alpha)
        assert np.all(ctx.mode_coef >= 0)
        proj = np.conj(ctx.eigvecs).T @ hbar.T
        trace = sum((alpha[k] * q[k]) ** 2 * np.abs(u[k]) ** 2
                    * np.linalg.norm(proj[:, k]) ** 2 for k in range(hbar.shape[0]))
        assert np.sum(ctx.mode_coef) == pytest.approx(trace, rel=1e-12)

    @pytest.mark.parametrize("n_users, n_tx", [(3, 5), (5, 3)])
    def test_mode_coef_matches_definition(self, rng, n_users, n_tx):
        # per mode, with one zero-weight user and decoders that are not
        # the MMSE ones; (3, 5) leaves a null space that is dropped
        hbar = complex_normal(rng, (n_users, n_tx))
        u = complex_normal(rng, n_users)
        q = rng.uniform(0.5, 2.0, n_users)
        alpha = rng.uniform(0.2, 2.0, n_users)
        alpha[1] = 0.0
        ctx = assemble_context(hbar, u, q, alpha)
        positive = np.isfinite(ctx.eigvals)
        assert positive_modes(ctx)[1].size == min(n_users - 1, n_tx)
        assert ctx.mode_coef.shape == ctx.eigvals.shape
        assert np.allclose(ctx.mode_coef[positive],
                           mode_coef_from_inputs(ctx, hbar, u, q, alpha)[positive],
                           rtol=1e-12, atol=0.0)
        assert np.all(ctx.rhs_proj[:, 1] == 0.0)


    def test_stack_is_each_draw_bit_for_bit(self, rng):
        # draws of different rank share one stack: (3, 5) draws mask 2 modes,
        # a zero-weight user a third, a zero decoder vector all of them
        subproblems = [random_subproblem(rng, 3, 5) for _ in range(4)]
        hbar = np.stack([p[0] for p in subproblems])
        u = np.stack([p[1] for p in subproblems])
        q = np.stack([p[2] for p in subproblems])
        alpha = subproblems[0][3].copy()
        alpha[1] = 0.0
        u[3] = 0.0
        ctx = assemble_context(hbar, u, q, alpha)
        lam = np.array([0.0, 0.1, 2.0, 0.5])
        w = beamformers_at(lam, ctx).w
        assert [int(np.isinf(ctx.eigvals[b]).sum()) for b in range(4)] == [3, 3, 3, 5]
        for b in range(4):
            one = assemble_context(hbar[b], u[b], q[b], alpha)
            for name in ("eigvecs", "eigvals", "rhs_proj", "mode_coef"):
                assert np.array_equal(getattr(ctx.draw(b), name), getattr(one, name)), name
            assert np.array_equal(w[b], beamformers_at(lam[b], one).w)


class TestBeamformersAt:
    def test_matches_dense_solve(self, rng):
        # oracle: direct dense solve of (gram + lam I) w = rhs
        # and with one zero-weight user, whose right-hand side vanishes
        for _ in range(20):
            hbar, u, q, alpha, _ = random_subproblem(rng, 4, 6)
            zero_weight = alpha.copy()
            zero_weight[2] = 0.0
            for weights in (alpha, zero_weight):
                ctx = assemble_context(hbar, u, q, weights)
                lam = 0.1
                gram = gram_from_inputs(hbar, u, q, weights)
                rhs = rhs_from_inputs(hbar, u, q, weights)
                dense = np.linalg.solve(gram + lam * np.eye(6), rhs.T).T
                fast = beamformers_at(lam, ctx).w
                assert np.allclose(fast, dense, rtol=1e-9, atol=1e-12)
            assert np.all(fast[2] == 0.0)  # zero_weight's context ran last

    def test_vanishes_for_large_lambda(self, rng):
        hbar, u, q, alpha, _ = random_subproblem(rng)
        ctx = assemble_context(hbar, u, q, alpha)
        assert beamformers_at(1e12, ctx).total_power < 1e-15

    def test_scalar_closed_form(self, rng):
        hbar = complex_normal(rng, (1, 1))
        u = complex_normal(rng, 1)
        q, alpha, lam = np.array([2.0]), np.array([1.5]), 0.3
        ctx = assemble_context(hbar, u, q, alpha)
        got = beamformers_at(lam, ctx).w[0, 0]
        a = alpha[0] * q[0]
        expected = a * hbar[0, 0] * u[0] / (a * np.abs(u[0] * hbar[0, 0]) ** 2 + lam)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_stationarity_residual(self, rng):
        # the returned vectors zero the Lagrangian gradient
        hbar, u, q, alpha, _ = random_subproblem(rng, 5, 7)
        ctx = assemble_context(hbar, u, q, alpha)
        gram = gram_from_inputs(hbar, u, q, alpha)
        rhs = rhs_from_inputs(hbar, u, q, alpha)
        for lam in (0.0, 0.05, 2.0):
            w = beamformers_at(lam, ctx).w
            resid = (gram + lam * np.eye(7)) @ w.T - rhs.T
            for k in range(5):
                assert (np.linalg.norm(resid[:, k])
                        < 1e-9 * max(np.linalg.norm(rhs[k]), 1e-30))

    def test_rejects_negative_lambda(self, rng):
        hbar, u, q, alpha, _ = random_subproblem(rng)
        ctx = assemble_context(hbar, u, q, alpha)
        with pytest.raises(ValueError):
            beamformers_at(-0.1, ctx)


class TestPowerCurve:
    def test_matches_definition(self, rng):
        # first route: closed form; second route: materialize the vectors
        for _ in range(30):
            hbar, u, q, alpha, _ = random_subproblem(rng, 4, 5)
            ctx = assemble_context(hbar, u, q, alpha)
            lam = float(10.0 ** rng.uniform(-3, 2))
            direct = beamformers_at(lam, ctx).total_power
            assert power_g(lam, ctx) == pytest.approx(direct, rel=1e-10)

    def test_strictly_decreasing(self, rng):
        hbar, u, q, alpha, _ = random_subproblem(rng)
        ctx = assemble_context(hbar, u, q, alpha)
        grid = np.logspace(-3, 3, 25)
        values = [power_g(lam, ctx) for lam in grid]
        assert np.all(np.diff(values) < 0)

    def test_vanishes_at_infinity(self, rng):
        hbar, u, q, alpha, _ = random_subproblem(rng)
        ctx = assemble_context(hbar, u, q, alpha)
        assert power_g(1e14, ctx) < 1e-20


class TestLambdaUpperBound:
    def test_guarantees_feasibility(self, rng):
        for _ in range(100):
            hbar, u, q, alpha, _ = random_subproblem(rng, 3, 4)
            ctx = assemble_context(hbar, u, q, alpha)
            p_max = float(10.0 ** rng.uniform(-2, 1))
            assert power_g(lambda_upper_bound(ctx, p_max), ctx) <= p_max * (1 + 1e-12)

    def test_scales_linearly_in_weights(self, rng):
        hbar, u, q, alpha, _ = random_subproblem(rng)
        c = 3.7
        base = lambda_upper_bound(assemble_context(hbar, u, q, alpha), 1.0)
        scaled = lambda_upper_bound(assemble_context(hbar, u, c * q, alpha), 1.0)
        assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_zero_context(self, rng):
        hbar = complex_normal(rng, (2, 3))
        ctx = assemble_context(hbar, np.zeros(2, dtype=complex),
                               np.ones(2), np.ones(2))
        assert lambda_upper_bound(ctx, 1.0) == 0.0


class TestSolveBeamforming:
    def test_slack_constraint_gives_zero_dual(self, rng):
        # a cap of exactly g(0) is slack only where g(0) rounds as this
        # context's does, so this pins the numpy reference; the compiled
        # step's slack caps are checked in TestCompiledStep
        for _ in range(20):
            hbar, u, q, alpha, _ = random_subproblem(rng)
            g0 = power_g(0.0, assemble_context(hbar, u, q, alpha))
            for p_max in (1e12, g0, g0 * (1 + 1e-9)):  # far and barely slack
                beams, lam, probes = beamformer_mod.solve_beamforming_numpy(
                    hbar, u, q, alpha, p_max)
                assert lam == 0.0
                assert probes == 0

    def test_active_constraint_pins_power(self, rng):
        all_probes = []
        for _ in range(20):
            hbar, u, q, alpha, _ = random_subproblem(rng, 4, 6)
            ctx = assemble_context(hbar, u, q, alpha)
            p_max = 0.25 * power_g(0.0, ctx)  # force the cap to bind
            beams, lam, probes = solve_beamforming(hbar, u, q, alpha, p_max)
            assert lam > 0
            assert beams.total_power == pytest.approx(p_max, rel=1e-7)
            assert abs(beams.total_power - p_max) <= POWER_TOL_REL * p_max * 1.01
            assert probes <= int(np.ceil(-np.log2(LAMBDA_TOL_REL)))
            all_probes.append(probes)
        assert np.mean(all_probes) <= 8

    def test_never_worse_than_feasible_incumbent(self, rng):
        # block-coordinate descent property against random feasible points
        for _ in range(20):
            hbar, w0, alpha, noise = random_wmmse_instance(rng, 4, 5)
            state = optimal_state(hbar, w0, noise)
            p_max = float(np.sum(np.abs(w0) ** 2))
            beams, _, _ = solve_beamforming(hbar, state.decoders,
                                            state.mse_weights, alpha, p_max)
            new = surrogate_cost(hbar, beams.w, state.decoders,
                                 state.mse_weights, alpha, noise)
            old = surrogate_cost(hbar, w0, state.decoders,
                                 state.mse_weights, alpha, noise)
            assert new <= old + 1e-10

    @pytest.mark.parametrize("binding", [False, True], ids=["slack", "binding"])
    @pytest.mark.parametrize("zero_user", [False, True], ids=["weighted", "zero_user"])
    @pytest.mark.parametrize("n_users, n_tx", [(3, 4), (3, 5), (5, 3)])
    def test_matches_convex_solver(self, rng, n_users, n_tx, zero_user, binding):
        # with n_tx > n_users the Gram matrix has a structural null space;
        # a zero-weight user adds another
        for _ in range(5):
            hbar, u, q, alpha, noise = random_subproblem(rng, n_users, n_tx)
            if zero_user:
                alpha[-1] = 0.0
            ctx = assemble_context(hbar, u, q, alpha)
            ratio = rng.uniform(0.2, 0.8) if binding else rng.uniform(1.2, 5.0)
            p_max = float(ratio) * power_g(0.0, ctx)
            beams, lam, _ = solve_beamforming(hbar, u, q, alpha, p_max)
            assert (lam > 0.0) == binding
            ours = surrogate_cost(hbar, beams.w, u, q, alpha, noise)
            best = convex_oracle(hbar, u, q, alpha, noise, p_max)
            assert ours == pytest.approx(best, rel=1e-6)

    def test_stack_is_each_draw_bit_for_bit(self, rng):
        # one stacked call against each draw's own call: a zero-weight user
        # in every draw, a zero channel row in draw 1 (one more masked
        # mode), zero decoders in draw 3 (every mode masked), and budgets
        # that bind in draws 0 and 1 and are slack in draws 2 and 3
        subproblems = [random_subproblem(rng, 3, 5) for _ in range(4)]
        hbar = np.stack([p[0] for p in subproblems])
        u = np.stack([p[1] for p in subproblems])
        q = np.stack([p[2] for p in subproblems])
        alpha = subproblems[0][3].copy()
        alpha[2] = 0.0
        hbar[1, 0] = 0.0
        u[3] = 0.0
        g0 = [power_g(0.0, assemble_context(hbar[b], u[b], q[b], alpha)) for b in range(4)]
        p_max = [0.3 * g0[0], 0.6 * g0[1], 2.0 * g0[2], 1.0]
        beams, lam, probes = solve_beamforming(hbar, u, q, alpha, p_max)
        assert isinstance(lam, list) and isinstance(probes, list)
        ranks = [int(np.isfinite(assemble_context(hbar, u, q, alpha).eigvals[b]).sum())
                 for b in range(4)]
        assert ranks == [2, 1, 2, 0]
        for b in range(4):
            one, lam_b, probes_b = solve_beamforming(hbar[b], u[b], q[b], alpha, p_max[b])
            assert np.array_equal(beams.w[b], one.w), b
            assert (lam[b], probes[b]) == (lam_b, probes_b), b
        assert [x > 0.0 for x in lam] == [True, True, False, False]
        assert probes[0] > 0 and probes[1] > 0 and probes[2:] == [0, 0]
        for budgets in (p_max[:3], p_max + [1.0]):
            with pytest.raises(ValueError):
                solve_beamforming(hbar, u, q, alpha, budgets)

    def test_zero_decoders_give_zero_beamformers(self, rng):
        hbar = complex_normal(rng, (3, 4))
        beams, lam, _ = solve_beamforming(hbar, np.zeros(3, dtype=complex),
                                          np.ones(3), np.ones(3), 1.0)
        assert beams.total_power == 0.0
        assert lam == 0.0

    @pytest.mark.parametrize("n_users, n_tx", [(3, 5), (5, 3)])
    def test_zero_decoders_keep_the_shape(self, rng, n_users, n_tx):
        # no positive mode: the zero beamformers still have one row per user
        hbar = complex_normal(rng, (n_users, n_tx))
        beams, _, probes = solve_beamforming(hbar, np.zeros(n_users, dtype=complex),
                                             np.ones(n_users), np.ones(n_users), 1.0)
        assert beams.w.shape == (n_users, n_tx)
        assert np.all(beams.w == 0.0) and probes == 0


def reference_root(ctx, hbar, u, q, alpha, p_max):
    """Root of the power curve by plain bisection down to adjacent floats,
    on g evaluated from its definition, sum_i sum_k (alpha_k q_k)^2 |u_k|^2
    |(V^H hbar_k)_i|^2 / (d_i + lam)^2 with the context's eigenvectors V
    and eigenvalues d (not from mode_coef)."""
    power = (alpha * q) ** 2 * np.abs(u) ** 2                  # (n_users,)
    proj2 = np.abs(np.conj(ctx.eigvecs).T @ hbar.T) ** 2       # (n_pos, n_users)

    def g(lam):
        return float(np.sum(power * proj2 / (ctx.eigvals + lam)[:, None] ** 2))
    lo, hi = 0.0, 1.0
    while g(hi) > p_max:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if g(mid) > p_max:
            lo = mid
        else:
            hi = mid


def conditioned_channel(rng, n_users, n_tx, scale, spread):
    """A random (n_users, n_tx) channel of the given scale whose Gram
    eigenvalues (at equal user weights) span ``spread``, smallest over
    largest."""
    rank = min(n_users, n_tx)
    left, _ = np.linalg.qr(complex_normal(rng, (n_users, rank)))
    right, _ = np.linalg.qr(complex_normal(rng, (n_tx, rank)))
    sigma = np.sqrt(spread) ** np.linspace(0.0, 1.0, rank)
    return scale * (left * sigma) @ np.conj(right).T


@st.composite
def dual_problems(draw):
    """Beamformer subproblems over channel scale, power cap, user count,
    a zero-weight user and the spread of the Gram eigenvalues."""
    n_tx = draw(st.integers(1, 5))
    n_users = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-6.0, 2.0))
    spread = 10.0 ** draw(st.floats(-10.0, 0.0))  # smallest / largest Gram eigenvalue
    hbar = conditioned_channel(rng, n_users, n_tx, scale, spread)
    u = complex_normal(rng, n_users)
    q = rng.uniform(0.5, 2.0, n_users)
    alpha = rng.uniform(0.2, 2.0, n_users)
    zero_user = draw(st.one_of(st.none(), st.integers(0, n_users - 1)))
    if zero_user is not None:
        alpha[zero_user] = 0.0
    g0 = power_g(0.0, assemble_context(hbar, u, q, alpha))
    ratio = 10.0 ** draw(st.floats(-4.0, 3.0))
    p_max = ratio * g0 if g0 > 0 else ratio
    return hbar, u, q, alpha, p_max


class TestDualSearch:
    @settings(max_examples=300, deadline=None)
    @given(dual_problems())
    def test_matches_reference_bisection(self, problem):
        # the search of the numpy reference, whose context the slack test
        # and the bisection read: a cap at exactly its g(0) is slack there
        hbar, u, q, alpha, p_max = problem
        beams, lam, probes = beamformer_mod.solve_beamforming_numpy(hbar, u, q, alpha, p_max)
        ctx = assemble_context(hbar, u, q, alpha)
        assert probes <= 40
        assert beams.total_power <= p_max * (1 + POWER_TOL_REL)
        if power_g(0.0, ctx) <= p_max:
            assert lam == 0.0 and probes == 0
            return
        assert abs(beams.total_power - p_max) <= POWER_TOL_REL * p_max
        # lam is pinned only to the window where the power rule accepts it,
        # |lam - root| <~ power_tol / |g'(root)|, or to the bracket width
        root = reference_root(ctx, hbar, u, q, alpha, p_max)
        slope = 2.0 * float(np.sum(ctx.mode_coef / (ctx.eigvals + root) ** 3))
        lam_max = lambda_upper_bound(ctx, p_max)
        window = 1.01 * POWER_TOL_REL * p_max / slope + 4 * np.finfo(float).eps * root
        assert abs(lam - root) <= LAMBDA_TOL_REL * lam_max + window

    def test_overshooting_newton_step_is_safeguarded(self):
        # two modes far apart: from the right end of the bracket the Newton
        # step of g^-1/2 - p_max^-1/2 lands below 0, so it must be replaced
        c, d = [1e-6, 1.0], [1e-3, 1.0]
        p_max = 0.9 * sum(ci / di ** 2 for ci, di in zip(c, d))
        lam_max = math.sqrt(sum(c) / p_max)
        g, slope = beamformer_mod._power_and_slope(lam_max, c, d)
        assert lam_max + 2.0 * g * (1.0 - math.sqrt(g / p_max)) / slope < 0.0
        lam, probes = beamformer_mod.dual_search(
            c, d, p_max, lam_max, lam_max, POWER_TOL_REL * p_max,
            LAMBDA_TOL_REL * lam_max)
        g_lam = sum(ci / (di + lam) ** 2 for ci, di in zip(c, d))
        assert abs(g_lam - p_max) <= POWER_TOL_REL * p_max
        assert 0 < probes <= 40

    @pytest.mark.parametrize("tol", [0.0, 1e-20])
    def test_tolerances_below_rounding_end(self, monkeypatch, tol):
        # once lo and hi are adjacent doubles their midpoint is one of them,
        # so a bracket-width test of 0 (or below rounding) is never met; the
        # search must stop there instead of probing forever
        real = beamformer_mod._power_and_slope
        calls = []

        def counted(lam, c, d):
            calls.append(lam)
            if len(calls) > 5000:
                raise RuntimeError("dual search does not terminate")
            return real(lam, c, d)

        monkeypatch.setattr(beamformer_mod, "_power_and_slope", counted)
        c, d = [1e-6, 1.0, 0.3], [1e-3, 1.0, 0.2]
        p_max = 0.5 * sum(ci / di ** 2 for ci, di in zip(c, d))
        lam_max = math.sqrt(sum(c) / p_max)
        lam, probes = beamformer_mod.dual_search(c, d, p_max, lam_max, 0.0,
                                                 tol * p_max, tol * lam_max)
        assert probes == len(calls) <= 200
        assert real(lam, c, d)[0] <= p_max * (1.0 + 1e-12)
        assert abs(real(lam, c, d)[0] - p_max) <= 1e-12 * p_max

    def test_invalid_bracket_raises(self, rng, monkeypatch):
        hbar, u, q, alpha, _ = random_subproblem(rng)
        p_max = 0.25 * power_g(0.0, assemble_context(hbar, u, q, alpha))
        true_bound = beamformer_mod.lambda_upper_bound
        monkeypatch.setattr(beamformer_mod, "lambda_upper_bound",
                            lambda ctx, p: 0.1 * true_bound(ctx, p))
        # the numpy reference: the compiled step takes no Python bound
        with pytest.raises(NumericalError, match="bracket is invalid"):
            beamformer_mod.solve_beamforming_numpy(hbar, u, q, alpha, p_max)


# (n_users, n_tx) of the stacks the compiled step is checked on: the
# oracle tests' shapes, the full preset's, and one above the compiled
# step's vector width of 8 antennas
STACK_SHAPES = ((3, 4), (3, 5), (5, 3), (8, 8), (6, 11))


@st.composite
def beamformer_stacks(draw):
    """(B, n_users, n_tx) stacks of beamformer subproblems with one budget
    per draw and a noise power: per draw a channel scale and a spread of
    the Gram eigenvalues as in ``dual_problems``, and a budget from 1e-4
    to 1e3 times the draw's unconstrained power g(0), so binding and slack
    budgets share stacks. Optionally a zero-weight user (in every draw), a
    zero channel row in one draw and zero decoders in one draw, so that
    the draws' ranks differ."""
    n_users, n_tx = draw(st.sampled_from(STACK_SHAPES))
    n_draws = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    hbar = np.stack([conditioned_channel(rng, n_users, n_tx,
                                         10.0 ** draw(st.floats(-6.0, 2.0)),
                                         10.0 ** draw(st.floats(-10.0, 0.0)))
                     for _ in range(n_draws)])
    u = complex_normal(rng, (n_draws, n_users))
    q = rng.uniform(0.5, 2.0, (n_draws, n_users))
    alpha = rng.uniform(0.2, 2.0, n_users)
    if draw(st.booleans()):
        alpha[draw(st.integers(0, n_users - 1))] = 0.0
    if draw(st.booleans()):
        hbar[draw(st.integers(0, n_draws - 1)), draw(st.integers(0, n_users - 1))] = 0.0
    if draw(st.booleans()):
        u[draw(st.integers(0, n_draws - 1))] = 0.0
    p_max = []
    for b in range(n_draws):
        g0 = power_g(0.0, assemble_context(hbar[b], u[b], q[b], alpha))
        ratio = 10.0 ** draw(st.floats(-4.0, 3.0))
        p_max.append(ratio * g0 if g0 > 0 else ratio)
    return hbar, u, q, alpha, p_max, 10.0 ** rng.uniform(-2, 0)


def surrogate_and_size(hbar, w, u, q, alpha, noise):
    """``surrogate_cost`` and the size of its terms before they cancel,
    sum_k alpha_k q_k (|u_k|^2 t_k + 2 |u_k s_k| + 1), t_k the received
    power and s_k the signal gain: n_tx eps times it bounds the rounding
    of the surrogate's evaluation, which dominates where w is large."""
    gains = np.conj(hbar) @ w.T            # gains[k, j] = hbar_k^H w_j
    t = (np.abs(gains) ** 2).sum(axis=1) + noise
    size = alpha @ (q * (np.abs(u) ** 2 * t + 2.0 * np.abs(u * np.diag(gains)) + 1.0))
    return surrogate_cost(hbar, w, u, q, alpha, noise), float(size)


def eigen_error_loss(ctx, lam):
    """The surrogate loss at dual value lam that eigenvalue errors of
    n^2 eps ||G||_F (n = n_tx), the order of the backward error of a dense
    Hermitian eigensolver of the n x n Gram matrix G (Jacobi's or LAPACK's),
    can cause in each of two solutions: 2 (n^2 eps ||G||_F)^2 sum_i c_i /
    (d_i + lam)^3 over the positive modes, to first order. It is below
    1e-10 of the surrogate except where G is ill-conditioned and the modes
    near its null space carry the power; there the reference itself is off
    the optimum by more than 1e-10."""
    positive = np.isfinite(ctx.eigvals)
    d, c = ctx.eigvals[positive], ctx.mode_coef[positive]
    eps = ctx.eigvals.size ** 2 * np.finfo(float).eps * np.sqrt(np.sum(d ** 2))
    return 2.0 * eps ** 2 * float(np.sum(c / (d + lam) ** 3))


needs_step = pytest.mark.skipif(not _kernels.JIT_ENABLED,
                                reason="compiled beamformer step not loaded")


@needs_step
class TestCompiledStep:
    @settings(max_examples=200, deadline=None)
    @given(beamformer_stacks())
    def test_matches_the_reference(self, problem):
        # the surrogate of the compiled step's w against the numpy
        # reference's, the budget, slack caps, and each draw of the stack
        # against its own call; w, lam and the probes are left free, since
        # in ill-conditioned modes they move by more than rounding while
        # the surrogate does not
        hbar, u, q, alpha, p_max, noise = problem
        n_tx = hbar.shape[-1]
        beams, lam, probes = beamformer_mod.solve_beamforming_compiled(hbar, u, q, alpha, p_max)
        ref, ref_lam, _ = beamformer_mod.solve_beamforming_numpy(hbar, u, q, alpha, p_max)
        ctx = assemble_context(hbar, u, q, alpha)
        assert isinstance(lam, list) and isinstance(probes, list)
        for b, budget in enumerate(p_max):
            args = (hbar[b], u[b], q[b], alpha)
            ours, size = surrogate_and_size(hbar[b], beams.w[b], u[b], q[b], alpha, noise)
            best, ref_size = surrogate_and_size(hbar[b], ref.w[b], u[b], q[b], alpha, noise)
            rounding = n_tx * np.finfo(float).eps * (size + ref_size)
            assert abs(ours - best) <= (1e-10 * abs(best) + rounding
                                        + eigen_error_loss(ctx.draw(b), ref_lam[b])), b
            power = float(np.sum(np.abs(beams.w[b]) ** 2))
            assert power <= budget * (1 + POWER_TOL_REL), b
            if lam[b] > 0.0:
                assert abs(power - budget) <= POWER_TOL_REL * budget, b
            one, lam_b, probes_b = beamformer_mod.solve_beamforming_compiled(*args, budget)
            assert np.array_equal(one.w, beams.w[b]), b
            assert (lam_b, probes_b) == (lam[b], probes[b]), b
            g0 = power_g(0.0, assemble_context(*args))
            for cap in {1.01 * g0, max(1e12, 1.01 * g0)}:
                _, lam_b, probes_b = beamformer_mod.solve_beamforming_compiled(*args, cap)
                assert (lam_b, probes_b) == (0.0, 0), (b, cap)

    @pytest.mark.parametrize("stacked", [False, True], ids=["draw", "stack"])
    def test_checks_as_the_reference(self, rng, stacked):
        # each check of the numpy reference, raised by the compiled step
        # with the same exception and message
        hbar, u, q, alpha, _ = random_subproblem(rng, 3, 4)
        p_bind = 0.25 * power_g(0.0, assemble_context(hbar, u, q, alpha))
        cases = [(NumericalError, "eigendecomposition of the Gram matrix failed",
                  (np.where(np.arange(12).reshape(3, 4) == 5, np.nan, hbar), u, q, p_bind)),
                 (NumericalError, "eigendecomposition of the Gram matrix failed",
                  (hbar, np.where(np.arange(3) == 1, np.inf, u), q, p_bind)),
                 (ValueError, "surrogate weights must be positive",
                  (hbar, u, np.where(np.arange(3) == 2, 0.0, q), p_bind)),
                 (ValueError, "surrogate weights must be positive",
                  (hbar, u, np.where(np.arange(3) == 0, np.nan, q), p_bind)),
                 (ValueError, "p_max must be positive", (hbar, u, q, -1.0)),
                 (ValueError, "beamformers contain non-finite entries",
                  (hbar, u, q, np.nan))]
        for error, message, args in cases:
            for impl in (beamformer_mod.solve_beamforming_numpy,
                         beamformer_mod.solve_beamforming_compiled):
                if stacked:
                    hb, ub, qb, budget = args
                    args_b = (hb[None], ub[None], qb[None], alpha, [budget])
                else:
                    args_b = (*args[:3], alpha, args[3])
                with pytest.raises(error, match=message), np.errstate(invalid="ignore"):
                    impl(*args_b)
        if stacked:
            for budgets in ([], [p_bind, p_bind]):
                with pytest.raises(ValueError):
                    beamformer_mod.solve_beamforming_compiled(hbar[None], u[None], q[None],
                                                              alpha, budgets)

    def test_a_failing_draw_fails_the_stack_as_the_reference(self, rng):
        # a NaN channel in draw 1 and a negative binding budget in draw 0:
        # the reference factorizes the whole stack before its first dual
        # search, so the eigendecomposition's failure is the one raised
        subproblems = [random_subproblem(rng, 3, 4) for _ in range(2)]
        hbar = np.stack([p[0] for p in subproblems])
        u = np.stack([p[1] for p in subproblems])
        q = np.stack([p[2] for p in subproblems])
        alpha = subproblems[0][3]
        hbar[1, 0, 0] = np.nan
        for impl in (beamformer_mod.solve_beamforming_numpy,
                     beamformer_mod.solve_beamforming_compiled):
            with pytest.raises(NumericalError, match="eigendecomposition"), \
                    np.errstate(invalid="ignore"):
                impl(hbar, u, q, alpha, [-1.0, 1.0])


class TestBeamformerSet:
    def test_total_power(self):
        w = np.array([[1.0 + 0j, 0.0], [0.0, 2.0 + 0j]])
        assert BeamformerSet(w).total_power == pytest.approx(5.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BeamformerSet(np.array([[np.nan + 0j]]))
