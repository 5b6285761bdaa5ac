import numpy as np
import pytest

from irsopt import (NumericalError, compute_mse, compute_rates, optimal_state,
                    update_decoders, update_weights, weighted_sum_rate,
                    wmse_objective)
from irsopt.wmmse import cross_gains, gain_terms, mse_from_terms, rates_from_terms
from tests.conftest import complex_normal, random_wmmse_instance


class TestComputeRates:
    def test_zero_beamformers_give_zero_rate(self, rng):
        hbar = complex_normal(rng, (3, 4))
        rates = compute_rates(hbar, np.zeros((3, 4), dtype=complex), 0.5)
        assert np.all(rates == 0.0)

    def test_unit_snr_scalar_case(self):
        rates = compute_rates(np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]), 1.0)
        assert rates[0] == pytest.approx(np.log(2.0), rel=1e-12)

    def test_rates_equal_neg_log_mse_at_optimal_decoder(self, rng):
        # cross-check against the decoder/MSE route
        for _ in range(25):
            hbar, w, _, noise = random_wmmse_instance(rng, 4, 5)
            u = update_decoders(hbar, w, noise)
            mse = compute_mse(hbar, w, u, noise)
            assert np.allclose(compute_rates(hbar, w, noise), -np.log(mse),
                               rtol=1e-10)

    def test_nonnegative(self, rng):
        hbar, w, _, noise = random_wmmse_instance(rng, 6, 3)
        assert np.all(compute_rates(hbar, w, noise) >= 0.0)

    def test_rejects_bad_noise(self, rng):
        hbar, w, _, _ = random_wmmse_instance(rng, 2, 2)
        with pytest.raises(ValueError):
            compute_rates(hbar, w, 0.0)


class TestWeightedSumRate:
    def test_zero_weights(self):
        assert weighted_sum_rate(np.zeros(4), np.ones(4)) == 0.0

    def test_one_hot(self, rng):
        rates = rng.uniform(0, 3, 5)
        e2 = np.eye(5)[2]
        assert weighted_sum_rate(e2, rates) == pytest.approx(rates[2])

    def test_matches_naive_loop(self, rng):
        alpha = np.ones(8)
        rates = rng.uniform(0, 3, 8)
        naive = 0.0
        for a, r in zip(alpha, rates):
            naive += a * r
        assert weighted_sum_rate(alpha, rates) == pytest.approx(naive, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_sum_rate(np.ones(3), np.ones(4))


class TestComputeMse:
    def test_zero_decoder_gives_unit_mse(self, rng):
        hbar, w, _, noise = random_wmmse_instance(rng, 3, 4)
        mse = compute_mse(hbar, w, np.zeros(3, dtype=complex), noise)
        assert np.allclose(mse, 1.0)

    def test_optimal_decoder_closed_form(self, rng):
        # algebraic simplification: E_k = 1 - |s_kk|^2 / (sum_j |s_kj|^2 + noise)
        for _ in range(20):
            hbar, w, _, noise = random_wmmse_instance(rng, 4, 4)
            u = update_decoders(hbar, w, noise)
            gains = np.conj(hbar) @ w.T
            total = np.sum(np.abs(gains) ** 2, axis=1) + noise
            expected = 1.0 - np.abs(np.diag(gains)) ** 2 / total
            mse = compute_mse(hbar, w, u, noise)
            assert np.allclose(mse, expected, rtol=1e-12)
            assert np.all((mse > 0) & (mse <= 1))

    def test_matches_symbol_level_monte_carlo(self, rng):
        # expectation oracle: E|conj(u) y - s|^2 over symbol and noise draws
        hbar, w, _, _ = random_wmmse_instance(rng, 3, 4)
        noise = 0.3
        u = complex_normal(rng, 3) * 0.3
        n_draws = 1_000_000
        gains = np.conj(hbar) @ w.T           # (3, 3), row k: hbar_k^H w_j
        s = complex_normal(rng, (n_draws, 3)) * np.sqrt(0.5)
        n = complex_normal(rng, (n_draws, 3)) * np.sqrt(noise / 2.0)
        y = s @ gains.T + n                   # y[d, k] = sum_j gains[k, j] s_j + n_k
        err = np.conj(u)[None, :] * y - s
        empirical = np.mean(np.abs(err) ** 2, axis=0)
        assert np.allclose(empirical, compute_mse(hbar, w, u, noise), rtol=0.01)

    def test_mse_with_optimal_decoder_is_inverse_one_plus_sinr(self, rng):
        for _ in range(20):
            hbar, w, _, noise = random_wmmse_instance(rng, 5, 3)
            u = update_decoders(hbar, w, noise)
            mse = compute_mse(hbar, w, u, noise)
            sinr = np.expm1(compute_rates(hbar, w, noise))
            assert np.allclose(mse, 1.0 / (1.0 + sinr), rtol=1e-12)


class TestUpdateDecoders:
    def test_zero_beamformer_gives_zero_decoder(self, rng):
        hbar = complex_normal(rng, (2, 3))
        u = update_decoders(hbar, np.zeros((2, 3), dtype=complex), 1.0)
        assert np.all(u == 0.0)

    def test_scalar_case(self):
        u = update_decoders(np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]]), 1.0)
        assert u[0] == pytest.approx(0.4, rel=1e-14)

    def test_perturbation_optimality(self, rng):
        hbar, w, _, noise = random_wmmse_instance(rng, 3, 4)
        u = update_decoders(hbar, w, noise)
        best = compute_mse(hbar, w, u, noise)
        for _ in range(100):
            delta = complex_normal(rng, 3) * 10.0 ** rng.uniform(-3, 0)
            perturbed = compute_mse(hbar, w, u + delta, noise)
            assert np.all(perturbed >= best - 1e-12)


class TestUpdateWeights:
    def test_trivial_values(self):
        assert update_weights(np.array([1.0]))[0] == 1.0
        assert update_weights(np.array([0.25]))[0] == 4.0

    def test_rejects_nonpositive_mse(self):
        with pytest.raises(NumericalError):
            update_weights(np.array([0.5, 0.0]))
        with pytest.raises(NumericalError):
            update_weights(np.array([-0.1]))

    def test_perturbation_concavity(self, rng):
        # f(q) = ln q - q E + 1 is maximized at q = 1/E
        for _ in range(50):
            e_val = rng.uniform(0.05, 1.0)
            q_opt = 1.0 / e_val
            f_opt = np.log(q_opt) - q_opt * e_val + 1.0
            delta = rng.uniform(1e-4, 0.9) * q_opt
            for q in (q_opt - delta, q_opt + delta):
                assert np.log(q) - q * e_val + 1.0 <= f_opt + 1e-12


class TestWmseObjective:
    def test_equals_wsr_at_optimal_weights(self, rng):
        # the surrogate touches the rate objective after both updates
        for _ in range(50):
            hbar, w, alpha, noise = random_wmmse_instance(rng, 5, 6)
            state = optimal_state(hbar, w, noise)
            wsr = weighted_sum_rate(alpha, compute_rates(hbar, w, noise))
            surrogate = wmse_objective(alpha, state.mse_weights, state.mse)
            assert surrogate == pytest.approx(wsr, abs=1e-9)

    def test_zero_at_unit_state(self):
        assert wmse_objective(np.ones(3), np.ones(3), np.ones(3)) == 0.0

    def test_lower_bounds_wsr_for_any_state(self, rng):
        for _ in range(100):
            hbar, w, alpha, noise = random_wmmse_instance(rng, 4, 4)
            u = complex_normal(rng, 4) * 10.0 ** rng.uniform(-2, 0.5)
            q = 10.0 ** rng.uniform(-2, 2, 4)
            mse = compute_mse(hbar, w, u, noise)
            wsr = weighted_sum_rate(alpha, compute_rates(hbar, w, noise))
            assert wmse_objective(alpha, q, mse) <= wsr + 1e-9

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            wmse_objective(np.ones(2), np.array([1.0, 0.0]), np.ones(2))


class TestStacks:
    def test_stack_is_each_draw_bit_for_bit(self, rng):
        # a stack of draws along a leading axis gives each draw's own values;
        # the sums take one 1-D dot per draw
        draws = [random_wmmse_instance(rng, 8, 8) for _ in range(5)]
        alpha, noise = draws[0][2], draws[0][3]
        hbar = np.stack([d[0] for d in draws])
        w = np.stack([d[1] for d in draws])
        u = complex_normal(rng, (5, 8))
        signal, total = gain_terms(cross_gains(hbar, w), noise)
        rates, mse = rates_from_terms(signal, total), mse_from_terms(u, signal, total)
        q = update_weights(mse)
        wsr, wmse = weighted_sum_rate(alpha, rates), wmse_objective(alpha, q, mse)
        assert len(wsr) == len(wmse) == 5
        for b in range(5):
            s_b, t_b = gain_terms(cross_gains(hbar[b], w[b]), noise)
            assert np.array_equal(signal[b], s_b) and np.array_equal(total[b], t_b)
            assert np.array_equal(rates[b], rates_from_terms(s_b, t_b))
            assert np.array_equal(mse[b], mse_from_terms(u[b], s_b, t_b))
            assert np.array_equal(q[b], update_weights(mse[b]))
            assert wsr[b] == weighted_sum_rate(alpha, rates[b])
            assert wmse[b] == wmse_objective(alpha, q[b], mse[b])


class TestUpdateMonotonicity:
    def test_each_update_never_decreases_surrogate(self, rng):
        for _ in range(30):
            hbar, w, alpha, noise = random_wmmse_instance(rng, 4, 5)
            u0 = complex_normal(rng, 4) * 0.3
            q0 = 10.0 ** rng.uniform(-1, 1, 4)
            f0 = wmse_objective(alpha, q0, compute_mse(hbar, w, u0, noise))
            u1 = update_decoders(hbar, w, noise)
            f1 = wmse_objective(alpha, q0, compute_mse(hbar, w, u1, noise))
            q1 = update_weights(compute_mse(hbar, w, u1, noise))
            f2 = wmse_objective(alpha, q1, compute_mse(hbar, w, u1, noise))
            assert f1 >= f0 - 1e-10
            assert f2 >= f1 - 1e-10
