import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsopt import (ChannelSet, PhaseConfig, desk_scenario, draw_channels,
                    effective_channels, full_scenario, load_scenario, path_loss,
                    ring_scenario, strip_irs, ula_steering)
from tests.conftest import complex_normal, random_channels

PRESET_EXPONENTS = (2.2, 2.2, 3.6)  # BS-IRS, IRS-user, BS-user


def naive_effective(channels, phases):
    """Element-by-element oracle for the combined channel."""
    n_users, n_tx = channels.h_direct.shape
    v = phases.per_irs()
    out = np.array(channels.h_direct, dtype=complex)
    for k in range(n_users):
        for n in range(n_tx):
            for l in range(channels.n_irs):
                for m in range(channels.n_elements):
                    row_entry = (np.conj(channels.h_irs_user[l, k, m])
                                 * v[l, m] * channels.g_bs_irs[l, m, n])
                    out[k, n] += np.conj(row_entry)
    return out


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss(1.0, 3.6, -30.0) == pytest.approx(1e-3, rel=1e-12)

    def test_matches_db_domain_calculation(self):
        # independent route: gain_db = -30 - 10 * 3.6 * log10(300)
        expected = 10.0 ** ((-30.0 - 36.0 * math.log10(300.0)) / 10.0)
        assert path_loss(300.0, 3.6, -30.0) == pytest.approx(expected, rel=1e-12)

    def test_clamps_below_one_meter(self):
        assert path_loss(0.2, 2.0, -30.0) == path_loss(1.0, 2.0, -30.0)

    def test_vectorized(self):
        d = np.array([1.0, 10.0, 100.0])
        out = path_loss(d, 2.0, -30.0)
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0)

    @given(st.floats(1.0, 1e4), st.floats(1.2, 5.0), st.floats(-60.0, 0.0))
    @settings(max_examples=50, deadline=None)
    def test_db_additivity(self, d, beta, ref_db):
        gain_db = 10.0 * math.log10(path_loss(d, beta, ref_db))
        assert gain_db == pytest.approx(ref_db - 10.0 * beta * math.log10(d), abs=1e-8)

    @given(st.floats(1.0, 1e3), st.floats(1.0, 2e3), st.floats(1.2, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing(self, d1, d2, beta):
        lo, hi = sorted((d1, d2))
        if hi > lo:
            assert path_loss(hi, beta) < path_loss(lo, beta)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            path_loss(np.inf, 2.0)
        with pytest.raises(ValueError):
            path_loss(np.nan, 2.0)
        with pytest.raises(ValueError):
            path_loss(10.0, 0.0)

    def test_preset_default_exponents(self):
        sc = desk_scenario()
        assert (sc.exp_bs_irs, sc.exp_irs_user, sc.exp_bs_user) == PRESET_EXPONENTS


class TestDrawChannels:
    def test_deterministic_given_seed(self):
        sc = desk_scenario(user_seed=3)
        a = draw_channels(sc, np.random.default_rng(7))
        b = draw_channels(sc, np.random.default_rng(7))
        assert np.array_equal(a.h_direct, b.h_direct)
        assert np.array_equal(a.g_bs_irs, b.g_bs_irs)
        assert np.array_equal(a.h_irs_user, b.h_irs_user)

    def test_pure_los_limit(self):
        # huge Rician factor: entries are unit modulus once the path loss
        # scaling is divided out
        sc = desk_scenario(user_seed=0).replace(rician_k_db=400.0)
        ch = draw_channels(sc, np.random.default_rng(0))
        for l in range(sc.n_irs):
            d = np.linalg.norm(sc.irs_pos[l] - sc.bs_pos)
            gain = path_loss(d, sc.exp_bs_irs, sc.ref_gain_db)
            mags = np.abs(ch.g_bs_irs[l]) / np.sqrt(gain)
            assert np.max(np.abs(mags - 1.0)) < 1e-12

    def test_empirical_entry_power_matches_path_loss(self):
        # Monte-Carlo oracle: mean |entry|^2 equals the link gain
        sc = ring_scenario(4, 2, 16, 4, user_seed=1)
        n_draws = 1500  # >= 1e5 scalar samples in total per Rician link
        sums = {"direct": 0.0, "bs_irs": 0.0, "irs_user": 0.0}
        counts = {"direct": 0, "bs_irs": 0, "irs_user": 0}
        rng = np.random.default_rng(11)
        for _ in range(n_draws):
            ch = draw_channels(sc, rng)
            sums["direct"] += float(np.sum(np.abs(ch.h_direct[0]) ** 2))
            counts["direct"] += sc.n_tx
            sums["bs_irs"] += float(np.sum(np.abs(ch.g_bs_irs[0]) ** 2))
            counts["bs_irs"] += sc.n_elements * sc.n_tx
            sums["irs_user"] += float(np.sum(np.abs(ch.h_irs_user[0, 0]) ** 2))
            counts["irs_user"] += sc.n_elements
        expected = {
            "direct": path_loss(np.linalg.norm(sc.user_pos[0] - sc.bs_pos),
                                sc.exp_bs_user, sc.ref_gain_db),
            "bs_irs": path_loss(np.linalg.norm(sc.irs_pos[0] - sc.bs_pos),
                                sc.exp_bs_irs, sc.ref_gain_db),
            "irs_user": path_loss(np.linalg.norm(sc.user_pos[0] - sc.irs_pos[0]),
                                  sc.exp_irs_user, sc.ref_gain_db),
        }
        for link in sums:
            mean = sums[link] / counts[link]
            assert mean == pytest.approx(expected[link], rel=0.02), link

    def test_ones_los_mode(self):
        sc = desk_scenario(user_seed=0).replace(los_mode="ones", rician_k_db=400.0)
        ch = draw_channels(sc, np.random.default_rng(0))
        d = np.linalg.norm(sc.irs_pos[0] - sc.bs_pos)
        gain = path_loss(d, sc.exp_bs_irs, sc.ref_gain_db)
        assert np.allclose(ch.g_bs_irs[0], np.sqrt(gain), atol=1e-12 * np.sqrt(gain))


# One surface with one element; user 0 stands on the surface, so its
# IRS-user distance is clamped to 1 m and its azimuth is arctan2(0, 0).
EDGE_CONFIG = """\
n_tx = 2
n_users = 2
n_irs = 1
n_elements = 1
rng_seed = 0
p_max = 1.0
noise_power = 1e-11
weights = 1.0,1.0
bs_pos = 0.0,0.0,10.0
irs_pos_0 = 50.0,-20.0,10.0
user_pos_0 = 50.0,-20.0,10.0
user_pos_1 = 40.0,5.0,0.0
"""


def draw_digest(scenario, seed):
    """SHA-256 prefix over the bytes of the user drop and one draw."""
    ch = draw_channels(scenario, np.random.default_rng(seed))
    h = hashlib.sha256()
    for arr in (scenario.user_pos, ch.h_direct, ch.g_bs_irs, ch.h_irs_user):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


class TestDrawDigest:
    """The user drop and the draw, bit for bit: the random-stream layout
    and the rounding of every link are part of the results' contract, so
    a change here changes every seeded result and saved CSV."""

    @pytest.mark.parametrize("preset, los_mode, seed, expected", [
        (desk_scenario, "ula", 3, "b05af53bd6f4f684"),
        (desk_scenario, "ula", 41, "2b4a0c850f8f511d"),
        (desk_scenario, "ones", 3, "a166b2c4df2f8c03"),
        (desk_scenario, "ones", 41, "d03df1de22c97f4e"),
        (full_scenario, "ula", 3, "74a0462437480d5f"),
        (full_scenario, "ula", 41, "7228afcf7c66f4c7"),
        (full_scenario, "ones", 3, "7bacf07d68bbdad3"),
        (full_scenario, "ones", 41, "c244c646f0e3856d"),
    ])
    def test_presets(self, preset, los_mode, seed, expected):
        scenario = preset(user_seed=seed, los_mode=los_mode)
        assert draw_digest(scenario, seed) == expected

    def test_one_element_with_a_user_on_the_surface(self, tmp_path):
        path = tmp_path / "edge.cfg"
        path.write_text(EDGE_CONFIG)
        assert draw_digest(load_scenario(path), 5) == "f993f0545b623915"


class TestUlaSteering:
    def test_array_of_sines_matches_scalar_calls(self):
        sines = np.sin(np.random.default_rng(4).uniform(-np.pi, np.pi, (3, 5)))
        sines[0, :2] = (0.0, -0.0)
        rows = ula_steering(60, sines)
        assert rows.shape == (3, 5, 60)
        for idx in np.ndindex(sines.shape):
            expected = ula_steering(60, float(sines[idx]))
            assert expected.shape == (60,)
            assert rows[idx].tobytes() == expected.tobytes()


class TestEffectiveChannels:
    def test_no_reflection_returns_direct(self, rng):
        ch = random_channels(rng, 2, 4, 3, 5)
        zeroed = ChannelSet(ch.h_direct, ch.g_bs_irs, np.zeros_like(ch.h_irs_user))
        phases = PhaseConfig.random(2, 4, rng)
        assert np.allclose(effective_channels(zeroed, phases), ch.h_direct)

    def test_scalar_hand_expansion(self, rng):
        # L = M = n_tx = K = 1: expand hbar^H = h^H + h_r^H * phi * g by hand
        h, g, h_r = complex_normal(rng, 3)
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi))
        ch = ChannelSet(np.array([[h]]), np.array([[[g]]]), np.array([[[h_r]]]))
        phases = PhaseConfig(np.array([phi]), 1, 1)
        hbar_h = np.conj(h) + np.conj(h_r) * phi * g
        expected = np.conj(hbar_h)
        got = effective_channels(ch, phases)[0, 0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_phase_absorption_identity(self, rng):
        ch = random_channels(rng, 2, 3, 2, 4)
        phases = PhaseConfig.random(2, 3, rng)
        theta = 0.713
        rotated = PhaseConfig(phases.v_hat * np.exp(1j * theta), 2, 3)
        ch_rot = ChannelSet(ch.h_direct, ch.g_bs_irs,
                            ch.h_irs_user * np.exp(1j * theta))
        assert np.allclose(effective_channels(ch, phases),
                           effective_channels(ch_rot, rotated), rtol=1e-12)

    def test_matches_naive_double_loop_with_all_ones(self, rng):
        ch = random_channels(rng, 3, 4, 2, 5)
        phases = PhaseConfig.all_ones(3, 4)
        fast = effective_channels(ch, phases)
        slow = naive_effective(ch, phases)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_matches_naive_double_loop_random_phases(self, rng):
        ch = random_channels(rng, 2, 5, 3, 3)
        phases = PhaseConfig.random(2, 5, rng)
        assert np.allclose(effective_channels(ch, phases),
                           naive_effective(ch, phases), rtol=1e-12, atol=1e-12)

    def test_linear_in_channel_terms(self, rng):
        ch = random_channels(rng, 2, 3, 2, 4)
        phases = PhaseConfig.random(2, 3, rng)
        doubled = ChannelSet(2 * ch.h_direct, ch.g_bs_irs, ch.h_irs_user)
        base = effective_channels(ch, phases)
        assert np.allclose(effective_channels(doubled, phases),
                           base + ch.h_direct, rtol=1e-12)
        doubled_g = ChannelSet(ch.h_direct, 2 * ch.g_bs_irs, ch.h_irs_user)
        assert np.allclose(effective_channels(doubled_g, phases),
                           2 * base - ch.h_direct, rtol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        ch = random_channels(rng, 2, 3, 2, 4)
        with pytest.raises(ValueError):
            effective_channels(ch, PhaseConfig.all_ones(2, 4))
        with pytest.raises(ValueError):
            effective_channels(ch, PhaseConfig.all_ones(1, 3))

    def test_stacked_vector_matches_phase_config(self, rng):
        # the solver scores extrapolated points by their raw stacked vector
        ch = random_channels(rng, 2, 3, 2, 4)
        phases = PhaseConfig.random(2, 3, rng)
        assert np.array_equal(effective_channels(ch, phases.v_hat),
                              effective_channels(ch, phases))
        for bad in (phases.v_hat[:5], phases.v_hat.reshape(2, 3)):
            with pytest.raises(ValueError, match="length"):
                effective_channels(ch, bad)
        bare = strip_irs(ch)
        assert np.array_equal(effective_channels(bare, np.zeros(0, dtype=complex)),
                              ch.h_direct)

    def test_strip_irs(self, rng):
        ch = random_channels(rng, 2, 3, 2, 4)
        bare = strip_irs(ch)
        assert bare.n_irs == 0
        assert bare.g.shape == (0, 4) and bare.h_t.shape == (2, 0)
        empty = PhaseConfig(np.zeros(0, dtype=complex), 0, 0)
        hbar = effective_channels(bare, empty)
        assert np.array_equal(hbar, ch.h_direct)
        # the empty reflected product gives a new, writable array
        assert not np.shares_memory(hbar, bare.h_direct)
        hbar[0, 0] += 1.0
        assert np.array_equal(bare.h_direct, ch.h_direct)


class TestStackedLinks:
    @pytest.mark.parametrize("n_irs", [0, 1, 3])
    def test_layout_follows_v_hat(self, rng, n_irs):
        # element m of surface l sits at l * M + m, as in PhaseConfig.v_hat
        n_el, n_users, n_tx = 4, 3, 2
        ch = random_channels(rng, n_irs, n_el, n_users, n_tx)
        assert ch.g.shape == (n_irs * n_el, n_tx)
        assert ch.h_t.shape == (n_users, n_irs * n_el)
        for l in range(n_irs):
            for m in range(n_el):
                assert np.array_equal(ch.g[l * n_el + m], ch.g_bs_irs[l, m])
                for k in range(n_users):
                    assert ch.h_t[k, l * n_el + m] == ch.h_irs_user[l, k, m]
        for arr in (ch.g, ch.h_t):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0


class TestPhaseConfig:
    def test_rejects_non_unit_modulus(self):
        with pytest.raises(ValueError):
            PhaseConfig(np.array([1.0 + 0j, 0.5 + 0j]), 1, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="unit modulus"):
            PhaseConfig(np.array([bad, 1.0], dtype=complex), 1, 2)

    def test_accepts_within_tolerance(self):
        v = np.exp(1j * np.array([0.1, 2.0])) * (1 + 1e-13)
        PhaseConfig(v, 1, 2)

    def test_per_irs_layout(self):
        v = np.exp(1j * np.arange(6, dtype=float))
        cfg = PhaseConfig(v, 2, 3)
        assert np.array_equal(cfg.per_irs()[1], v[3:])

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_is_unit_modulus(self, seed):
        cfg = PhaseConfig.random(2, 4, np.random.default_rng(seed))
        assert np.max(np.abs(np.abs(cfg.v_hat) - 1.0)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PhaseConfig(np.ones(5, dtype=complex), 2, 3)


class TestChannelSetValidation:
    def test_rejects_non_finite(self, rng):
        h = complex_normal(rng, (2, 3))
        h[0, 0] = np.nan
        with pytest.raises(ValueError):
            ChannelSet(h, np.zeros((0, 0, 3)), np.zeros((0, 2, 0)))

    @pytest.mark.parametrize("name", ["h_direct", "g_bs_irs", "h_irs_user"])
    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                     complex(-np.inf, 1.0), complex(1.0, np.nan)])
    def test_names_the_array_with_a_non_finite_part(self, rng, name, bad):
        ch = random_channels(rng, 2, 3, 2, 4)
        arrays = {key: np.array(getattr(ch, key)) for key in
                  ("h_direct", "g_bs_irs", "h_irs_user")}
        arrays[name].flat[-1] = bad
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            ChannelSet(**arrays)

    def test_rejects_inconsistent_dims(self, rng):
        with pytest.raises(ValueError):
            ChannelSet(complex_normal(rng, (2, 3)),
                       complex_normal(rng, (1, 4, 3)),
                       complex_normal(rng, (1, 2, 5)))

    def test_immutable_arrays(self, rng):
        ch = random_channels(rng, 1, 2, 2, 2)
        with pytest.raises(ValueError):
            ch.h_direct[0, 0] = 0
