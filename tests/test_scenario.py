import numpy as np
import pytest

from irsopt import (ConfigError, desk_scenario, load_scenario, full_scenario,
                    ring_scenario, save_scenario)


class TestPresets:
    def test_full_preset_dimensions(self):
        sc = full_scenario(user_seed=0)
        assert (sc.n_tx, sc.n_elements, sc.n_users, sc.n_irs) == (8, 60, 8, 4)
        assert sc.p_max == 1.0
        assert sc.noise_power == pytest.approx(1e-11)
        assert np.all(sc.weights == 1.0)

    def test_irs_ring_geometry(self):
        sc = full_scenario(user_seed=0)
        radii = np.linalg.norm(sc.irs_pos[:, :2], axis=1)
        assert np.allclose(radii, 300.0)
        assert np.allclose(sc.irs_pos[:, 2], 10.0)
        assert np.allclose(sc.bs_pos, [0.0, 0.0, 10.0])
        # surfaces at 0/90/180/270 degrees
        assert np.allclose(sc.irs_pos[0, :2], [300.0, 0.0], atol=1e-9)
        assert np.allclose(sc.irs_pos[1, :2], [0.0, 300.0], atol=1e-9)

    def test_users_near_their_surface(self):
        sc = full_scenario(user_seed=5)
        for k in range(sc.n_users):
            center = sc.irs_pos[k % sc.n_irs]
            dist = np.linalg.norm(sc.user_pos[k, :2] - center[:2])
            assert dist <= 30.0 + 1e-9
        assert np.all(sc.user_pos[:, 2] == 0.0)

    def test_user_drop_depends_on_seed(self):
        a = full_scenario(user_seed=0)
        b = full_scenario(user_seed=1)
        assert not np.allclose(a.user_pos, b.user_pos)
        c = full_scenario(user_seed=0)
        assert np.array_equal(a.user_pos, c.user_pos)

    def test_desk_preset_dimensions(self):
        sc = desk_scenario()
        assert (sc.n_tx, sc.n_elements, sc.n_users, sc.n_irs) == (4, 16, 4, 2)


class TestValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            ring_scenario(0, 2, 4, 4)

    def test_rejects_bad_powers(self):
        with pytest.raises(ValueError):
            desk_scenario().replace(p_max=0.0)
        with pytest.raises(ValueError):
            desk_scenario().replace(noise_power=-1.0)

    def test_rejects_bad_weights(self):
        for weights in (np.zeros(4), [1.0, -0.5, 1.0, 1.0], np.ones(3),
                        [1.0, np.nan, 1.0, 1.0], [1.0, np.inf, 1.0, 1.0], [np.nan] * 4):
            with pytest.raises(ValueError, match="weights"):
                desk_scenario().replace(weights=np.array(weights))

    def test_rejects_bad_exponent(self):
        # NaN fails no `<= 0` test; it must be rejected here, not by the
        # channel draw
        for name in ("exp_bs_irs", "exp_irs_user", "exp_bs_user"):
            for value in (0.0, -1.0, np.nan, np.inf):
                with pytest.raises(ValueError, match=name):
                    desk_scenario().replace(**{name: value})

    def test_rejects_non_finite_gains(self):
        for name in ("ref_gain_db", "rician_k_db"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=name):
                    desk_scenario().replace(**{name: value})

    def test_rejects_non_finite_positions(self):
        sc = desk_scenario()
        bad = np.array(sc.user_pos)
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            sc.replace(user_pos=bad)

    def test_rejects_unknown_los_mode(self):
        with pytest.raises(ValueError):
            desk_scenario().replace(los_mode="planar")


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        sc = desk_scenario(user_seed=9).replace(rician_k_db=7.5, rng_seed=42)
        path = tmp_path / "scenario.cfg"
        save_scenario(sc, path)
        loaded = load_scenario(path)
        for field in ("n_tx", "n_users", "n_irs", "n_elements", "p_max",
                      "noise_power", "exp_bs_irs", "exp_irs_user", "exp_bs_user",
                      "ref_gain_db", "rician_k_db", "rng_seed", "los_mode"):
            assert getattr(loaded, field) == getattr(sc, field), field
        for field in ("weights", "bs_pos", "irs_pos", "user_pos"):
            assert np.array_equal(getattr(loaded, field), getattr(sc, field)), field

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        save_scenario(desk_scenario(), path)
        with open(path, "a") as fh:
            fh.write("mystery_knob = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_scenario(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("n_tx = 4\nn_users = 2\n")
        with pytest.raises(ConfigError, match="missing"):
            load_scenario(path)

    def test_malformed_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        save_scenario(desk_scenario(), path)
        text = path.read_text().replace("p_max = 1.0", "p_max = one")
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_comments_and_blank_lines_ok(self, tmp_path):
        path = tmp_path / "commented.cfg"
        save_scenario(desk_scenario(), path)
        text = "# a comment\n\n" + path.read_text() + "\n# trailing\n"
        path.write_text(text)
        load_scenario(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        path = tmp_path / "nan.cfg"
        save_scenario(desk_scenario(), path)
        text = "\n".join("weights = 1.0,nan,1.0,1.0" if line.startswith("weights")
                         else line for line in path.read_text().splitlines())
        path.write_text(text)
        with pytest.raises(ConfigError, match="weights"):
            load_scenario(path)

    def test_incomplete_indexed_positions(self, tmp_path):
        path = tmp_path / "gap.cfg"
        save_scenario(desk_scenario(), path)
        text = "\n".join(line for line in path.read_text().splitlines()
                         if not line.startswith("user_pos_2"))
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_scenario(path)
