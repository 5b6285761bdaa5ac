import numpy as np
import pytest

from irsopt import (ChannelSet, ExperimentSpec, SolverOptions, desk_scenario,
                    draw_channels, run_baseline, run_experiment, solve,
                    summarize)
from irsopt.experiments import (CSV_FIELDS, SCHEMES, read_rows, run_scheme,
                                 scenario_at)


@pytest.fixture(scope="module")
def desk_setup():
    scenario = desk_scenario(user_seed=0)
    channels = draw_channels(scenario, np.random.default_rng(1))
    return scenario, channels


def tiny_spec(scenario, **overrides):
    defaults = dict(scenario=scenario, sweep_name="p_max", sweep_values=(1.0,),
                    n_trials=1, schemes=("proposed",), base_seed=0,
                    out_path=None, workers=1)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSpecValidation:
    def test_rejects_bad_axis(self, desk_setup):
        with pytest.raises(ValueError):
            tiny_spec(desk_setup[0], sweep_name="bandwidth")

    def test_rejects_non_increasing_values(self, desk_setup):
        with pytest.raises(ValueError):
            tiny_spec(desk_setup[0], sweep_values=(2.0, 1.0))
        with pytest.raises(ValueError):
            tiny_spec(desk_setup[0], sweep_values=())

    @pytest.mark.parametrize("bad", [4.5, np.nan, np.inf])
    def test_rejects_fractional_element_counts(self, desk_setup, bad):
        # a 4.5 would solve int(4.5) = 4 elements and record 4.5 in the CSV
        with pytest.raises(ValueError, match="n_elements"):
            tiny_spec(desk_setup[0], sweep_name="n_elements", sweep_values=(2, bad))
        spec = tiny_spec(desk_setup[0], sweep_name="n_elements", sweep_values=(2, 8.0))
        assert spec.sweep_values == (2, 8.0)
        # the p_max axis takes any increasing values
        tiny_spec(desk_setup[0], sweep_values=(0.5, 4.5))

    def test_rejects_unknown_scheme(self, desk_setup):
        with pytest.raises(ValueError):
            tiny_spec(desk_setup[0], schemes=("zero_forcing",))

    def test_rejects_bad_counts(self, desk_setup):
        with pytest.raises(ValueError):
            tiny_spec(desk_setup[0], n_trials=0)
        with pytest.raises(ValueError):
            tiny_spec(desk_setup[0], workers=0)

    @pytest.mark.parametrize("axis, values", [("n_elements", (0, 4)), ("p_max", (-1.0, 4.0))])
    def test_out_of_range_values_leave_the_results_file(self, desk_setup, tmp_path, axis,
                                                        values):
        # the spec rejects a value no scenario takes, so run_experiment never
        # opens (and empties) an existing results file
        out = tmp_path / "old.csv"
        out.write_bytes(b"scheme,old results\n")
        with pytest.raises(ValueError):
            run_experiment(tiny_spec(desk_setup[0], sweep_name=axis, sweep_values=values,
                                     out_path=out))
        assert out.read_bytes() == b"scheme,old results\n"

    def test_scenario_at(self, desk_setup):
        scenario = desk_setup[0]
        assert scenario_at(scenario, "p_max", 2.0).p_max == 2.0
        assert scenario_at(scenario, "n_elements", 8).n_elements == 8


class TestBaselines:
    def test_no_irs_with_zero_direct_channel_is_zero_rate(self, desk_setup):
        scenario, channels = desk_setup
        dead = ChannelSet(np.zeros_like(channels.h_direct),
                          channels.g_bs_irs, channels.h_irs_user)
        wsr = run_baseline("no_irs", scenario, dead,
                           rng=np.random.default_rng(0))
        assert wsr == 0.0

    def test_random_phase_equals_no_irs_without_reflectors(self, desk_setup):
        scenario, channels = desk_setup
        no_reflect = ChannelSet(channels.h_direct,
                                np.zeros_like(channels.g_bs_irs),
                                channels.h_irs_user)
        a = run_baseline("random_phase", scenario, no_reflect,
                         rng=np.random.default_rng(9))
        b = run_baseline("no_irs", scenario, no_reflect,
                         rng=np.random.default_rng(9))
        assert a == pytest.approx(b, rel=1e-12)

    def test_unknown_scheme_rejected(self, desk_setup):
        scenario, channels = desk_setup
        with pytest.raises(ValueError):
            run_baseline("proposed", scenario, channels)
        with pytest.raises(ValueError):
            run_scheme("mrt", scenario, channels, SolverOptions(),
                       np.random.default_rng(0))

    def test_proposed_dominates_baseline_from_its_solution(self, desk_setup):
        # warm-starting the full solver at the baseline's solution can only
        # improve the objective, giving per-trial dominance
        scenario, channels = desk_setup
        opts = SolverOptions(optimize_phases=False)
        beams, phases, base_trace = solve(scenario, channels, opts,
                                          rng=np.random.default_rng(11))
        _, _, full_trace = solve(scenario, channels,
                                 warm_start=(beams, phases))
        assert full_trace.wsr[-1] >= base_trace.wsr[-1] - 1e-9
        assert base_trace.wsr[-1] >= 0.0


class TestRunExperiment:
    def test_single_cell_csv(self, desk_setup, tmp_path):
        out = tmp_path / "one.csv"
        spec = tiny_spec(desk_setup[0], out_path=out)
        rows = run_experiment(spec)
        assert len(rows) == 1
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_FIELDS)
        assert len(lines) == 2

    def test_rows_cover_grid(self, desk_setup):
        spec = tiny_spec(desk_setup[0], sweep_values=(0.5, 1.0), n_trials=2,
                         schemes=("proposed", "no_irs"))
        rows = run_experiment(spec)
        assert len(rows) == 8
        keys = {(r.scheme, r.sweep_value, r.trial) for r in rows}
        assert len(keys) == 8
        assert all(r.wsr_nats >= 0 for r in rows)
        assert all(r.wsr_bits == pytest.approx(r.wsr_nats / np.log(2)) for r in rows)

    def test_deterministic_apart_from_timing(self, desk_setup):
        spec = tiny_spec(desk_setup[0], sweep_values=(0.5, 1.0), n_trials=2,
                         schemes=("proposed", "random_phase"))
        rows_a = run_experiment(spec)
        rows_b = run_experiment(spec)
        strip = lambda r: (r.scheme, r.sweep_name, r.sweep_value, r.trial,
                           r.seed, r.wsr_nats, r.wsr_bits, r.outer_iters,
                           r.inner_unconverged)
        assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]

    def test_unconverged_descents_are_counted(self, desk_setup, monkeypatch):
        # a cap of 3 inner iterations leaves descents unconverged; the
        # baselines run no descent. The cells run in this process
        # (workers=1), so they see the patched cap.
        monkeypatch.setattr("irsopt.solver.MAX_INNER", 3)
        spec = tiny_spec(desk_setup[0], sweep_values=(0.5, 1.0), n_trials=2,
                         schemes=SCHEMES)
        rows = run_experiment(spec)
        proposed = [r for r in rows if r.scheme == "proposed"]
        assert all(0 <= r.inner_unconverged <= r.outer_iters for r in proposed)
        assert any(r.inner_unconverged > 0 for r in proposed)
        assert all(r.inner_unconverged == 0 for r in rows if r.scheme != "proposed")

    def test_csv_round_trip_byte_identical(self, desk_setup, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(tiny_spec(desk_setup[0], out_path=out_a, n_trials=2))
        run_experiment(tiny_spec(desk_setup[0], out_path=out_b, n_trials=2))

        col = CSV_FIELDS.index("time_ms")

        def censor_time(path):
            rows = [line.split(",") for line in path.read_text().splitlines()]
            return [row[:col] + row[col + 1:] for row in rows]

        assert censor_time(out_a) == censor_time(out_b)

    def test_read_rows_round_trip(self, desk_setup, tmp_path):
        out = tmp_path / "rt.csv"
        rows = run_experiment(tiny_spec(desk_setup[0], out_path=out, n_trials=2))
        loaded = read_rows(out)
        assert len(loaded) == len(rows)
        assert loaded[0].wsr_nats == rows[0].wsr_nats
        assert loaded[0].seed == rows[0].seed
        assert [r.inner_unconverged for r in loaded] == [
            r.inner_unconverged for r in rows]

    def test_unwritable_output_fails_before_compute(self, desk_setup, tmp_path):
        spec = tiny_spec(desk_setup[0], out_path=tmp_path / "missing" / "x.csv",
                         n_trials=1)
        with pytest.raises(OSError):
            run_experiment(spec)

    def test_worker_pool_matches_serial(self, desk_setup):
        # "proposed" runs the phase descent, so the workers must run the
        # same descent kernel as the parent, bit for bit
        schemes = ("proposed", "random_phase", "no_irs")
        base = tiny_spec(desk_setup[0], sweep_values=(0.5, 1.0), n_trials=2,
                         schemes=schemes)
        serial = run_experiment(base)
        pooled = run_experiment(tiny_spec(desk_setup[0], sweep_values=(0.5, 1.0),
                                          n_trials=2, schemes=schemes,
                                          workers=2))
        strip = lambda r: (r.scheme, r.sweep_value, r.trial, r.wsr_nats)
        assert [strip(r) for r in serial] == [strip(r) for r in pooled]

    def test_channels_shared_across_schemes(self, desk_setup):
        # paired trials: the no_irs result must depend only on the direct
        # links drawn for the cell, which the seeding fixes per trial
        spec_a = tiny_spec(desk_setup[0], schemes=("no_irs",), n_trials=2)
        spec_b = tiny_spec(desk_setup[0], schemes=("proposed", "no_irs"),
                           n_trials=2)
        only = {r.trial: r.wsr_nats for r in run_experiment(spec_a)}
        both = {r.trial: r.wsr_nats for r in run_experiment(spec_b)
                if r.scheme == "no_irs"}
        assert only == both


class TestSummarize:
    def test_mean_and_std(self, desk_setup):
        spec = tiny_spec(desk_setup[0], n_trials=3, schemes=("no_irs",))
        rows = run_experiment(spec)
        stats = summarize(rows)
        (mean, std, n), = stats.values()
        values = [r.wsr_nats for r in rows]
        assert n == 3
        assert mean == pytest.approx(np.mean(values))
        assert std == pytest.approx(np.std(values, ddof=1))
