import multiprocessing
import os
import shutil
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from irsopt import experiments
from irsopt import (BeamformerSet, ChannelSet, ExperimentSpec, PhaseConfig, SolverOptions,
                    desk_scenario, draw_channels, run_baseline, run_experiment, solve,
                    solve_fixed, summarize)
from irsopt.errors import NumericalError
from irsopt.experiments import (CSV_FIELDS, SCHEMES, read_rows, run_scheme,
                                 scenario_at)

SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env():
    """This environment with this tree's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


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

    @pytest.mark.parametrize("schemes", [(), ("no_irs", "no_irs"),
                                         ("proposed", "no_irs", "proposed")])
    def test_rejects_empty_or_repeated_schemes(self, desk_setup, schemes):
        # no scheme would write a header-only CSV, a repeated one every
        # cell of it twice
        with pytest.raises(ValueError, match="non-empty and distinct"):
            tiny_spec(desk_setup[0], schemes=schemes)

    def test_rejects_bad_counts(self, desk_setup):
        with pytest.raises(ValueError):
            tiny_spec(desk_setup[0], n_trials=0)
        with pytest.raises(ValueError):
            tiny_spec(desk_setup[0], workers=0)

    @pytest.mark.parametrize("name, value", [("n_trials", 2.5), ("workers", 2.5),
                                             ("base_seed", -1), ("base_seed", 1.5),
                                             ("n_trials", True), ("workers", True),
                                             ("base_seed", True), ("base_seed", False)])
    def test_bad_counts_and_seeds_leave_the_results_file(self, desk_setup, tmp_path, name,
                                                         value):
        # the spec rejects each, so run_experiment never starts
        out = tmp_path / "old.csv"
        out.write_bytes(b"scheme,old results\n")
        with pytest.raises(ValueError, match=name):
            run_experiment(tiny_spec(desk_setup[0], out_path=out, **{name: value}))
        assert out.read_bytes() == b"scheme,old results\n"

    def test_numpy_integer_counts_and_seeds(self, desk_setup):
        spec = tiny_spec(desk_setup[0], n_trials=np.int64(2), workers=np.int32(1),
                         base_seed=np.uint64(7))
        assert (spec.n_trials, spec.workers, spec.base_seed) == (2, 1, 7)

    @pytest.mark.parametrize("axis, values", [("n_elements", (0, 4)), ("p_max", (-1.0, 4.0))])
    def test_out_of_range_values_leave_the_results_file(self, desk_setup, tmp_path, axis,
                                                        values):
        # the spec rejects a value no scenario takes, so run_experiment never
        # starts
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

    @pytest.mark.parametrize("scheme", ["random_phase", "no_irs"])
    def test_dimension_mismatch_rejected(self, desk_setup, scheme):
        scenario, channels = desk_setup
        with pytest.raises(ValueError):
            run_baseline(scheme, scenario.replace(n_tx=8), channels)

    def test_proposed_dominates_baseline_from_its_solution(self, desk_setup):
        # warm-starting the full solver at the baseline's solution can only
        # improve the objective, giving per-trial dominance
        scenario, channels = desk_setup
        hbar, w0 = experiments._baseline_point("random_phase", scenario, channels,
                                               np.random.default_rng(11))
        w, (base_trace,) = solve_fixed(hbar[None], w0[None], scenario,
                                       np.array([scenario.p_max]))
        phases = PhaseConfig.random(channels.n_irs, channels.n_elements,
                                    np.random.default_rng(11))
        _, _, full_trace = solve(scenario, channels,
                                 warm_start=(BeamformerSet(w[0]), phases))
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

    def test_directory_output_fails_before_compute(self, desk_setup, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve ran")

        monkeypatch.setattr("irsopt.experiments.run_scheme", no_solve)
        with pytest.raises(IsADirectoryError):
            run_experiment(tiny_spec(desk_setup[0], out_path=tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    @pytest.mark.parametrize("stage", ["solve", "write"])
    def test_failed_sweep_keeps_the_results_file(self, desk_setup, tmp_path, monkeypatch,
                                                 error, stage):
        out = tmp_path / "old.csv"
        out.write_bytes(b"scheme,old results\n")
        calls = []
        real_run_scheme, real_write_rows = experiments.run_scheme, experiments.write_rows

        def run_scheme(*args):
            calls.append(args[0])
            if stage == "solve" and len(calls) == 3:
                raise error("stopped mid-sweep")
            return real_run_scheme(*args)

        def write_rows(handle, rows):
            real_write_rows(handle, rows[:1])
            handle.flush()
            raise error("stopped mid-write")

        monkeypatch.setattr(experiments, "run_scheme", run_scheme)
        if stage == "write":
            monkeypatch.setattr(experiments, "write_rows", write_rows)
        spec = tiny_spec(desk_setup[0], sweep_values=(1.0, 2.0), n_trials=2,
                         schemes=("proposed",), out_path=out)
        with pytest.raises(error):
            run_experiment(spec)
        assert len(calls) == (3 if stage == "solve" else 4)
        assert out.read_bytes() == b"scheme,old results\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]

    def test_results_file_mode_is_that_of_a_plain_open(self, desk_setup, tmp_path):
        # a new file gets 0o666 less the umask, an existing one keeps its mode
        plain = tmp_path / "plain.csv"
        open(plain, "w").close()
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_bytes(b"scheme,old results\n")
        os.chmod(old, 0o640)
        for out in (new, old):
            run_experiment(tiny_spec(desk_setup[0], schemes=("no_irs",), out_path=out))
            assert read_rows(out)[0].scheme == "no_irs"
        assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert stat.S_IMODE(old.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "old.csv",
                                                              "plain.csv"]

    def test_worker_pool_matches_serial(self, desk_setup, tmp_path):
        # "proposed" runs the phase descent, so the workers must run the
        # same descent kernel as the parent, bit for bit; along p_max each
        # process's baseline batch mixes budgets, and its rows are the
        # baselines' own solves
        schemes = ("proposed", "random_phase", "no_irs")
        base = tiny_spec(desk_setup[0], sweep_values=(0.5, 1.0), n_trials=2,
                         schemes=schemes)
        serial = run_experiment(base)
        pooled = run_experiment(tiny_spec(desk_setup[0], sweep_values=(0.5, 1.0),
                                          n_trials=2, schemes=schemes,
                                          workers=2))
        strip = lambda r: (r.scheme, r.sweep_value, r.trial, r.wsr_nats)
        assert [strip(r) for r in serial] == [strip(r) for r in pooled]

        # 3 workers split the 2 x 2 cells unevenly (2, 1 and 1): every field
        # but time_ms, and the CSV bytes apart from that column, still agree
        fields = [name for name in CSV_FIELDS if name != "time_ms"]
        col = CSV_FIELDS.index("time_ms")
        outputs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"workers{workers}.csv"
            rows = run_experiment(tiny_spec(desk_setup[0], sweep_values=(0.5, 1.0),
                                            n_trials=2, schemes=schemes,
                                            workers=workers, out_path=out))
            lines = [line.split(b",") for line in out.read_bytes().splitlines(True)]
            outputs.append(([tuple(getattr(r, name) for name in fields) for r in rows],
                            [line[:col] + line[col + 1:] for line in lines]))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert len(outputs[0][0]) == 12
        for row in serial:
            if row.scheme != "proposed":
                scenario = scenario_at(desk_setup[0], "p_max", row.sweep_value)
                channel_rng, init_seed = experiments._cell_rngs(
                    0, (0.5, 1.0).index(row.sweep_value), row.trial)
                trace = run_scheme(row.scheme, scenario, draw_channels(scenario, channel_rng),
                                   SolverOptions(), np.random.default_rng(init_seed))
                assert (row.wsr_nats, row.outer_iters) == (trace.wsr[-1], trace.n_outer)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_numerical_error_names_its_solve(self, desk_setup, monkeypatch, workers):
        # one baseline draw of a batch gets NaN channels: the batch raises,
        # naming the draw's scheme, sweep value and trial. With workers=2
        # the draw is the forked process's first, cell (0.5, trial 1).
        real, caller, calls = experiments.effective_channels, os.getpid(), []

        def effective_channels(channels, phases):
            calls.append(1)
            hbar = real(channels, phases)
            bad = len(calls) == 3 if workers == 1 else os.getpid() != caller and len(calls) == 1
            return hbar * np.nan if bad else hbar

        monkeypatch.setattr(experiments, "effective_channels", effective_channels)
        spec = tiny_spec(desk_setup[0], sweep_values=(0.5, 1.0), n_trials=2,
                         schemes=("random_phase", "no_irs"), workers=workers)
        with pytest.raises(NumericalError) as info:
            run_experiment(spec)
        assert info.value.__notes__[0] == "in the random_phase solve at p_max = 0.5, trial 1"

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

    def test_proposed_rows_are_their_solves(self, desk_setup):
        # each proposed row is solve with the spec's options on the cell's
        # draw, whose phase descents ran
        opts = SolverOptions(outer_tol=1e-6, max_outer=7)
        spec = tiny_spec(desk_setup[0], sweep_values=(0.5, 1.0), n_trials=2,
                         schemes=SCHEMES, options=opts)
        proposed = [row for row in run_experiment(spec) if row.scheme == "proposed"]
        assert len(proposed) == 4
        for row in proposed:
            scenario = scenario_at(desk_setup[0], "p_max", row.sweep_value)
            channel_rng, _ = experiments._cell_rngs(
                0, spec.sweep_values.index(row.sweep_value), row.trial)
            _, _, trace = solve(scenario, draw_channels(scenario, channel_rng), opts)
            assert (row.wsr_nats, row.outer_iters) == (trace.wsr[-1], trace.n_outer)
            assert trace.inner_iters.sum() > 0


FORK_EXIT_SCRIPT = """
import multiprocessing, os, sys
import irsopt
from irsopt import experiments

caller, real_run_scheme = os.getpid(), experiments.run_scheme

def run_scheme(*args):
    if os.getpid() != caller:
        os._exit(3)
    return real_run_scheme(*args)

experiments.run_scheme = run_scheme
spec = irsopt.ExperimentSpec(irsopt.desk_scenario(user_seed=0), "p_max", (1.0, 2.0), 1,
                             schemes=("proposed",), workers=2, out_path=sys.argv[1])
try:
    irsopt.run_experiment(spec)
except RuntimeError as exc:
    print(exc)
print(multiprocessing.active_children())
"""


class TestForkJoin:
    """The caller solves its share and forks one process per other share."""

    @staticmethod
    def old_results(tmp_path):
        out = tmp_path / "old.csv"
        out.write_bytes(b"scheme,old results\n")
        return out

    @staticmethod
    def assert_left_as_it_was(out):
        assert out.read_bytes() == b"scheme,old results\n"
        assert [p.name for p in out.parent.iterdir()] == [out.name]

    def test_child_exception_keeps_its_type(self, desk_setup, tmp_path, monkeypatch):
        # fork carries the patch into the child
        caller, real_run_scheme = os.getpid(), experiments.run_scheme

        def run_scheme(*args):
            if os.getpid() != caller:
                raise NumericalError("failed in a forked process")
            return real_run_scheme(*args)

        monkeypatch.setattr(experiments, "run_scheme", run_scheme)
        out = self.old_results(tmp_path)
        spec = tiny_spec(desk_setup[0], sweep_values=(1.0, 2.0), schemes=("proposed",),
                         workers=2, out_path=out)
        with pytest.raises(NumericalError, match="failed in a forked process") as info:
            run_experiment(spec)
        # the solve it came from and the child's traceback ride along as notes
        assert info.value.__notes__[0] == "in the proposed solve at p_max = 2.0, trial 0"
        assert "raised in sweep process 1" in info.value.__notes__[1]
        assert multiprocessing.active_children() == []
        self.assert_left_as_it_was(out)

    def test_child_exit_raises_runtime_error(self, tmp_path):
        # in a fresh interpreter with a timeout, so a hang fails this test
        # rather than the suite
        out = self.old_results(tmp_path)
        proc = subprocess.run([sys.executable, "-c", FORK_EXIT_SCRIPT, str(out)],
                              capture_output=True, text=True, timeout=120,
                              env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        message, children = proc.stdout.splitlines()
        assert "exited with code 3 before sending its rows" in message
        assert children == "[]"
        self.assert_left_as_it_was(out)

    def test_caller_failure_terminates_children(self, desk_setup, tmp_path, monkeypatch):
        # the child would sleep for a minute: the caller's own error must
        # stop it, not wait for it
        caller = os.getpid()

        def run_scheme(*args):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60.0)

        monkeypatch.setattr(experiments, "run_scheme", run_scheme)
        out = self.old_results(tmp_path)
        spec = tiny_spec(desk_setup[0], sweep_values=(1.0, 2.0), schemes=("proposed",),
                         workers=2, out_path=out)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(spec)
        assert time.monotonic() - t0 < 30.0
        assert multiprocessing.active_children() == []
        self.assert_left_as_it_was(out)

    def test_never_more_processes_than_cells(self, desk_setup, monkeypatch):
        starts = []
        real_start = multiprocessing.Process.start

        def start(process):
            starts.append(process)
            real_start(process)

        monkeypatch.setattr(multiprocessing.Process, "start", start)
        cells = dict(sweep_values=(1.0, 2.0), schemes=("no_irs", "random_phase"))
        serial = run_experiment(tiny_spec(desk_setup[0], **cells))
        assert starts == []
        forked = run_experiment(tiny_spec(desk_setup[0], workers=4, **cells))
        # two cells: the caller takes one and forks one process for the other
        assert len(starts) == 1
        strip = lambda r: (r.scheme, r.sweep_value, r.trial, r.seed, r.wsr_nats,
                           r.outer_iters, r.inner_unconverged)
        assert [strip(r) for r in forked] == [strip(r) for r in serial]
        assert multiprocessing.active_children() == []


def test_bench_sweep_compares_a_tree_with_itself(tmp_path):
    # this tree's src imported a second time, as irsopt_against: the same
    # rows, bit for bit, apart from time_ms
    script = SRC.parent / "benchmarks" / "bench_sweep.py"
    out = subprocess.run([sys.executable, str(script), "--against", str(SRC),
                          "--ops", "2", "--seed", "5"],
                         capture_output=True, text=True, timeout=300,
                         cwd=tmp_path, env=subprocess_env())
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("element_sweep: 2 ops, seed 5, workers 2, ")
    for line, name in zip(lines[1:3], ("against", "loaded")):
        assert line.split()[:2] == [name, "ms_op"] and float(line.split()[2]) > 0.0
    # each tree's mean time_ms per scheme, in the rows' scheme order
    for line, name in zip(lines[3:5], ("against", "loaded")):
        words = line.split()
        assert words[:2] == [name, "time_ms"] and words[2::2] == list(SCHEMES)
        assert all(float(ms) > 0.0 for ms in words[3::2])
    assert lines[5].startswith("sha256 of the rows without time_ms: equal ")
    ratio = lines[6].split()
    assert lines[6].startswith("time ratio (loaded over against): median ")
    assert float(ratio[6].rstrip(",")) > 0.0 and float(ratio[8].rstrip(";")) > 0.0
    # each operation counts for the side that was faster on it, or for neither on a tie
    assert int(ratio[12]) + int(ratio[16]) <= 2


def test_bench_sweep_quantifies_a_different_tree(tmp_path):
    # a copy of this tree whose dual search stops at a power 1e-6 off the
    # cap: the rows differ, and each scheme's line says by how much
    other = tmp_path / "src"
    shutil.copytree(SRC / "irsopt", other / "irsopt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    beamformer = other / "irsopt" / "beamformer.py"
    text = beamformer.read_text()
    assert text.count("POWER_TOL_REL = 1e-12") == 1
    beamformer.write_text(text.replace("POWER_TOL_REL = 1e-12", "POWER_TOL_REL = 1e-6"))
    script = SRC.parent / "benchmarks" / "bench_sweep.py"
    out = subprocess.run([sys.executable, str(script), "--against", str(other),
                          "--ops", "1", "--seed", "5", "--workers", "1"],
                         capture_output=True, text=True, timeout=300,
                         cwd=tmp_path, env=subprocess_env())
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 10
    assert lines[5].startswith("sha256 of the rows without time_ms: differ ")
    moves = []
    for line, scheme in zip(lines[6:9], SCHEMES):
        words = line.split()
        # 3 element counts x 2 trials of the one operation
        assert words[:6] == [f"{scheme}:", "outer_iters", "changed", "on"] + words[4:5] + ["of"]
        assert 0 <= int(words[4]) <= 6 and words[6:8] == ["6", "rows;"]
        assert line.endswith(" largest relative wsr move " + words[-1])
        moves.append(float(words[-1]))
    assert max(moves) > 0.0
    assert lines[9].startswith("time ratio (loaded over against): median ")


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
